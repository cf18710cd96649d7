"""Single-hop lossy transmission and the per-kind loss model.

Loss is memoryless: one uniform draw per transmission against a
per-kind threshold.  Data segments are the largest frames and lose most
often; TCP acks lose at half that rate and link-layer acks at a quarter.
The caller picks the threshold that matches the frame it sends.  The
link layer never retransmits -- a lost frame is simply gone, and
recovery is someone else's job.

The positive link-layer ack of a delivered frame is drawn by the engine
(``Simulation.run``) for every arrival, against ``p_ll_ack``; its arrival
is pushed only when the transmitter is a node whose cache entry awaits
that frame, since nothing else reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .events import FRAME_ARRIVAL, EventQueue, RandomSource


@dataclass(frozen=True)
class LossModel:
    p_data: float
    p_tcp_ack: float
    p_ll_ack: float


def derive_loss_model(p_data: float) -> LossModel:
    """Per-kind drop probabilities in the fixed 4:2:1 size-based ratio."""
    if not 0.0 <= p_data < 1.0:
        raise ValueError(f"data loss probability must be in [0, 1), got {p_data!r}")
    return LossModel(p_data, p_data / 2.0, p_data / 4.0)


# A drop override lets tests script exact losses.  It is called as
# drop_override(frame_id, segment, src, dst) and returns True to force a
# loss, False to force delivery, None to fall through to the random draw.
DropOverride = Callable[[int, object, int, int], Optional[bool]]


def transmit(
    queue: EventQueue,
    src: int,
    dst: int,
    frame_id: int,
    segment: object,
    threshold: float,
    latency: int,
    rng: RandomSource,
    drop_override: Optional[DropOverride] = None,
) -> bool:
    """One delivery attempt of segment from src to dst; True when it will arrive.

    Exactly one uniform draw per call (unless a script override decides),
    lost when the draw falls below threshold.  On survival a FRAME_ARRIVAL
    with arg (frame_id, segment) reaches dst after latency microseconds;
    otherwise the frame silently vanishes.
    """
    forced = None
    if drop_override is not None:
        forced = drop_override(frame_id, segment, src, dst)
    lost = rng.uniform_draw() < threshold if forced is None else forced
    if not lost:
        queue.schedule(queue.now + latency, dst, FRAME_ARRIVAL, arg=(frame_id, segment))
    return not lost

