"""Segment-granularity TCP packet values and the selective-ack algebra.

Sequence numbers count whole segments starting at 1.  An ack carries the
next expected segment number (everything below it is acknowledged in
order) plus a selective-ack set for segments vouched for above that
point.  All values here are immutable and freely shareable.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

ORIGIN_E2E = "e2e"          # transmitted by the TCP sender
ORIGIN_LOCAL = "local"      # re-emitted from an intermediate node's cache


class DataSegment(NamedTuple):
    seq: int
    origin: str = ORIGIN_E2E


class AckSegment(namedtuple("AckSegment", ["ack_no", "sack"])):
    """Cumulative ack plus selective-ack set, kept in canonical form.

    Canonical form: no sack member below the cumulative point.  The
    constructor enforces it, so every AckSegment in the system satisfies
    sack & [1, ack_no) == {}.  A sack that is already a canonical
    frozenset, as every sack the stations build is, is kept as the same
    object; any other iterable, a generator included, is read once into a
    new frozenset of its members at or above ``ack_no``.
    """

    __slots__ = ()

    def __new__(cls, ack_no: int, sack=frozenset()):
        if type(sack) is not frozenset or (sack and min(sack) < ack_no):
            sack = frozenset([s for s in sack if s >= ack_no])
        return tuple.__new__(cls, (ack_no, sack))


def sack_covers(ack: AckSegment, seq: int) -> bool:
    """True when the ack vouches for seq, cumulatively or selectively."""
    return seq < ack.ack_no or seq in ack.sack


def sack_add(ack: AckSegment, seq: int) -> AckSegment:
    """Ack with seq added to the selective set; idempotent, never removes.

    A seq below the cumulative point is already covered and left alone.
    """
    if seq < ack.ack_no or seq in ack.sack:
        return ack
    return AckSegment(ack.ack_no, ack.sack | {seq})


def gaps_filled_with(ack: AckSegment, seq: int) -> bool:
    """Would adding seq leave no hole up to the highest selective entry?

    True iff every segment number in [ack_no, max(sack | {seq})] is either
    seq itself or already in the selective set.
    """
    highest = max(ack.sack | {seq})
    for n in range(ack.ack_no, highest + 1):
        if n != seq and n not in ack.sack:
            return False
    return True

