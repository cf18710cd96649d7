"""Event-driven simulator for in-network TCP segment caching on a lossy chain."""

from .harness import (
    Aggregate,
    RunMetrics,
    RunRecord,
    Scenario,
    aggregate,
    reduction_factor,
    run,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregate",
    "RunMetrics",
    "RunRecord",
    "Scenario",
    "aggregate",
    "reduction_factor",
    "run",
    "sweep",
]
