"""POOL-X-like process runtime (paper Section 3.1).

Dynamically created processes, message passing only, explicit allocation
onto processing elements.  See :class:`PoolRuntime` and
:class:`PoolProcess`.
"""

from repro.pool.placement import LeastLoaded, PlacementPolicy, RoundRobin
from repro.pool.process import PoolProcess
from repro.pool.runtime import (
    RECEIVE_OVERHEAD_S,
    SEND_OVERHEAD_S,
    PoolRuntime,
    RuntimeStats,
)

__all__ = [
    "LeastLoaded",
    "PlacementPolicy",
    "PoolProcess",
    "PoolRuntime",
    "RECEIVE_OVERHEAD_S",
    "RoundRobin",
    "RuntimeStats",
    "SEND_OVERHEAD_S",
]
