"""The lease-lookup query service over precomputed inference snapshots.

The batch pipeline produces tables; this subsystem makes them *askable*:
one run is frozen into an immutable :class:`LeaseIndex` snapshot
(:mod:`~repro.core.leaseindex`), served over an asyncio HTTP/JSON API
(:mod:`~repro.serve.http`), and published atomically one generation
at a time (:mod:`~repro.serve.reload`).  See ``docs/SERVING.md``; the
load generator that benchmarks it is ``bench/run.py``.
"""

from ..core.leaseindex import DeltaLeaseIndex, LeaseIndex
from .http import DEFAULT_CACHE_SIZE, MAX_BULK, LeaseQueryServer
from .reload import SnapshotManager

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "MAX_BULK",
    "DeltaLeaseIndex",
    "LeaseIndex",
    "LeaseQueryServer",
    "SnapshotManager",
]
