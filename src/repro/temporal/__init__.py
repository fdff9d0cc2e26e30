"""Time-travel attribution: delta-encoded history of the lease index.

The temporal subsystem freezes a run's evolution into two queryable
artifacts — :class:`TemporalLeaseIndex` (point-in-time attribution
snapshots, delta-encoded against one shared base) and
:class:`TimelineStore` (per-prefix lease timelines with per-RIR churn
tallies) — bundled as a :class:`TemporalProduct` for the serving layer
by :func:`build_temporal_product`.

Layering: temporal builds on ``core``, ``bgp``, ``rpki``, and ``net``;
it never imports ``serve`` or ``cli`` (they import *it*), nor
``simulation`` (callers pass the evolved world in).
"""

from typing import TYPE_CHECKING

from ..net.lazy import lazy_exports

if TYPE_CHECKING:
    from .index import (
        DEFAULT_CHECKPOINT_INTERVAL,
        DEFAULT_VIEW_CACHE,
        EpochRecord,
        EpochSkipList,
        TemporalLeaseIndex,
        index_encoded_bytes,
    )
    from .product import (
        DEFAULT_EVOLUTION_SEED,
        TemporalProduct,
        build_temporal_product,
    )
    from .timeline import TimelineStore, histories_from_updates

__getattr__ = lazy_exports(
    __name__,
    {
        ".index": (
            "DEFAULT_CHECKPOINT_INTERVAL", "DEFAULT_VIEW_CACHE", "EpochRecord",
            "EpochSkipList", "TemporalLeaseIndex", "index_encoded_bytes",
        ),
        ".product": (
            "DEFAULT_EVOLUTION_SEED", "TemporalProduct", "build_temporal_product",
        ),
        ".timeline": ("TimelineStore", "histories_from_updates"),
    },
)

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_EVOLUTION_SEED",
    "DEFAULT_VIEW_CACHE",
    "EpochRecord",
    "EpochSkipList",
    "TemporalLeaseIndex",
    "TemporalProduct",
    "TimelineStore",
    "build_temporal_product",
    "histories_from_updates",
    "index_encoded_bytes",
]
