"""Time-travel attribution: the history of the lease index.

The temporal subsystem freezes a run's evolution into two queryable
artifacts — :class:`TemporalLeaseIndex` (point-in-time attribution
snapshots, each a delta generation over one shared base) and
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
    from .index import TemporalLeaseIndex
    from .product import (
        DEFAULT_EVOLUTION_SEED,
        TemporalProduct,
        build_temporal_product,
    )
    from .timeline import TimelineStore, histories_from_updates

__getattr__ = lazy_exports(
    __name__,
    {
        ".index": ("TemporalLeaseIndex",),
        ".product": (
            "DEFAULT_EVOLUTION_SEED", "TemporalProduct", "build_temporal_product",
        ),
        ".timeline": ("TimelineStore", "histories_from_updates"),
    },
)

__all__ = [
    "DEFAULT_EVOLUTION_SEED",
    "TemporalLeaseIndex",
    "TemporalProduct",
    "TimelineStore",
    "build_temporal_product",
    "histories_from_updates",
]
