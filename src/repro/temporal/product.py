"""The bundle the serving layer mounts for time-travel queries.

A :class:`TemporalProduct` pairs the delta-encoded
:class:`~repro.temporal.index.TemporalLeaseIndex` (answers "what did
attribution say at time *t*?") with the
:class:`~repro.temporal.timeline.TimelineStore` (answers "what happened
to this prefix over time?").  The serving layer treats it as one
immutable value: swapping in a new product is a single reference
assignment, the same discipline the snapshot manager applies to the
live index.

:func:`build_temporal_product` freezes one evolved world into a product.
The caller generates the evolution (``repro.simulation.evolve_world``),
so this module never depends on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.context import AnalysisContext
from ..core.incremental import BurstReport, IncrementalEngine
from ..core.leaseindex import LeaseIndex
from ..core.results import InferenceResult, LeafInference
from .index import DEFAULT_CHECKPOINT_INTERVAL, TemporalLeaseIndex
from .timeline import TimelineStore, histories_from_updates

if TYPE_CHECKING:
    from ..simulation.evolution import WorldEvolution

__all__ = [
    "DEFAULT_EVOLUTION_SEED",
    "TemporalProduct",
    "build_temporal_product",
]

#: The evolution's default churn seed (distinct from the world seed so
#: one world can carry many histories).
DEFAULT_EVOLUTION_SEED = 20240404


@dataclass(frozen=True)
class TemporalProduct:
    """Immutable time-travel state served alongside the live index."""

    index: TemporalLeaseIndex
    timelines: TimelineStore
    #: Free-form provenance (world seed, epoch count, builder version).
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def epochs(self) -> int:
        """Number of change epochs beyond the base snapshot."""
        return self.index.epochs

    def epoch_timestamps(self) -> Tuple[int, ...]:
        """Epoch boundary timestamps, base first, ascending."""
        return tuple(self.index.timestamps())

    def locate(self, timestamp: int) -> Optional[int]:
        """Epoch number in effect at *timestamp* (None = before base)."""
        return self.index.locate(timestamp)

    def stats(self) -> Dict[str, object]:
        """JSON summary for ``/v1/stats`` and diagnostics."""
        sizes = self.index.delta_encoded_bytes()
        payload: Dict[str, object] = {
            "epochs": self.epochs,
            "timeline_prefixes": len(self.timelines),
            "rirs": self.timelines.rirs(),
            "encoding": sizes,
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    def rir_churn(self) -> List[str]:
        """RIR buckets available to ``/v1/churn?rir=``."""
        return self.timelines.rirs()


def build_temporal_product(
    context: AnalysisContext,
    result: InferenceResult,
    evolution: "WorldEvolution",
    checkpoint_interval: Optional[int] = None,
) -> Tuple[TemporalProduct, LeaseIndex, List[BurstReport]]:
    """Freeze *evolution* (churn over *result*'s world) as a product.

    Replays every epoch burst through an incremental engine over
    *context* and returns ``(product, base_index, epoch_reports)``:
    ``epoch_reports`` holds the engine's per-epoch :class:`BurstReport`
    rows, so timing callers reuse them instead of re-applying.
    """
    rir_of = {
        leaf.prefix: rir.name
        for rir in context.rirs
        for leaf in context.leaves(rir)
    }
    engine = IncrementalEngine(context)
    base = LeaseIndex.build(context, result)
    epoch_changes: List[Tuple[int, Tuple[LeafInference, ...]]] = []
    epoch_reports: List[BurstReport] = []
    for timestamp, burst in zip(
        evolution.epoch_timestamps, evolution.epoch_bursts
    ):
        burst_report = engine.apply(list(burst))
        epoch_reports.append(burst_report)
        epoch_changes.append((timestamp, burst_report.changed))
    interval = (
        checkpoint_interval
        if checkpoint_interval is not None
        else DEFAULT_CHECKPOINT_INTERVAL
    )
    temporal_index = TemporalLeaseIndex.build(
        context,
        base,
        evolution.base_timestamp,
        epoch_changes,
        checkpoint_interval=interval,
    )
    timelines = TimelineStore.build(
        histories_from_updates(evolution.all_updates()),
        evolution.archive,
        rir_of,
    )
    product = TemporalProduct(
        index=temporal_index,
        timelines=timelines,
        meta={
            "evolution_seed": evolution.seed,
            "epochs": evolution.epochs,
            "targets": len(evolution.schedule),
        },
    )
    return product, base, epoch_reports
