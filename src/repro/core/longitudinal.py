"""Longitudinal lease-market dynamics (the paper's §8 future work).

Compares lease inferences from two measurement epochs and quantifies
churn: new leases, ended leases, persisting leases, and originator
turnover on persisting leases (a re-lease of the same block to a new
lessee, the pattern Fig. 3 shows for one prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from ..net import Prefix
from ..rir import RIR
from .results import InferenceResult

__all__ = ["LeaseChurn", "compare_epochs"]


@dataclass
class LeaseChurn:
    """Lease-set differences between two inference epochs."""

    new_leases: FrozenSet[Prefix]
    ended_leases: FrozenSet[Prefix]
    persisting: FrozenSet[Prefix]
    #: Persisting leases whose origin AS set changed (re-leases).
    re_leased: FrozenSet[Prefix]
    by_rir: Dict[RIR, "RegionChurn"] = field(default_factory=dict)

    @property
    def turnover_rate(self) -> float:
        """Ended leases as a fraction of the earlier epoch's leases."""
        earlier = len(self.ended_leases) + len(self.persisting)
        return len(self.ended_leases) / earlier if earlier else float("nan")

    @property
    def growth_rate(self) -> float:
        """Net change in lease count relative to the earlier epoch."""
        earlier = len(self.ended_leases) + len(self.persisting)
        later = len(self.new_leases) + len(self.persisting)
        return (later - earlier) / earlier if earlier else float("nan")


@dataclass(frozen=True)
class RegionChurn:
    """Per-region churn counts."""

    rir: RIR
    new: int
    ended: int
    persisting: int
    re_leased: int


def compare_epochs(
    earlier: InferenceResult, later: InferenceResult
) -> LeaseChurn:
    """Diff the leased sets of two epochs, with per-region breakdowns.

    This is the **frozen reference engine** (per-region list scans,
    per-prefix lookups) and the only one.
    """
    earlier_leased = earlier.leased_prefixes()
    later_leased = later.leased_prefixes()
    new = later_leased - earlier_leased
    ended = earlier_leased - later_leased
    persisting = earlier_leased & later_leased

    re_leased = frozenset(
        prefix
        for prefix in persisting
        if _origins(earlier, prefix) != _origins(later, prefix)
    )

    by_rir: Dict[RIR, RegionChurn] = {}
    for rir in RIR:
        region_earlier = {
            inf.prefix for inf in earlier.leased(rir)
        }
        region_later = {inf.prefix for inf in later.leased(rir)}
        region_persisting = region_earlier & region_later
        by_rir[rir] = RegionChurn(
            rir=rir,
            new=len(region_later - region_earlier),
            ended=len(region_earlier - region_later),
            persisting=len(region_persisting),
            re_leased=len(region_persisting & re_leased),
        )
    return LeaseChurn(
        new_leases=frozenset(new),
        ended_leases=frozenset(ended),
        persisting=frozenset(persisting),
        re_leased=re_leased,
        by_rir=by_rir,
    )


def _origins(result: InferenceResult, prefix: Prefix) -> FrozenSet[int]:
    inference = result.lookup(prefix)
    return inference.leaf_origins if inference else frozenset()
