"""RPKI validation profiles for prefix populations.

§6.4 observes that the leasing market interacts with routing security:
facilitators manage ROAs for lessees, so leased announcements tend to be
RPKI-valid — including the abusive ones, which is how leasing lets
spammers *bypass* origin validation.  This module profiles the RFC 6811
outcome of every announcement in a population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..bgp.rib import RoutingTable
from ..net import Prefix
from ..rpki.roa import RoaSet
from ..rpki.validation import ValidationState, validate_origin
from .context import AnalysisContext, RibSnapshot, RoaSnapshot

__all__ = [
    "RpkiValidationPipeline",
    "ValidationProfile",
    "validation_profile",
]


@dataclass(frozen=True)
class ValidationProfile:
    """RFC 6811 outcome counts over a set of announcements."""

    valid: int
    invalid: int
    not_found: int

    @property
    def total(self) -> int:
        """All validated announcements."""
        return self.valid + self.invalid + self.not_found

    @property
    def valid_share(self) -> float:
        """Fraction of announcements that validate VALID."""
        return self.valid / self.total if self.total else float("nan")

    @property
    def covered_share(self) -> float:
        """Fraction of announcements with any covering ROA."""
        covered = self.valid + self.invalid
        return covered / self.total if self.total else float("nan")


def validation_profile(
    prefixes: Iterable[Prefix],
    routing_table: RoutingTable,
    roas: RoaSet,
) -> ValidationProfile:
    """Validate every (prefix, origin) announcement in the population.

    Prefixes absent from the routing table contribute nothing (only
    announcements can be validated).

    This is the **frozen reference engine** (live tries, per-pair
    :func:`validate_origin` calls); :class:`RpkiValidationPipeline` is
    the snapshot-backed fast path tested against it.
    """
    counts: Dict[ValidationState, int] = {state: 0 for state in ValidationState}
    for prefix in prefixes:
        for origin in routing_table.exact_origins(prefix):
            counts[validate_origin(roas, prefix, origin)] += 1
    return ValidationProfile(
        valid=counts[ValidationState.VALID],
        invalid=counts[ValidationState.INVALID],
        not_found=counts[ValidationState.NOT_FOUND],
    )


# -- fast engine ----------------------------------------------------------

class RpkiValidationPipeline:
    """Snapshot-backed RFC 6811 profiling beside its frozen reference.

    :meth:`profile` produces a :class:`ValidationProfile` equal to
    :func:`validation_profile` (enforced by the equivalence tests).  The
    RIB snapshot comes from a shared :class:`AnalysisContext` when one is
    supplied, so the base inference and this profiler index BGP once.
    """

    def __init__(
        self,
        routing_table: RoutingTable,
        roas: RoaSet,
        context: Optional[AnalysisContext] = None,
    ) -> None:
        self.routing_table = routing_table
        self.roas = roas
        if context is not None:
            self.rib = context.rib
        else:
            self.rib = RibSnapshot.from_routing_table(routing_table)
        self.roa_snapshot = RoaSnapshot(roas)

    def profile(self, prefixes: Iterable[Prefix]) -> ValidationProfile:
        """Profile the population; equal to :meth:`profile_reference`."""
        valid = invalid = not_found = 0
        for prefix in prefixes:
            for origin in self.rib.exact_origins(prefix):
                outcome = self.roa_snapshot.validate(prefix, origin)
                if outcome == "valid":
                    valid += 1
                elif outcome == "invalid":
                    invalid += 1
                else:
                    not_found += 1
        return ValidationProfile(
            valid=valid, invalid=invalid, not_found=not_found
        )

    def profile_reference(
        self, prefixes: Iterable[Prefix]
    ) -> ValidationProfile:
        """The frozen per-pair engine (executable specification)."""
        return validation_profile(prefixes, self.routing_table, self.roas)
