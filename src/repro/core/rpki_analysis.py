"""RPKI validation profiles for prefix populations.

§6.4 observes that the leasing market interacts with routing security:
facilitators manage ROAs for lessees, so leased announcements tend to be
RPKI-valid — including the abusive ones, which is how leasing lets
spammers *bypass* origin validation.  This module profiles the RFC 6811
outcome of every announcement in a population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..bgp.rib import RoutingTable
from ..net import Prefix
from ..rpki.roa import RoaSet
from ..rpki.validation import ValidationState, validate_origin

__all__ = [
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
    :func:`validate_origin` calls) and the only one; the golden RPKI
    fixture pins its output.
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
