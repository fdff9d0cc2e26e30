"""Inference results: per-leaf verdicts and per-region tallies (§6.1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..net import Prefix
from ..net.slots import slotted
from ..rir import ALL_RIRS, RIR
from ..whois.objects import InetnumRecord
from .classify import Category

__all__ = ["LeafInference", "RegionalTally", "InferenceResult"]


@slotted
@dataclass(frozen=True)
class LeafInference:
    """The verdict for one leaf node, with the Fig. 2 business roles.

    * IP holder — the root node's organisation,
    * facilitator — the leaf node's maintainers,
    * originator — the leaf node's BGP origin AS(es).
    """

    rir: RIR
    prefix: Prefix
    category: Category
    record: InetnumRecord
    root_prefix: Optional[Prefix]
    root_record: Optional[InetnumRecord]
    leaf_origins: FrozenSet[int]
    root_origins: FrozenSet[int]
    root_assigned_asns: FrozenSet[int]

    @property
    def is_leased(self) -> bool:
        """True for either leased category."""
        return self.category.is_leased

    @property
    def holder_org_id(self) -> Optional[str]:
        """Organisation handle of the IP holder (root node)."""
        return self.root_record.org_id if self.root_record else None

    @property
    def facilitator_handles(self) -> Tuple[str, ...]:
        """Maintainer handles on the leaf node."""
        return self.record.maintainers

    @property
    def originators(self) -> FrozenSet[int]:
        """BGP origin AS(es) of the leaf prefix."""
        return self.leaf_origins

    def to_payload(self) -> Dict[str, object]:
        """The JSON-ready answer for this verdict (the serving layer).

        Carries the classification *and* the §5.1 lookups it was derived
        from — leaf/root origins and the root organisation's assigned
        ASNs — so a query service can explain every answer it serves.
        """
        return {
            "prefix": str(self.prefix),
            "rir": self.rir.name,
            "category": self.category.label,
            "category_code": self.category.name,
            "group": self.category.group,
            "leased": self.category.is_leased,
            "status": self.record.status,
            "net_name": self.record.net_name,
            "holder_org": self.holder_org_id,
            "facilitators": list(self.facilitator_handles),
            "evidence": {
                "leaf_origins": sorted(self.leaf_origins),
                "root_prefix": (
                    str(self.root_prefix)
                    if self.root_prefix is not None
                    else None
                ),
                "root_origins": sorted(self.root_origins),
                "root_assigned_asns": sorted(self.root_assigned_asns),
            },
        }


@dataclass
class RegionalTally:
    """Category counts for one registry (one column of Table 1)."""

    rir: RIR
    counts: Dict[Category, int] = field(
        default_factory=lambda: {category: 0 for category in Category}
    )

    def add(self, category: Category) -> None:
        """Count one classified leaf."""
        self.counts[category] += 1

    @property
    def total(self) -> int:
        """All classified leaves in this region."""
        return sum(self.counts.values())

    @property
    def leased(self) -> int:
        """Leased leaves across groups 3 and 4."""
        return (
            self.counts[Category.LEASED_GROUP3]
            + self.counts[Category.LEASED_GROUP4]
        )


class InferenceResult:
    """All leaf verdicts across regions, with Table 1 style accessors."""

    def __init__(self) -> None:
        self._inferences: List[LeafInference] = []
        self._tallies: Dict[RIR, RegionalTally] = {
            rir: RegionalTally(rir) for rir in ALL_RIRS
        }
        #: Prefix → verdict, built by the first :meth:`lookup` and
        #: dropped by :meth:`add`.
        self._by_prefix: Optional[Dict[Prefix, LeafInference]] = None

    def add(self, inference: LeafInference) -> None:
        """Record one verdict."""
        self._inferences.append(inference)
        self._tallies[inference.rir].add(inference.category)
        self._by_prefix = None

    @classmethod
    def from_inferences(
        cls, inferences: Iterable[LeafInference]
    ) -> "InferenceResult":
        """A result holding *inferences*, in iteration order."""
        result = cls()
        for inference in inferences:
            result.add(inference)
        return result

    def merge(self, other: "InferenceResult") -> "InferenceResult":
        """Fold another result's verdicts into this one (returns self).

        Equality between results is order-independent, so partial results
        can be merged in any order without changing the outcome.
        """
        for inference in other._inferences:
            self.add(inference)
        return self

    def __len__(self) -> int:
        return len(self._inferences)

    def __iter__(self) -> Iterator[LeafInference]:
        return iter(self._inferences)

    def __eq__(self, other: object) -> bool:
        """Same verdicts, regardless of insertion order."""
        if not isinstance(other, InferenceResult):
            return NotImplemented
        if len(self._inferences) != len(other._inferences):
            return False
        return self._canonical() == other._canonical()

    def _canonical(self) -> List[LeafInference]:
        return sorted(
            self._inferences, key=lambda inf: (inf.rir.name, inf.prefix)
        )

    # -- lookups ---------------------------------------------------------
    def lookup(self, prefix: Prefix) -> Optional[LeafInference]:
        """The verdict for *prefix*, or None when it is not a leaf.

        A prefix that is a leaf in several regions answers with the
        verdict added last.
        """
        if self._by_prefix is None:
            self._by_prefix = {inf.prefix: inf for inf in self._inferences}
        return self._by_prefix.get(prefix)

    def tally(self, rir: RIR) -> RegionalTally:
        """The Table 1 column for *rir*."""
        return self._tallies[rir]

    def tallies(self) -> Dict[RIR, RegionalTally]:
        """All per-region tallies."""
        return dict(self._tallies)

    # -- slices ---------------------------------------------------------
    def for_rir(self, rir: RIR) -> List[LeafInference]:
        """All verdicts in one region."""
        return [inf for inf in self._inferences if inf.rir is rir]

    def leased(self, rir: Optional[RIR] = None) -> List[LeafInference]:
        """Leased verdicts, optionally restricted to one region."""
        return [
            inf
            for inf in self._inferences
            if inf.is_leased and (rir is None or inf.rir is rir)
        ]

    def in_category(self, category: Category) -> List[LeafInference]:
        """All verdicts with *category*."""
        return [inf for inf in self._inferences if inf.category is category]

    def leased_prefixes(self) -> FrozenSet[Prefix]:
        """The set of inferred-leased prefixes (the paper's 47k)."""
        return frozenset(inf.prefix for inf in self._inferences if inf.is_leased)

    def total_leased(self) -> int:
        """Leased count across all regions."""
        return sum(tally.leased for tally in self._tallies.values())

    def leased_address_space(self) -> int:
        """Distinct addresses covered by leased prefixes.

        Overlapping leased prefixes are deduplicated; this is the
        numerator of the paper's "0.9% of routed v4 address space".
        """
        from ..net import prefixes_to_ranges

        ranges = prefixes_to_ranges(sorted(self.leased_prefixes()))
        return sum(r.num_addresses for r in ranges)

    def total_classified(self) -> int:
        """Classified leaf count across all regions."""
        return sum(tally.total for tally in self._tallies.values())
