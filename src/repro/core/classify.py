"""Leaf classification (§5.2): the four inference groups.

Given, for one leaf node, its BGP origins, its root's BGP origins, and
the RIR-assigned ASes of the root organisation, the classifier produces
one of six categories spanning the paper's four groups:

1. **Unused** — neither leaf nor root originated.
2. **Aggregated customer** — only the root originated.
3. Leaf originated only: **ISP customer** when the leaf origin is related
   to a root-assigned AS, else **Leased**.
4. Both originated: **Delegated customer** when the leaf origin is
   related to a root-assigned AS or to the root's BGP origin, else
   **Leased**.

:func:`classify_leaf` is the straight-line procedure the reference
engine runs.  :class:`LeafClassifier` is the fast engines' hot path:
the same procedure over the shared
:class:`~repro.core.context.AnalysisContext`, with four
pure-memoization caches whose counters land in :class:`CacheStats`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    Optional,
    Protocol,
    Tuple,
)

from ..net import Prefix
from ..rir import RIR
from .relatedness import RelatednessOracle

if TYPE_CHECKING:
    from .allocation_tree import TreeLeaf
    from .context import AnalysisContext
    from .results import LeafInference

__all__ = [
    "CacheStats",
    "Category",
    "LeafClassifier",
    "classify_leaf",
]

_EMPTY: FrozenSet[int] = frozenset()


class Category(enum.Enum):
    """A leaf node's inference category (Table 1 rows)."""

    UNUSED = ("Unused", 1, False)
    AGGREGATED_CUSTOMER = ("Aggregated Customer", 2, False)
    ISP_CUSTOMER = ("ISP Customer", 3, False)
    LEASED_GROUP3 = ("Leased", 3, True)
    DELEGATED_CUSTOMER = ("Delegated Customer", 4, False)
    LEASED_GROUP4 = ("Leased", 4, True)

    def __init__(self, label: str, group: int, leased: bool) -> None:
        self.label = label
        self.group = group
        self.is_leased = leased


def classify_leaf(
    leaf_origins: AbstractSet[int],
    root_origins: AbstractSet[int],
    root_assigned_asns: AbstractSet[int],
    oracle: RelatednessOracle,
) -> Category:
    """Classify one leaf node per the §5.2 decision procedure."""
    if not leaf_origins and not root_origins:
        return Category.UNUSED
    if not leaf_origins:
        return Category.AGGREGATED_CUSTOMER
    if not root_origins:
        if oracle.any_related(leaf_origins, root_assigned_asns):
            return Category.ISP_CUSTOMER
        return Category.LEASED_GROUP3
    related_targets = set(root_assigned_asns) | set(root_origins)
    if oracle.any_related(leaf_origins, related_targets):
        return Category.DELEGATED_CUSTOMER
    return Category.LEASED_GROUP4


@dataclass
class CacheStats:
    """Mergeable hit/miss counters for the classifier memo caches."""

    relatedness_hits: int = 0
    relatedness_misses: int = 0
    category_hits: int = 0
    category_misses: int = 0
    root_origin_hits: int = 0
    root_origin_misses: int = 0
    assigned_hits: int = 0
    assigned_misses: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another classifier's counters into this one."""
        for field in fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def hit_rates(self) -> Dict[str, float]:
        """Per-cache hit rates in [0, 1]."""
        return {
            "relatedness": self._rate(
                self.relatedness_hits, self.relatedness_misses
            ),
            "category": self._rate(self.category_hits, self.category_misses),
            "root_origin": self._rate(
                self.root_origin_hits, self.root_origin_misses
            ),
            "assigned": self._rate(self.assigned_hits, self.assigned_misses),
        }

    def as_dict(self) -> Dict[str, object]:
        """Counters plus hit rates, for reports and ``BENCH_*.json``."""
        payload: Dict[str, object] = {
            field.name: getattr(self, field.name) for field in fields(self)
        }
        payload["hit_rates"] = {
            name: round(rate, 4) for name, rate in self.hit_rates().items()
        }
        return payload


_CategoryKey = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]

#: A leaf's category with the origin triple behind it: leaf origins,
#: root origins and the root organisation's RIR-assigned ASNs.
Verdict = Tuple[Category, FrozenSet[int], FrozenSet[int], FrozenSet[int]]


class OriginLookups(Protocol):
    """The RIB reads of the classifier: the context's frozen
    :class:`~repro.core.context.RibSnapshot` or the incremental
    engine's mutable overlay.  Both hold a copy of the routing table's
    prefix map and answer with :func:`~repro.bgp.rib.covering_lookup`."""

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]: ...

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]: ...


class LeafClassifier:
    """Memoized §5.2 classification of one registry's leaves.

    Resolution per leaf mirrors the reference engine exactly: exact
    origins for the leaf, exact-then-covering (or exact-only, when the
    ablation flag is off) for the root, RIR-assigned ASNs of the root
    organisation, then the §5.2 decision procedure.

    The relatedness memo is keyed ``(leaf_origin, root_org)`` — "is this
    origin related to any AS the root organisation registered?" — and is
    consulted **eagerly for every originated leaf**, above the category
    cache.  The previous per-AS-pair memo sat below the category cache
    and never saw a repeated query (every ``BENCH_pipeline.json`` run
    recorded a 0.0 hit rate); sibling leaves under one root re-ask this
    origin/org question constantly, so this key actually hits.
    """

    def __init__(
        self,
        context: "AnalysisContext",
        rir: RIR,
        use_covering_root_lookup: bool = True,
        rib: Optional[OriginLookups] = None,
    ) -> None:
        # Deferred: the results module imports ``Category`` from here.
        from .results import LeafInference

        self._row = LeafInference
        self._context = context
        self._rib: OriginLookups = context.rib if rib is None else rib
        self._rir = rir
        self._use_covering = use_covering_root_lookup
        self._root_origins: Dict[Prefix, FrozenSet[int]] = {}
        self._assigned: Dict[Optional[str], FrozenSet[int]] = {}
        self._related: Dict[Tuple[int, Optional[str]], bool] = {}
        self._categories: Dict[_CategoryKey, Category] = {}
        self._related_hits = 0
        self._related_misses = 0
        self._category_hits = 0
        self._category_misses = 0
        self._root_hits = 0
        self._root_misses = 0
        self._assigned_hits = 0
        self._assigned_misses = 0

    def classify(
        self,
        prefix: Prefix,
        root_prefix: Optional[Prefix],
        root_org: Optional[str],
    ) -> Verdict:
        """The verdict and origin triple for one leaf key."""
        leaf_origins = self._rib.exact_origins(prefix)
        root_origins = self._resolve_root_origins(root_prefix)
        root_assigned = self._resolve_assigned(root_org)
        related_assigned = False
        for origin in leaf_origins:
            if self._related_to_assigned(origin, root_org, root_assigned):
                related_assigned = True
        key = (leaf_origins, root_origins, root_assigned)
        category = self._categories.get(key)
        if category is None:
            self._category_misses += 1
            category = self._decide(
                leaf_origins, root_origins, related_assigned
            )
            self._categories[key] = category
        else:
            self._category_hits += 1
        return category, leaf_origins, root_origins, root_assigned

    def verdict(self, leaf: "TreeLeaf") -> Verdict:
        """The verdict and origin triple for one tree leaf."""
        root_record = leaf.root_record
        return self.classify(
            leaf.prefix,
            leaf.root_prefix,
            root_record.org_id if root_record else None,
        )

    def infer(self, leaf: "TreeLeaf") -> "LeafInference":
        """The inference row for one tree leaf of this registry."""
        return self.row(leaf, self.verdict(leaf))

    def row(self, leaf: "TreeLeaf", verdict: Verdict) -> "LeafInference":
        """The inference row carrying *verdict* for one tree leaf."""
        category, leaf_origins, root_origins, assigned = verdict
        return self._row(
            rir=self._rir,
            prefix=leaf.prefix,
            category=category,
            record=leaf.record,
            root_prefix=leaf.root_prefix,
            root_record=leaf.root_record,
            leaf_origins=leaf_origins,
            root_origins=root_origins,
            root_assigned_asns=assigned,
        )

    def _decide(
        self,
        leaf_origins: FrozenSet[int],
        root_origins: FrozenSet[int],
        related_assigned: bool,
    ) -> Category:
        """§5.2 with the assigned-relatedness clause precomputed.

        ``related_assigned`` is exactly ``any_related(leaf_origins,
        root_assigned)``; group 4's target set is the union of assigned
        and root origins, so its test decomposes into ``related_assigned
        or any_related(leaf_origins, root_origins)``.
        """
        if not leaf_origins and not root_origins:
            return Category.UNUSED
        if not leaf_origins:
            return Category.AGGREGATED_CUSTOMER
        if not root_origins:
            if related_assigned:
                return Category.ISP_CUSTOMER
            return Category.LEASED_GROUP3
        if related_assigned or self._context.any_related(
            leaf_origins, root_origins
        ):
            return Category.DELEGATED_CUSTOMER
        return Category.LEASED_GROUP4

    def _related_to_assigned(
        self,
        origin: int,
        root_org: Optional[str],
        root_assigned: FrozenSet[int],
    ) -> bool:
        key = (origin, root_org)
        answer = self._related.get(key)
        if answer is None:
            self._related_misses += 1
            answer = self._context.any_related((origin,), root_assigned)
            self._related[key] = answer
        else:
            self._related_hits += 1
        return answer

    def _resolve_root_origins(
        self, root_prefix: Optional[Prefix]
    ) -> FrozenSet[int]:
        if root_prefix is None:
            return _EMPTY
        cached = self._root_origins.get(root_prefix)
        if cached is not None:
            self._root_hits += 1
            return cached
        self._root_misses += 1
        if self._use_covering:
            resolved = self._rib.covering_origins(root_prefix)
        else:
            resolved = self._rib.exact_origins(root_prefix)
        self._root_origins[root_prefix] = resolved
        return resolved

    def _resolve_assigned(self, org_id: Optional[str]) -> FrozenSet[int]:
        if not org_id:
            return _EMPTY
        cached = self._assigned.get(org_id)
        if cached is not None:
            self._assigned_hits += 1
            return cached
        self._assigned_misses += 1
        resolved = self._context.assigned_asns(self._rir, org_id)
        self._assigned[org_id] = resolved
        return resolved

    def invalidate_root(self, root_prefix: Prefix) -> bool:
        """Evict one root's resolved origins from the memo.

        The incremental engine calls this when a burst touched a prefix
        at or below *root_prefix*; every other memo survives (`_related`
        and `_assigned` are RIB-independent, `_categories` is pure in its
        key).  Returns True when an entry was actually evicted.
        """
        return self._root_origins.pop(root_prefix, None) is not None

    def stats(self) -> CacheStats:
        """This classifier's cache counters."""
        return CacheStats(
            relatedness_hits=self._related_hits,
            relatedness_misses=self._related_misses,
            category_hits=self._category_hits,
            category_misses=self._category_misses,
            root_origin_hits=self._root_hits,
            root_origin_misses=self._root_misses,
            assigned_hits=self._assigned_hits,
            assigned_misses=self._assigned_misses,
        )
