"""The analysis substrate every engine reads, built once per run.

One :class:`AnalysisContext` is built per run and handed to the lease
classifier, the incremental engine and the serving index.
:meth:`AnalysisContext.build` gathers every table those engines query:

* the RIB's exact index (:class:`RibSnapshot`): a frozen copy of the
  routing table's prefix map, sharing its interned origin sets;
* the AS-relationship closure: per-AS "business family" sets, which
  fold AS relationships and AS2org membership into one frozenset;
* the per-registry organisation → RIR-assigned-ASN maps;
* the per-registry classifiable leaves and their tree statistics.

Covering lookups follow the routing table's one rule
(:func:`~repro.bgp.rib.covering_lookup`): CIDR prefixes nest or are
disjoint, so probing the prefix's truncation at each stored length,
ascending, finds the least-specific cover first — the §5.1 root-node
lookup.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships
from ..bgp.rib import RoutingTable, covering_lookup
from ..net import Prefix, PrefixTrie
from ..net.gcpause import gc_paused
from ..rir import ALL_RIRS, RIR
from ..whois.database import WhoisCollection
from .allocation_tree import (
    DEFAULT_MAX_LEAF_LENGTH,
    AllocationScan,
    TreeLeaf,
)

__all__ = ["AnalysisContext", "RibSnapshot"]

_EMPTY: FrozenSet[int] = frozenset()


class RibSnapshot:
    """Frozen exact/covering origin lookups over a routing table.

    Holds a copy of the table's prefix map taken at
    :meth:`from_routing_table`: the same packed keys and the same
    interned origin sets, in a dict of its own, so later announcements
    and withdrawals on the table do not reach it.  Lookups return the
    shared sets, exactly as :meth:`RoutingTable.exact_origins` and
    :meth:`RoutingTable.covering_origins` do.
    """

    __slots__ = ("_trie",)

    def __init__(self, trie: PrefixTrie[FrozenSet[int]]) -> None:
        self._trie = trie

    @classmethod
    def from_routing_table(cls, routing_table: RoutingTable) -> "RibSnapshot":
        """Freeze the table's current prefix map."""
        return cls(routing_table.copy_trie())

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        return self._trie.get(prefix, _EMPTY)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins."""
        return covering_lookup(self._trie, prefix)

    def copy_trie(self) -> PrefixTrie[FrozenSet[int]]:
        """A mutable copy of the snapshot's prefix map."""
        return self._trie.copy()

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._trie

    def __len__(self) -> int:
        return len(self._trie)


class AnalysisContext:
    """Everything the fast engines query, snapshotted once per run.

    Build with :meth:`build`; hand the instance to
    ``LeaseInferencePipeline.run``, ``IncrementalEngine`` and
    ``LeaseIndex.build`` so they share one substrate instead of
    recomputing per pass.
    """

    def __init__(
        self,
        rib: RibSnapshot,
        related: Dict[int, FrozenSet[int]],
        assigned: Dict[RIR, Dict[str, FrozenSet[int]]],
        leaves: Dict[RIR, List[TreeLeaf]],
        stats: Dict[RIR, Dict[str, int]],
        max_leaf_length: int,
    ) -> None:
        self.rib = rib
        self._related = related
        self._assigned = assigned
        self._leaves = leaves
        self.stats = stats
        self.rirs: Tuple[RIR, ...] = tuple(leaves)
        self.max_leaf_length = max_leaf_length

    @classmethod
    @gc_paused
    def build(
        cls,
        whois: WhoisCollection,
        routing_table: RoutingTable,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        rirs: Optional[Iterable[RIR]] = None,
    ) -> "AnalysisContext":
        """Snapshot the RIB and relatedness, and scan the registries."""
        rib = RibSnapshot.from_routing_table(routing_table)
        related = build_related_sets(relationships, as2org)
        assigned: Dict[RIR, Dict[str, FrozenSet[int]]] = {}
        for rir in ALL_RIRS:
            by_org: Dict[str, Set[int]] = {}
            for autnum in whois[rir].autnums:
                if autnum.org_id:
                    by_org.setdefault(autnum.org_id, set()).add(autnum.asn)
            assigned[rir] = {
                org: frozenset(asns) for org, asns in by_org.items()
            }
        stats: Dict[RIR, Dict[str, int]] = {}
        leaves: Dict[RIR, List[TreeLeaf]] = {}
        for rir in rirs if rirs is not None else list(RIR):
            database = whois[rir]
            if not database.inetnums:
                continue
            scan = AllocationScan(database, max_leaf_length)
            stats[rir] = scan.stats()
            leaves[rir] = scan.classifiable_leaves()
        return cls(rib, related, assigned, leaves, stats, max_leaf_length)

    # -- relatedness ------------------------------------------------------
    def related_to(self, asn: int) -> FrozenSet[int]:
        """The business family of *asn* (always contains *asn*).

        An AS outside the closure is its own family.
        """
        family = self._related.get(asn)
        return frozenset((asn,)) if family is None else family

    def any_related(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> bool:
        """True when any left AS's family intersects *rights*.

        Equivalent to ``RelatednessOracle.any_related``: ``related(l, r)``
        holds exactly when ``r`` is in ``l``'s family set.
        """
        related = self._related
        for left in lefts:
            family = related.get(left)
            if family is None:
                if left in rights:
                    return True
            elif not family.isdisjoint(rights):
                return True
        return False

    def related_pair(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> Optional[Tuple[int, int]]:
        """The lowest-numbered related ``(left, right)`` pair, or None.

        The serving layer surfaces this pair as the relatedness verdict
        behind a Delegated/ISP-customer answer: *which* leaf origin was
        related to *which* root-side AS.  Deterministic (ascending AS
        number) so identical snapshots explain answers identically.
        """
        for left in sorted(lefts):
            hits = self.related_to(left).intersection(rights)
            if hits:
                return left, min(hits)
        return None

    # -- registry lookups -------------------------------------------------
    def assigned_asns(self, rir: RIR, org_id: Optional[str]) -> FrozenSet[int]:
        """RIR-assigned ASNs of *org_id* in *rir* (§5.1 step 3)."""
        if not org_id:
            return _EMPTY
        return self._assigned[rir].get(org_id, _EMPTY)

    def leaves(self, rir: RIR) -> List[TreeLeaf]:
        """The classifiable leaf records for *rir*."""
        return self._leaves.get(rir, [])

    def total_leaves(self) -> int:
        """Classifiable leaves across all snapshotted registries."""
        return sum(len(region) for region in self._leaves.values())


def build_related_sets(
    relationships: ASRelationships, as2org: Optional[AS2Org] = None
) -> Dict[int, FrozenSet[int]]:
    """Per-AS family sets equal to the relatedness oracle's closure.

    ``oracle.related(a, b)`` is true exactly when ``b`` is in
    ``{a} | neighbors(a) | as2org members of a's organisation`` — the
    identity, direct-relationship, and same-organisation clauses of
    §5.2.  Precomputing the union turns every relatedness query into a
    set-membership test with no oracle (and no dataset objects) needed
    at classification time.
    """
    asns = set(relationships.asns())
    if as2org is not None:
        asns.update(as2org.asns())
    related: Dict[int, FrozenSet[int]] = {}
    for asn in asns:
        family = {asn}
        family.update(relationships.neighbors(asn))
        if as2org is not None:
            org = as2org.org_of(asn)
            if org is not None:
                family.update(as2org.members(org))
        related[asn] = frozenset(family)
    return related
