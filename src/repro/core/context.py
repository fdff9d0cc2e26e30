"""The shared, read-only analysis substrate every engine draws from.

One :class:`AnalysisContext` is built per run and handed to the lease
classifier, the legacy-space extension, the RPKI profiler, and the
longitudinal comparison.  It snapshots everything those engines query:

* the RIB's exact-match and covering-prefix indexes
  (:class:`RibSnapshot` — plain dicts, no trie),
* the per-registry allocation scan (leaf keys + tree stats),
* the AS-relationship closure (per-AS "business family" sets that fold
  AS relationships and AS2org membership into one frozenset), and
* the per-registry organisation → RIR-assigned-ASN maps.

Worker pools never receive this object: they get its hot tables
frozen into one shared-memory segment
(:class:`~repro.core.shm.SharedAnalysisContext`) and classify from the
compact leaf keys, while the parent keeps the full ``TreeLeaf`` records
and reassembles complete inferences.

Covering lookups work without a trie because CIDR prefixes nest or are
disjoint: every covering prefix of ``p`` is a truncation
``p.supernet(L)`` for some shorter ``L``, so probing the exact dict at
each RIB-observed length, ascending, finds the least-specific cover
first — the §5.1 root-node lookup — with a handful of dict probes.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships
from ..bgp.rib import RoutingTable
from ..net import Prefix
from ..rir import ALL_RIRS, RIR
from ..rpki.roa import RoaSet
from ..whois.database import WhoisCollection
from .allocation_tree import (
    DEFAULT_MAX_LEAF_LENGTH,
    AllocationScan,
    TreeLeaf,
)

__all__ = ["AnalysisContext", "RibSnapshot", "RoaSnapshot"]

_EMPTY: FrozenSet[int] = frozenset()

#: The compact per-leaf classification input workers read:
#: ``(leaf_prefix, root_prefix, root_org_id)``.  Everything the §5.2
#: decision needs that is not already in the shared context.
LeafKey = Tuple[Prefix, Optional[Prefix], Optional[str]]


class RibSnapshot:
    """Frozen exact/covering origin lookups over a routing table.

    Semantically identical to :meth:`RoutingTable.exact_origins` and
    :meth:`RoutingTable.covering_origins`, but backed by one plain dict
    (picklable, shareable across processes) instead of a live trie.
    """

    __slots__ = ("_exact", "_lengths")

    def __init__(self, exact: Dict[Prefix, FrozenSet[int]]) -> None:
        self._exact = exact
        self._lengths: Tuple[int, ...] = tuple(
            sorted({prefix.length for prefix in exact})
        )

    @classmethod
    def from_routing_table(cls, routing_table: RoutingTable) -> "RibSnapshot":
        """Freeze the table's exact index (origins become frozensets)."""
        return cls(
            {
                prefix: frozenset(origins)
                for prefix, origins in routing_table.exact_index().items()
            }
        )

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        return self._exact.get(prefix, _EMPTY)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins.

        Probes the truncations of *prefix* at every advertised length,
        ascending, so the first hit is the least-specific cover — the
        trie-free equivalent of ``least_specific_match``.
        """
        exact = self._exact.get(prefix)
        if exact:
            return exact
        for length in self._lengths:
            if length > prefix.length:
                break
            origins = self._exact.get(prefix.supernet(length))
            if origins is not None:
                return origins
        return _EMPTY

    def exact_items(self) -> Iterable[Tuple[Prefix, FrozenSet[int]]]:
        """The ``(prefix, origins)`` pairs of the exact index.

        The incremental overlay seeds its mutable copy from this view;
        iteration order is the underlying dict's insertion order.
        """
        return self._exact.items()

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._exact

    def __len__(self) -> int:
        return len(self._exact)


class RoaSnapshot:
    """Frozen RFC 6811 validation over one ROA snapshot.

    Same truncation-walk trick as :class:`RibSnapshot`: the covering
    ROAs of a prefix live at its supernets, so a dict keyed by ROA
    prefix replaces the covering-trie walk.  Outcomes are identical to
    :func:`repro.rpki.validation.validate_origin` — VALID/INVALID/
    NOT_FOUND do not depend on the order covering ROAs are visited.
    """

    __slots__ = ("_buckets", "_lengths")

    def __init__(self, roas: RoaSet) -> None:
        buckets: Dict[Prefix, List] = {}
        for roa in roas:
            buckets.setdefault(roa.prefix, []).append(roa)
        self._buckets: Dict[Prefix, Tuple] = {
            prefix: tuple(bucket) for prefix, bucket in buckets.items()
        }
        self._lengths: Tuple[int, ...] = tuple(
            sorted({prefix.length for prefix in self._buckets})
        )

    def validate(self, prefix: Prefix, origin: int) -> str:
        """The RFC 6811 outcome name: ``valid``/``invalid``/``not-found``."""
        covered = False
        for length in self._lengths:
            if length > prefix.length:
                break
            bucket = self._buckets.get(prefix.supernet(length))
            if bucket is None:
                continue
            covered = True
            for roa in bucket:
                if roa.authorizes(prefix, origin):
                    return "valid"
        return "invalid" if covered else "not-found"

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class AnalysisContext:
    """Everything the fast engines query, snapshotted once per run.

    Build with :meth:`build`; hand the instance to
    ``LeaseInferencePipeline.run``, ``LegacyLeasePipeline``, and friends
    so they share one substrate instead of recomputing per pass.
    """

    def __init__(
        self,
        rirs: Tuple[RIR, ...],
        max_leaf_length: int,
        rib: RibSnapshot,
        related_sets: Dict[int, FrozenSet[int]],
        assigned: Dict[RIR, Dict[str, FrozenSet[int]]],
        leaf_keys: Dict[RIR, Tuple[LeafKey, ...]],
        stats: Dict[RIR, Dict[str, int]],
        leaves: Dict[RIR, List[TreeLeaf]],
    ) -> None:
        self.rirs = rirs
        self.max_leaf_length = max_leaf_length
        self.rib = rib
        self.related_sets = related_sets
        self.assigned = assigned
        self.leaf_keys = leaf_keys
        self.stats = stats
        self._leaves = leaves

    @classmethod
    def build(
        cls,
        whois: WhoisCollection,
        routing_table: RoutingTable,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        rirs: Optional[Iterable[RIR]] = None,
    ) -> "AnalysisContext":
        """Snapshot the substrates for the selected registries."""
        rib = RibSnapshot.from_routing_table(routing_table)
        related_sets = build_related_sets(relationships, as2org)

        assigned: Dict[RIR, Dict[str, FrozenSet[int]]] = {}
        for rir in ALL_RIRS:
            by_org: Dict[str, List[int]] = {}
            for autnum in whois[rir].autnums:
                if autnum.org_id:
                    by_org.setdefault(autnum.org_id, []).append(autnum.asn)
            assigned[rir] = {
                org: frozenset(asns) for org, asns in by_org.items()
            }

        work_rirs: List[RIR] = []
        leaf_keys: Dict[RIR, Tuple[LeafKey, ...]] = {}
        stats: Dict[RIR, Dict[str, int]] = {}
        leaves: Dict[RIR, List[TreeLeaf]] = {}
        for rir in rirs if rirs is not None else list(RIR):
            database = whois[rir]
            if not database.inetnums:
                continue
            scan = AllocationScan(database, max_leaf_length)
            region_leaves = scan.classifiable_leaves()
            work_rirs.append(rir)
            stats[rir] = scan.stats()
            leaves[rir] = region_leaves
            leaf_keys[rir] = tuple(
                (
                    leaf.prefix,
                    leaf.root_prefix,
                    leaf.root_record.org_id if leaf.root_record else None,
                )
                for leaf in region_leaves
            )
        return cls(
            rirs=tuple(work_rirs),
            max_leaf_length=max_leaf_length,
            rib=rib,
            related_sets=related_sets,
            assigned=assigned,
            leaf_keys=leaf_keys,
            stats=stats,
            leaves=leaves,
        )

    # -- relatedness ------------------------------------------------------
    def related_to(self, asn: int) -> FrozenSet[int]:
        """The business family of *asn* (always contains *asn*)."""
        family = self.related_sets.get(asn)
        if family is None:
            return frozenset((asn,))
        return family

    def any_related(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> bool:
        """True when any left AS's family intersects *rights*.

        Equivalent to ``RelatednessOracle.any_related``: ``related(l, r)``
        holds exactly when ``r`` is in ``l``'s family set.
        """
        return any(
            not self.related_to(left).isdisjoint(rights) for left in lefts
        )

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
            hits = self.related_to(left) & rights
            if hits:
                return left, min(hits)
        return None

    # -- registry lookups -------------------------------------------------
    def assigned_asns(self, rir: RIR, org_id: Optional[str]) -> FrozenSet[int]:
        """RIR-assigned ASNs of *org_id* in *rir* (§5.1 step 3)."""
        if not org_id:
            return _EMPTY
        return self.assigned.get(rir, {}).get(org_id, _EMPTY)

    def leaves(self, rir: RIR) -> List[TreeLeaf]:
        """The full leaf records for *rir* (parent side only)."""
        return self._leaves.get(rir, [])

    def total_leaves(self) -> int:
        """Classifiable leaves across all snapshotted registries."""
        return sum(len(keys) for keys in self.leaf_keys.values())


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
