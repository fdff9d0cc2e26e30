"""End-to-end lease inference (§5.1–§5.2).

The pipeline ties the substrates together: per registry it builds the
allocation tree, resolves root-organisation ASNs, looks up BGP origins,
and classifies every non-portable leaf.

Two engines produce bit-for-bit identical results:

* :meth:`LeaseInferencePipeline.run` — the fast path: sort-based tree
  construction (:class:`~repro.core.allocation_tree.AllocationScan`)
  into one :class:`~repro.core.context.AnalysisContext`, then memoized
  per-registry lookups (:class:`~repro.core.classify.LeafClassifier`).
* :meth:`LeaseInferencePipeline.run_reference` — the straight-line
  per-leaf loop over :class:`AllocationTree`, kept as the executable
  specification the fast path is tested (and benchmarked) against.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships
from ..bgp.rib import RoutingTable
from ..rir import RIR
from ..whois.database import WhoisCollection, WhoisDatabase
from .allocation_tree import (
    DEFAULT_MAX_LEAF_LENGTH,
    AllocationTree,
    TreeLeaf,
)
from .classify import CacheStats, LeafClassifier, classify_leaf
from .context import AnalysisContext
from .relatedness import RelatednessOracle
from .results import InferenceResult, LeafInference

__all__ = ["LeaseInferencePipeline", "infer_leases"]


class LeaseInferencePipeline:
    """Configured, reusable lease inference over WHOIS + BGP + AS data."""

    def __init__(
        self,
        whois: Union[WhoisCollection, WhoisDatabase],
        routing_table: RoutingTable,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        use_covering_root_lookup: bool = True,
    ) -> None:
        if isinstance(whois, WhoisDatabase):
            collection = WhoisCollection({whois.rir: whois})
        else:
            collection = whois
        self.whois = collection
        self.routing_table = routing_table
        self.oracle = RelatednessOracle(relationships, as2org)
        self.max_leaf_length = max_leaf_length
        self.use_covering_root_lookup = use_covering_root_lookup
        self.trees: Dict[RIR, AllocationTree] = {}
        #: The shared substrate snapshot of the last :meth:`run`; reuse
        #: it across the extension pipelines to skip rebuilding.
        self.context: Optional[AnalysisContext] = None
        #: Wall-clock stage breakdown of the last run, seconds.
        self.timings: Dict[str, float] = {}
        self._stats: Optional[Dict[RIR, Dict[str, int]]] = None
        self._cache_stats: Optional[CacheStats] = None

    # -- fast engine -----------------------------------------------------
    def run(
        self,
        rirs: Optional[Iterable[RIR]] = None,
        context: Optional[AnalysisContext] = None,
    ) -> InferenceResult:
        """Classify every leaf in the selected registries (default: all).

        Builds (or reuses, via ``context``) the shared
        :class:`AnalysisContext` snapshot, then classifies from it with
        one memoized :class:`LeafClassifier` per registry.  Output is
        bit-for-bit equal to :meth:`run_reference`.
        """
        result = InferenceResult()

        tree_started = time.perf_counter()
        if context is None:
            context = AnalysisContext.build(
                self.whois,
                self.routing_table,
                self.oracle.relationships,
                self.oracle.as2org,
                self.max_leaf_length,
                rirs=rirs,
            )
        self.context = context
        work_rirs: List[RIR] = [
            rir
            for rir in (rirs if rirs is not None else list(RIR))
            if rir in context.rirs
        ]
        tree_elapsed = time.perf_counter() - tree_started

        classify_started = time.perf_counter()
        cache_stats = CacheStats()
        for rir in work_rirs:
            classifier = LeafClassifier(
                context, rir, self.use_covering_root_lookup
            )
            for leaf in context.leaves(rir):
                result.add(classifier.infer(leaf))
            cache_stats.merge(classifier.stats())

        self._stats = {
            rir: dict(context.stats[rir]) for rir in work_rirs
        }
        self._cache_stats = cache_stats
        self.timings = {
            "tree_build_s": tree_elapsed,
            "classify_s": time.perf_counter() - classify_started,
        }
        return result

    # -- reference engine ------------------------------------------------
    def run_reference(
        self, rirs: Optional[Iterable[RIR]] = None
    ) -> InferenceResult:
        """The original straight-line engine: trie tree, per-leaf lookups.

        Kept unoptimized on purpose — it is the executable specification
        the fast engine's equivalence tests diff against, and the
        benchmark harness's speedup baseline.
        """
        result = InferenceResult()
        stats: Dict[RIR, Dict[str, int]] = {}
        tree_elapsed = 0.0
        classify_elapsed = 0.0
        for rir in rirs if rirs is not None else list(RIR):
            database = self.whois[rir]
            if not database.inetnums:
                continue
            started = time.perf_counter()
            tree = AllocationTree(database, self.max_leaf_length)
            leaves = tree.classifiable_leaves()
            tree_elapsed += time.perf_counter() - started
            self.trees[rir] = tree
            stats[rir] = {
                "nodes": len(tree),
                "roots": len(tree.roots()),
                "leaves": len(tree.leaves()),
                "classifiable": len(leaves),
                "hyper_specific_dropped": tree.hyper_specific_dropped,
                "legacy_dropped": tree.legacy_dropped,
            }
            started = time.perf_counter()
            for leaf in leaves:
                result.add(self._infer_leaf(rir, database, leaf))
            classify_elapsed += time.perf_counter() - started
        self._stats = stats
        self.timings = {
            "tree_build_s": tree_elapsed,
            "classify_s": classify_elapsed,
        }
        return result

    # -- diagnostics -----------------------------------------------------
    def stats(self) -> Dict[RIR, Dict[str, int]]:
        """Per-region tree diagnostics from the last run.

        Keys per region: ``nodes`` (tree entries), ``roots``, ``leaves``,
        ``classifiable`` (non-portable leaves under a root),
        ``hyper_specific_dropped``, and ``legacy_dropped``.

        Raises :class:`RuntimeError` before the first run — there is no
        tree to report on yet, and silently returning ``{}`` used to
        mask exactly that mistake.
        """
        if self._stats is None:
            raise RuntimeError(
                "LeaseInferencePipeline.stats() called before run(); "
                "call run() or run_reference() first"
            )
        return {rir: dict(counters) for rir, counters in self._stats.items()}

    def cache_stats(self) -> CacheStats:
        """Aggregated per-registry cache counters from the last :meth:`run`.

        Raises :class:`RuntimeError` before the first :meth:`run` (the
        reference engine uses no caches, so it never populates these).
        """
        if self._cache_stats is None:
            raise RuntimeError(
                "LeaseInferencePipeline.cache_stats() requires a prior "
                "run() — the reference engine does not use the caches"
            )
        return self._cache_stats

    def _infer_leaf(
        self, rir: RIR, database: WhoisDatabase, leaf: TreeLeaf
    ) -> LeafInference:
        # §5.1 step 4: exact match for the leaf ...
        leaf_origins = self.routing_table.exact_origins(leaf.prefix)
        # ... exact-then-least-specific-covering for the root (ablatable).
        if leaf.root_prefix is not None:
            if self.use_covering_root_lookup:
                root_origins = self.routing_table.covering_origins(
                    leaf.root_prefix
                )
            else:
                root_origins = self.routing_table.exact_origins(
                    leaf.root_prefix
                )
        else:
            root_origins = frozenset()
        root_assigned = self._root_assigned_asns(database, leaf)
        category = classify_leaf(
            leaf_origins, root_origins, root_assigned, self.oracle
        )
        return LeafInference(
            rir=rir,
            prefix=leaf.prefix,
            category=category,
            record=leaf.record,
            root_prefix=leaf.root_prefix,
            root_record=leaf.root_record,
            leaf_origins=leaf_origins,
            root_origins=root_origins,
            root_assigned_asns=root_assigned,
        )

    def _root_assigned_asns(
        self, database: WhoisDatabase, leaf: TreeLeaf
    ) -> FrozenSet[int]:
        """§5.1 step 3: the RIR-assigned ASNs of the root organisation."""
        if leaf.root_record is None or leaf.root_record.org_id is None:
            return frozenset()
        return frozenset(database.asns_of_org(leaf.root_record.org_id))


def infer_leases(
    whois: Union[WhoisCollection, WhoisDatabase],
    routing_table: RoutingTable,
    relationships: ASRelationships,
    as2org: Optional[AS2Org] = None,
) -> InferenceResult:
    """One-call convenience wrapper around the pipeline."""
    return LeaseInferencePipeline(
        whois, routing_table, relationships, as2org
    ).run()
