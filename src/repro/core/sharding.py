"""Sharded, process-parallel execution for the analysis engines.

Every fast engine in this package is embarrassingly parallel across its
items: lease verdicts depend only on one leaf plus the read-only
analysis context, legacy verdicts on one block, RPKI outcomes on one
announcement.  This module provides the one generic fan-out they all
share — :func:`run_sharded` partitions the items of every work unit into
contiguous shards and runs a module-level ``runner(payload, shard)``
across a ``ProcessPoolExecutor``.

The pool uses fork where the platform has it and spawn otherwise.
Under **fork**, workers inherit the payload through copy-on-write and
nothing is pickled; under **spawn**, the initializer ships the payload
exactly once per worker.  Context-backed pools (lease and legacy
inference) pass :class:`~repro.core.shm.SharedAnalysisContext` — the
context attached to a shared-memory copy of its one byte image, whose
pickle is an O(1) attach-by-name descriptor — plus compact key tuples,
never record objects.  Both start methods return shard outputs in plan
order, so reassembly is deterministic regardless of scheduling.

:class:`ShardClassifier` is the §5.2 hot path: one per shard (or per
region, serially), all lookups served from the shared context, with
four pure-memoization caches whose counters land in :class:`CacheStats`.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..net import Prefix
from ..rir import RIR
from .classify import Category
from .context import AnalysisContext

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "CacheStats",
    "Shard",
    "ShardClassifier",
    "plan_shards",
    "fork_available",
    "effective_workers",
    "run_sharded",
]

#: Items per shard when ``--shard-size`` is not given.  Small enough to
#: balance five unevenly sized regions across four workers, large enough
#: that per-shard cache warm-up stays negligible.
DEFAULT_SHARD_SIZE = 2048

_EMPTY: FrozenSet[int] = frozenset()


@dataclass
class CacheStats:
    """Mergeable hit/miss counters for the per-shard caches."""

    relatedness_hits: int = 0
    relatedness_misses: int = 0
    category_hits: int = 0
    category_misses: int = 0
    root_origin_hits: int = 0
    root_origin_misses: int = 0
    assigned_hits: int = 0
    assigned_misses: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Fold another shard's counters into this one."""
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


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of one work unit's items."""

    work_index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


#: What a classification worker sends back per leaf: the category name
#: plus the three origin sets as sorted tuples.  Records stay in the
#: parent, so IPC moves only small immutables.
_Row = Tuple[str, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]

_CategoryKey = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]


class OriginLookups(Protocol):
    """The RIB reads of the classifier: the context's frozen
    :class:`~repro.core.context.RibSnapshot` or the incremental
    engine's mutable overlay."""

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]: ...

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]: ...


class ShardClassifier:
    """Per-shard memoized §5.2 classification over the shared context.

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
        context: AnalysisContext,
        rir: RIR,
        use_covering_root_lookup: bool = True,
        rib: Optional[OriginLookups] = None,
    ) -> None:
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
    ) -> Tuple[Category, FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
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
        """This shard's cache counters."""
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


def plan_shards(
    unit_lengths: Sequence[int], shard_size: Optional[int] = None
) -> List[Shard]:
    """Slice each work unit into contiguous shards of ``shard_size``."""
    size = shard_size or DEFAULT_SHARD_SIZE
    if size < 1:
        raise ValueError(f"shard_size must be >= 1, got {size}")
    shards: List[Shard] = []
    for work_index, count in enumerate(unit_lengths):
        for start in range(0, count, size):
            shards.append(
                Shard(work_index, start, min(start + size, count))
            )
    return shards


def fork_available() -> bool:
    """True when the platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def effective_workers(
    workers: int, total_items: int, shard_size: Optional[int] = None
) -> int:
    """The worker count actually used: serial for small inputs.

    One shard's worth of items (or fewer) never pays pool start-up.
    Platforms without fork still get a pool: spawn workers attach to
    the shared-memory context by name.
    """
    if workers <= 1:
        return 1
    if total_items <= (shard_size or DEFAULT_SHARD_SIZE):
        return 1
    return workers


# Worker-side state.  Under fork the initializer arguments are inherited
# through the process image (nothing pickled); under spawn they are
# pickled once per worker by the executor.
_WORKER_STATE: Optional[Tuple[object, Callable[[object, Shard], object]]] = (
    None
)


def _init_worker(
    payload: object, runner: Callable[[object, Shard], object]
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (payload, runner)


def _run_shard(shard: Shard) -> object:
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive; initializer sets it
        raise RuntimeError("worker pool was not initialized with a payload")
    payload, runner = state
    return runner(payload, shard)


def run_sharded(
    payload: object,
    runner: Callable[[object, Shard], object],
    unit_lengths: Sequence[int],
    workers: int,
    shard_size: Optional[int] = None,
) -> Tuple[List[Shard], List[object]]:
    """Run ``runner(payload, shard)`` across a process pool.

    Returns the shard plan and, aligned with it, each shard's output in
    item order — deterministic regardless of which worker ran what.
    ``runner`` must be a module-level function (spawn pickles it by
    reference) and ``payload`` must be picklable on spawn platforms;
    under fork neither is ever serialized.  The pool forks where
    available and spawns otherwise.
    """
    shards = plan_shards(unit_lengths, shard_size)
    if not shards:
        return [], []
    pool_size = min(workers, len(shards))
    use_fork = fork_available()
    mp_context = multiprocessing.get_context("fork" if use_fork else "spawn")
    if use_fork:
        # Freeze the inherited heap so worker GC passes skip it: without
        # this, the first collection in each child walks every parent
        # object and copy-on-write duplicates the whole heap — on large
        # worlds that costs more than the classification itself.
        gc.collect()
        gc.freeze()
    try:
        with ProcessPoolExecutor(
            max_workers=pool_size,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(payload, runner),
        ) as pool:
            outputs = list(pool.map(_run_shard, shards))
    finally:
        if use_fork:
            gc.unfreeze()
    return shards, outputs


def classify_shard_rows(
    payload: Tuple[AnalysisContext, bool, Tuple[RIR, ...]], shard: Shard
) -> Tuple[List[_Row], CacheStats]:
    """Classify one shard of leaf keys from the shared context.

    The module-level runner for the lease pipeline's parallel mode:
    ``payload`` is ``(context, use_covering_root_lookup, rir_order)``
    and ``shard.work_index`` indexes ``rir_order``.  The pool passes the
    :class:`~repro.core.shm.SharedAnalysisContext` attached to the
    parent's image.
    """
    context, use_covering, rir_order = payload
    rir = rir_order[shard.work_index]
    classifier = ShardClassifier(context, rir, use_covering)
    rows: List[_Row] = []
    for key in context.leaf_keys[rir][shard.start : shard.stop]:
        category, leaf_origins, root_origins, assigned = classifier.classify(
            *key
        )
        rows.append(
            (
                category.name,
                tuple(sorted(leaf_origins)),
                tuple(sorted(root_origins)),
                tuple(sorted(assigned)),
            )
        )
    return rows, classifier.stats()
