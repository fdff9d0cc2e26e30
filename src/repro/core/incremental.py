"""Incremental reclassification over a mutable RIB overlay.

The frozen-snapshot engines rebuild everything per run; this module is
the streaming path between collector dumps.  A burst of announce/
withdraw updates lands on :class:`MutableRibOverlay` — a mutable copy
of the prefix map in the run's :class:`~repro.core.context.RibSnapshot`,
answering with the same covering rule — and :class:`IncrementalEngine`
reclassifies **only** the leaves whose §5.1 lookups could have changed:

* a leaf's own origins come from the exact index at its prefix, so a
  changed prefix dirties exactly the leaves keyed by it;
* a root's origins come from the exact index at the root or one of its
  supernets (the covering walk), so a changed prefix ``p`` can only
  move roots **at or below** ``p`` — the trie of root prefixes answers
  ``covered(p)`` and each candidate is recomputed, dirtying its leaves
  only when the resolved origin set actually differs.

Everything else survives: the per-classifier relatedness and category
memos are RIB-independent, and the per-root origin memo is evicted only
for roots whose resolution moved.  After every burst the engine's rows
are bit-identical to a from-scratch ``pipeline.run()`` on the mutated
table — the differential test harness proves it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Set,
    Tuple,
    Union,
)

from ..bgp.history import AnnounceUpdate, Update
from ..bgp.rib import OriginSets, RoutingTable, covering_lookup
from ..bgp.updates import SequencedUpdate
from ..net import Prefix, PrefixTrie
from ..rir import RIR
from .context import AnalysisContext, RibSnapshot
from .classify import CacheStats, LeafClassifier
from .results import InferenceResult, LeafInference

__all__ = [
    "BurstReport",
    "IncrementalEngine",
    "MutableRibOverlay",
    "clone_routing_table",
    "replay_into_table",
    "result_digest",
]

_EMPTY: FrozenSet[int] = frozenset()

#: A leaf's position in the engine's row store: ``(rir, index)``.
_LeafSlot = Tuple[RIR, int]


class MutableRibOverlay:
    """A mutable copy of a frozen RIB snapshot, update by update.

    Answers ``exact_origins`` / ``covering_origins`` exactly like
    :class:`RibSnapshot` (so the leaf classifier reads it unchanged)
    while accepting the stream's mutations with :class:`RoutingTable`
    semantics: ``announce`` adds one origin to a prefix's set,
    ``withdraw`` evicts the prefix's entry wholly.  The prefix map is a
    copy of the snapshot's, and the intern table starts from the
    snapshot's sets, so prefixes with equal origins share one frozenset
    before and after updates.
    """

    __slots__ = ("_trie", "_interned")

    def __init__(self, base: RibSnapshot) -> None:
        self._trie = base.copy_trie()
        self._interned = OriginSets()
        for origins in self._trie.values():
            self._interned.setdefault(origins, origins)

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        return self._trie.get(prefix, _EMPTY)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins."""
        return covering_lookup(self._trie, prefix)

    def announce(self, prefix: Prefix, origin: int) -> bool:
        """Add *origin* to the prefix's set; True when state changed."""
        current = self._trie.get(prefix)
        if current is None:
            self._trie.insert(prefix, self._interned[origin])
        elif origin in current:
            return False
        else:
            self._trie.insert(prefix, self._interned[current | {origin}])
        return True

    def withdraw(self, prefix: Prefix) -> bool:
        """Evict the prefix's entry wholly; True when it was present.

        Mirrors :meth:`RoutingTable.withdraw`: a withdraw removes the
        prefix from the exact index regardless of how many origins were
        announcing it.
        """
        return self._trie.remove(prefix)


@dataclass(frozen=True)
class BurstReport:
    """What one burst did to the engine's state.

    ``applied`` counts updates that changed the overlay; ``ignored``
    counts no-ops (withdraw of an absent prefix, re-announce of an
    already-present origin).  ``changed`` holds the new rows of leaves
    whose inference actually moved — the delta the serve layer patches
    into its index.
    """

    applied: int
    ignored: int
    changed_prefixes: Tuple[Prefix, ...]
    dirty_roots: Tuple[Prefix, ...]
    reclassified: int
    changed: Tuple[LeafInference, ...]


class IncrementalEngine:
    """Burst-at-a-time reclassification over a mutable RIB overlay.

    Built from a run's :class:`AnalysisContext`, whose RIB snapshot
    seeds the overlay and whose leaf records are reclassified.
    Construction runs one full classification — the same
    :meth:`LeafClassifier.infer` step as ``pipeline.run()`` — and
    indexes every leaf by its exact prefix and by its root prefix; each
    :meth:`apply` then touches only the dirty subset.
    """

    def __init__(
        self,
        context: AnalysisContext,
        use_covering_root_lookup: bool = True,
    ) -> None:
        self._context = context
        self._use_covering = use_covering_root_lookup
        self._overlay = MutableRibOverlay(context.rib)
        self._classifiers: Dict[RIR, LeafClassifier] = {}
        self._rows: Dict[RIR, List[LeafInference]] = {}
        self._by_exact: Dict[Prefix, List[_LeafSlot]] = {}
        self._root_slots: "PrefixTrie[List[_LeafSlot]]" = PrefixTrie()
        self._root_resolution: Dict[Prefix, FrozenSet[int]] = {}
        for rir in context.rirs:
            classifier = LeafClassifier(
                context, rir, use_covering_root_lookup, rib=self._overlay
            )
            rows: List[LeafInference] = []
            for position, leaf in enumerate(context.leaves(rir)):
                row = classifier.infer(leaf)
                rows.append(row)
                slot: _LeafSlot = (rir, position)
                self._by_exact.setdefault(leaf.prefix, []).append(slot)
                if leaf.root_prefix is not None:
                    slots = self._root_slots.exact(leaf.root_prefix)
                    if slots is None:
                        self._root_slots.insert(leaf.root_prefix, [slot])
                    else:
                        slots.append(slot)
                    self._root_resolution[leaf.root_prefix] = row.root_origins
            self._classifiers[rir] = classifier
            self._rows[rir] = rows

    @property
    def rib(self) -> MutableRibOverlay:
        """The live overlay (the state all current rows reflect)."""
        return self._overlay

    def apply(
        self, updates: Iterable[Union[Update, SequencedUpdate]]
    ) -> BurstReport:
        """Apply one burst and reclassify exactly the dirty leaves."""
        applied = 0
        ignored = 0
        changed_prefixes: Set[Prefix] = set()
        for item in updates:
            update = item.update if isinstance(item, SequencedUpdate) else item
            if isinstance(update, AnnounceUpdate):
                changed = self._overlay.announce(update.prefix, update.origin)
            else:
                changed = self._overlay.withdraw(update.prefix)
            if changed:
                applied += 1
                changed_prefixes.add(update.prefix)
            else:
                ignored += 1

        dirty: Set[_LeafSlot] = set()
        dirty_roots: Set[Prefix] = set()
        for prefix in changed_prefixes:
            dirty.update(self._by_exact.get(prefix, ()))
            # A changed entry at ``prefix`` can only move the covering
            # resolution of roots at or below it.
            for root_prefix, slots in self._root_slots.covered(prefix):
                if root_prefix in dirty_roots:
                    continue
                resolved = self._resolve_root(root_prefix)
                if resolved != self._root_resolution[root_prefix]:
                    self._root_resolution[root_prefix] = resolved
                    dirty_roots.add(root_prefix)
                    dirty.update(slots)

        for root_prefix in dirty_roots:
            for classifier in self._classifiers.values():
                classifier.invalidate_root(root_prefix)

        changed_rows: List[LeafInference] = []
        for rir, position in sorted(
            dirty, key=lambda slot: (slot[0].name, slot[1])
        ):
            leaf = self._context.leaves(rir)[position]
            row = self._classifiers[rir].infer(leaf)
            if row != self._rows[rir][position]:
                self._rows[rir][position] = row
                changed_rows.append(row)
        return BurstReport(
            applied=applied,
            ignored=ignored,
            changed_prefixes=tuple(sorted(changed_prefixes)),
            dirty_roots=tuple(sorted(dirty_roots)),
            reclassified=len(dirty),
            changed=tuple(changed_rows),
        )

    def _resolve_root(self, root_prefix: Prefix) -> FrozenSet[int]:
        if self._use_covering:
            return self._overlay.covering_origins(root_prefix)
        return self._overlay.exact_origins(root_prefix)

    def result(self) -> InferenceResult:
        """The full current inference (same row order as the pipeline)."""
        return InferenceResult.from_inferences(
            row for rir in self._context.rirs for row in self._rows[rir]
        )

    def digest(self) -> str:
        """Content digest of the current rows (for bit-identical checks)."""
        return result_digest(self.result())

    def cache_stats(self) -> CacheStats:
        """Merged memo counters across the per-region classifiers."""
        merged = CacheStats()
        for rir in self._context.rirs:
            merged.merge(self._classifiers[rir].stats())
        return merged


def clone_routing_table(table: RoutingTable) -> RoutingTable:
    """An independent copy of *table* (same routes, separate state).

    The differential harness mutates the copy in lockstep with the
    engine's overlay while the original stays frozen under the baseline
    context.
    """
    clone = RoutingTable()
    for prefix, origins in table.items():
        for origin in sorted(origins):
            clone.add_route(prefix, origin)
    return clone


def replay_into_table(
    table: RoutingTable,
    updates: Iterable[Union[Update, SequencedUpdate]],
) -> RoutingTable:
    """Apply a burst to a live routing table with overlay semantics.

    The differential harness keeps a :class:`RoutingTable` in lockstep
    with the engine's overlay, rebuilding from scratch to compare:
    announce adds the origin's route, withdraw evicts the prefix wholly
    (exactly :meth:`RoutingTable.withdraw`).
    """
    for item in updates:
        update = item.update if isinstance(item, SequencedUpdate) else item
        if isinstance(update, AnnounceUpdate):
            table.add_route(update.prefix, update.origin)
        else:
            table.withdraw(update.prefix)
    return table


def result_digest(result: InferenceResult) -> str:
    """Order-insensitive sha256 over every inference's decision surface.

    Two results digest equal exactly when every leaf carries the same
    category and origin evidence — the bit-identical contract the
    incremental path is held to.
    """
    rows = sorted(
        (
            inference.rir.name,
            str(inference.prefix),
            inference.category.name,
            tuple(sorted(inference.leaf_origins)),
            tuple(sorted(inference.root_origins)),
            tuple(sorted(inference.root_assigned_asns)),
        )
        for inference in result
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
