"""Incremental reclassification over a mutable RIB overlay.

The frozen-snapshot engines rebuild everything per run; this module is
the streaming path between collector dumps.  A burst of announce/
withdraw updates lands on :class:`MutableRibOverlay` — a mutable copy
of the prefix map in the run's :class:`~repro.core.context.RibSnapshot`,
answering with the same covering rule — and :class:`IncrementalEngine`
reclassifies **only** the leaves whose §5.1 lookups could have changed:

* a leaf's own origins come from the exact index at its prefix, so a
  changed prefix dirties exactly the leaves keyed by it — one bisection
  over every registry's leaf prefixes, sorted together, finds them;
* a root's origins come from the exact index at the root or one of its
  supernets (the covering walk), so a changed prefix ``p`` can only
  move roots **at or below** ``p`` — a trie of root prefixes answers
  ``covered(p)`` with each root's runs of leaves, and each candidate is
  recomputed, dirtying its leaves only when the resolved origin set
  actually differs.

The engine starts from the base snapshot and classifies nothing up
front: until a burst moves a leaf, its row is the one a classifier over
the unmutated ``context.rib`` gives, and the engine holds only the rows
and root resolutions that bursts moved.  After every burst the rows are
bit-identical to a from-scratch ``pipeline.run()`` on the mutated
table — the differential test harness proves it.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..bgp.history import AnnounceUpdate, Update
from ..bgp.rib import OriginSets, RoutingTable, covering_lookup
from ..bgp.updates import SequencedUpdate
from ..net import Prefix, PrefixTrie
from ..net.radix import pack_prefix
from .context import AnalysisContext, RibSnapshot
from .classify import CacheStats, LeafClassifier, OriginLookups
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

#: Bits of a packed leaf entry that hold the leaf's slot number.
_SLOT_BITS = 24
_SLOT_MASK = (1 << _SLOT_BITS) - 1


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
    Construction classifies nothing.  It numbers every leaf — registry
    by registry in name order, each in its scan order — and keeps two
    indexes over those slots: one sorted array of packed leaf prefixes
    and a trie from each root prefix to the slot ranges under it.
    :meth:`apply` classifies only the dirty leaves, each against its
    previous row: the one a burst stored, else the base snapshot's.
    """

    def __init__(
        self,
        context: AnalysisContext,
        use_covering_root_lookup: bool = True,
    ) -> None:
        self._context = context
        self._use_covering = use_covering_root_lookup
        self._overlay = MutableRibOverlay(context.rib)
        rirs = sorted(context.rirs, key=attrgetter("name"))
        self._live = tuple(
            LeafClassifier(
                context, rir, use_covering_root_lookup, rib=self._overlay
            )
            for rir in rirs
        )
        self._leaves = tuple(context.leaves(rir) for rir in rirs)
        #: ``_offsets[n]`` is the first slot of the n-th registry.
        self._offsets = tuple(
            accumulate((len(leaves) for leaves in self._leaves), initial=0)
        )
        if self._offsets[-1] >> _SLOT_BITS:
            raise ValueError(
                f"{self._offsets[-1]} leaves exceed the engine's "
                f"{_SLOT_BITS}-bit slot numbers"
            )
        leaves = list(chain.from_iterable(self._leaves))
        #: ``pack_prefix(leaf) << _SLOT_BITS | slot`` for every leaf,
        #: ascending: a prefix that is a leaf in several registries
        #: holds one entry per slot.
        self._entries = array(
            "Q",
            sorted(
                pack_prefix(leaf.prefix) << _SLOT_BITS | slot
                for slot, leaf in enumerate(leaves)
            ),
        )
        #: Each root prefix's runs of leaf slots.
        self._root_runs: "PrefixTrie[Tuple[range, ...]]" = PrefixTrie()
        start = 0
        for root_prefix, run in groupby(
            leaves, key=attrgetter("root_prefix")
        ):
            stop = start + sum(1 for _ in run)
            if root_prefix is not None:
                runs = self._root_runs.exact(root_prefix) or ()
                self._root_runs.insert(
                    root_prefix, runs + (range(start, stop),)
                )
            start = stop
        #: Rows that bursts moved off the base snapshot's, by slot.
        self._rows: Dict[int, LeafInference] = {}
        #: Root resolutions that bursts moved off the base snapshot's.
        self._root_resolution: Dict[Prefix, FrozenSet[int]] = {}

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

        dirty: Set[int] = set()
        dirty_roots: Set[Prefix] = set()
        entries = self._entries
        for prefix in changed_prefixes:
            key = pack_prefix(prefix)
            at = bisect_left(entries, key << _SLOT_BITS)
            while at < len(entries) and entries[at] >> _SLOT_BITS == key:
                dirty.add(entries[at] & _SLOT_MASK)
                at += 1
            # A changed entry at ``prefix`` can only move the covering
            # resolution of roots at or below it.
            for root_prefix, runs in self._root_runs.covered(prefix):
                if root_prefix in dirty_roots:
                    continue
                resolved = self._resolve_root(self._overlay, root_prefix)
                previous = self._root_resolution.get(root_prefix)
                if previous is None:
                    previous = self._resolve_root(
                        self._context.rib, root_prefix
                    )
                if resolved != previous:
                    self._root_resolution[root_prefix] = resolved
                    dirty_roots.add(root_prefix)
                    for run in runs:
                        dirty.update(run)

        for root_prefix in dirty_roots:
            for classifier in self._live:
                classifier.invalidate_root(root_prefix)

        # A leaf's category is a function of its two origin sets and of
        # its root organisation's assigned ASNs, which no burst moves; so
        # its row moved exactly when its origin pair did.
        changed_rows: List[LeafInference] = []
        for slot in sorted(dirty):
            number = bisect_right(self._offsets, slot) - 1
            leaf = self._leaves[number][slot - self._offsets[number]]
            verdict = self._live[number].verdict(leaf)
            row = self._rows.get(slot)
            if row is None:
                previous = (
                    self._context.rib.exact_origins(leaf.prefix),
                    self._resolve_root(self._context.rib, leaf.root_prefix),
                )
            else:
                previous = (row.leaf_origins, row.root_origins)
            if verdict[1:3] != previous:
                row = self._live[number].row(leaf, verdict)
                self._rows[slot] = row
                changed_rows.append(row)
        return BurstReport(
            applied=applied,
            ignored=ignored,
            changed_prefixes=tuple(sorted(changed_prefixes)),
            dirty_roots=tuple(sorted(dirty_roots)),
            reclassified=len(dirty),
            changed=tuple(changed_rows),
        )

    def _resolve_root(
        self, rib: OriginLookups, root_prefix: Optional[Prefix]
    ) -> FrozenSet[int]:
        if root_prefix is None:
            return _EMPTY
        if self._use_covering:
            return rib.covering_origins(root_prefix)
        return rib.exact_origins(root_prefix)

    def result(self) -> InferenceResult:
        """The full current inference (same row order as the pipeline).

        Rows no burst moved are classified here, over the base snapshot.
        """
        first_slot = dict(
            zip(sorted(self._context.rirs, key=attrgetter("name")),
                self._offsets)
        )
        rows: List[LeafInference] = []
        for rir in self._context.rirs:
            base = LeafClassifier(self._context, rir, self._use_covering)
            for slot, leaf in enumerate(
                self._context.leaves(rir), first_slot[rir]
            ):
                row = self._rows.get(slot)
                rows.append(base.infer(leaf) if row is None else row)
        return InferenceResult.from_inferences(rows)

    def digest(self) -> str:
        """Content digest of the current rows (for bit-identical checks)."""
        return result_digest(self.result())

    def cache_stats(self) -> CacheStats:
        """Merged memo counters across the per-region classifiers."""
        merged = CacheStats()
        for classifier in self._live:
            merged.merge(classifier.stats())
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
