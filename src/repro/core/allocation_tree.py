"""Address allocation trees (§5.1 step 2).

For one registry, every IANA-allocated (non-legacy) address block is
converted from range notation to CIDR prefixes and inserted into a prefix
tree.  Root nodes are portable prefixes directly allocated by the RIR;
leaf nodes are non-portable sub-allocations/assignments — the units the
paper classifies.  Hyper-specific prefixes (longer than /24) are removed
first, and intermediate nodes are kept but not classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..net import Prefix, PrefixTrie
from ..whois.database import WhoisDatabase
from ..whois.objects import InetnumRecord
from ..whois.statuses import Portability, classify_status

__all__ = [
    "DEFAULT_MAX_LEAF_LENGTH",
    "TreeLeaf",
    "AllocationTree",
    "AllocationScan",
]

#: §5.1: "We remove all hyper-specific prefixes longer than /24".
DEFAULT_MAX_LEAF_LENGTH = 24


@dataclass(frozen=True)
class TreeLeaf:
    """One leaf node with its covering root.

    ``root_prefix``/``root_record`` are None for orphan leaves — blocks
    with no registered covering allocation (rare in practice, possible in
    partial databases).
    """

    prefix: Prefix
    record: InetnumRecord
    root_prefix: Optional[Prefix]
    root_record: Optional[InetnumRecord]

    @property
    def has_root(self) -> bool:
        """True when a distinct covering root exists."""
        return self.root_prefix is not None


class AllocationTree:
    """The per-registry prefix tree with root/leaf roles resolved."""

    def __init__(
        self,
        database: WhoisDatabase,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
    ) -> None:
        self.database = database
        self.max_leaf_length = max_leaf_length
        self._trie: PrefixTrie[InetnumRecord] = PrefixTrie()
        self.hyper_specific_dropped = 0
        self.legacy_dropped = 0
        self._build()

    def _build(self) -> None:
        for record in self.database.inetnums:
            if record.is_legacy:
                self.legacy_dropped += 1
                continue
            for prefix in record.range.to_prefixes():
                if prefix.length > self.max_leaf_length:
                    self.hyper_specific_dropped += 1
                    continue
                # First-registered record wins on duplicate prefixes;
                # RIR databases occasionally carry stale duplicates.
                if self._trie.exact(prefix) is None:
                    self._trie.insert(prefix, record)

    # -- roles ------------------------------------------------------------
    def roots(self) -> List[Tuple[Prefix, InetnumRecord]]:
        """Prefixes with no registered covering prefix.

        In a well-formed registry these carry portable statuses; the
        pipeline treats whatever tops the tree as the root regardless, as
        the paper's tree construction does.
        """
        return self._trie.roots()

    def portable_roots(self) -> List[Tuple[Prefix, InetnumRecord]]:
        """Roots whose status is portable (§2.1 category 1)."""
        return [
            (prefix, record)
            for prefix, record in self.roots()
            if record.portability is Portability.PORTABLE
        ]

    def leaves(self) -> List[TreeLeaf]:
        """All tree leaves, each paired with its least-specific root."""
        result: List[TreeLeaf] = []
        for prefix, record in self._trie.leaves():
            root = self._trie.least_specific_match(prefix)
            if root is None or root[0] == prefix:
                result.append(
                    TreeLeaf(
                        prefix=prefix,
                        record=record,
                        root_prefix=None,
                        root_record=None,
                    )
                )
            else:
                result.append(
                    TreeLeaf(
                        prefix=prefix,
                        record=record,
                        root_prefix=root[0],
                        root_record=root[1],
                    )
                )
        return result

    def classifiable_leaves(self) -> List[TreeLeaf]:
        """Leaves the paper classifies: non-portable, under a root.

        Portable leaves are whole unsubdivided allocations — they have no
        address provider, so the leasing definition does not apply.
        """
        return [
            leaf
            for leaf in self.leaves()
            if leaf.has_root
            and leaf.record.portability is Portability.NON_PORTABLE
        ]

    # -- queries ------------------------------------------------------------
    def record_at(self, prefix: Prefix) -> Optional[InetnumRecord]:
        """The record stored exactly at *prefix*, or None."""
        return self._trie.exact(prefix)

    def chain(self, prefix: Prefix) -> List[Tuple[Prefix, InetnumRecord]]:
        """The covering chain at *prefix*, least-specific first."""
        return self._trie.covering(prefix)

    def __len__(self) -> int:
        return len(self._trie)

    def __iter__(self) -> Iterator[Tuple[Prefix, InetnumRecord]]:
        return self._trie.items()


class AllocationScan:
    """Sort-based root/leaf resolution, equivalent to :class:`AllocationTree`.

    Registry prefixes are nested-or-disjoint, so one pass over the
    deduplicated prefixes in ``(network, length)`` order resolves every
    role with an enclosing-interval stack: a node is a leaf iff the next
    node in sort order starts past its last address, and its root is the
    bottom of the stack of enclosing prefixes.  This produces the exact
    leaf list (same order, same roots) as the prefix map in
    :class:`AllocationTree` without paying one map insert plus one
    covering lookup per prefix — the dominant cost of a census-scale run.

    Only role resolution lives here; point queries (``record_at``,
    ``chain``) stay on :class:`AllocationTree`.
    """

    def __init__(
        self,
        database: WhoisDatabase,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
    ) -> None:
        self.database = database
        self.max_leaf_length = max_leaf_length
        self.hyper_specific_dropped = 0
        self.legacy_dropped = 0
        self.root_count = 0
        self._leaves: List[TreeLeaf] = []
        self._classifiable: List[TreeLeaf] = []
        self._node_count = 0
        self._build()

    def _build(self) -> None:
        rir = self.database.rir
        nodes: List[Tuple[Prefix, InetnumRecord, Portability]] = []
        seen = set()
        for record in self.database.inetnums:
            portability = classify_status(rir, record.status)
            if portability is Portability.LEGACY:
                self.legacy_dropped += 1
                continue
            for prefix in record.range.to_prefixes():
                if prefix.length > self.max_leaf_length:
                    self.hyper_specific_dropped += 1
                    continue
                # First-registered record wins on duplicate prefixes,
                # matching AllocationTree's insert-if-absent.
                if prefix in seen:
                    continue
                seen.add(prefix)
                nodes.append((prefix, record, portability))
        nodes.sort(key=lambda node: (node[0].network, node[0].length))
        self._node_count = len(nodes)
        total = len(nodes)
        # Stack of enclosing prefixes as (last_address, prefix, record);
        # the bottom entry is the least-specific cover, i.e. the root.
        stack: List[Tuple[int, Prefix, InetnumRecord]] = []
        for index, (prefix, record, portability) in enumerate(nodes):
            network = prefix.network
            last = network | ((1 << (32 - prefix.length)) - 1)
            while stack and network > stack[-1][0]:
                stack.pop()
            if stack:
                root_prefix: Optional[Prefix] = stack[0][1]
                root_record: Optional[InetnumRecord] = stack[0][2]
            else:
                self.root_count += 1
                root_prefix = None
                root_record = None
            is_leaf = (
                index + 1 >= total or nodes[index + 1][0].network > last
            )
            if is_leaf:
                leaf = TreeLeaf(
                    prefix=prefix,
                    record=record,
                    root_prefix=root_prefix,
                    root_record=root_record,
                )
                self._leaves.append(leaf)
                if (
                    root_prefix is not None
                    and portability is Portability.NON_PORTABLE
                ):
                    self._classifiable.append(leaf)
            stack.append((last, prefix, record))

    def leaves(self) -> List[TreeLeaf]:
        """All leaves with their least-specific roots (copy)."""
        return list(self._leaves)

    def classifiable_leaves(self) -> List[TreeLeaf]:
        """Non-portable leaves under a root — the classification input."""
        return list(self._classifiable)

    def stats(self) -> Dict[str, int]:
        """The per-region counters :meth:`AllocationTree` exposes."""
        return {
            "nodes": self._node_count,
            "roots": self.root_count,
            "leaves": len(self._leaves),
            "classifiable": len(self._classifiable),
            "hyper_specific_dropped": self.hyper_specific_dropped,
            "legacy_dropped": self.legacy_dropped,
        }

    def __len__(self) -> int:
        return self._node_count
