"""Routing-table view over collected BGP data.

:class:`RoutingTable` is the merged, origin-centric view the inference
consumes: for every advertised prefix, the set of origin ASes observed
across all vantage points, with the two lookups of §5.1 step 4 — exact
match (leaf nodes) and least-specific covering prefix (root-node
fallback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..net import Prefix, PrefixTrie
from ..net.slots import slotted
from .aspath import ASPath

__all__ = ["OriginSets", "RibEntry", "RoutingTable"]

_EMPTY: FrozenSet[int] = frozenset()


@slotted
@dataclass(frozen=True)
class RibEntry:
    """One RIB row: a prefix as seen from one collector peer."""

    prefix: Prefix
    path: ASPath
    peer_asn: int
    peer_address: str = "0.0.0.0"
    timestamp: int = 0

    @property
    def origin(self) -> int:
        """The origin AS of this row."""
        return self.path.origin


class OriginSets(Dict[Union[int, FrozenSet[int]], FrozenSet[int]]):
    """An intern table of origin sets: one frozenset per distinct set.

    ``sets[origins]`` is the shared frozenset equal to the frozenset
    *origins*, and ``sets[asn]`` the shared ``frozenset({asn})``.  Most
    prefixes share their origin set with many others (one AS originates
    many prefixes), so a table that stores the interned object holds
    each set once.  Entries are never dropped: the table grows with the
    distinct origins and sets ever looked up, never per prefix.
    """

    __slots__ = ()

    def __missing__(self, key: Union[int, FrozenSet[int]]) -> FrozenSet[int]:
        value = self[frozenset((key,))] if isinstance(key, int) else key
        self[key] = value
        return value


class _ExactIndex(Mapping[Prefix, FrozenSet[int]]):
    """Read-only live ``Prefix → origins`` view over a table's trie."""

    __slots__ = ("_trie",)

    def __init__(self, trie: PrefixTrie[FrozenSet[int]]) -> None:
        self._trie = trie

    def __getitem__(self, prefix: Prefix) -> FrozenSet[int]:
        origins = self._trie.get(prefix)
        if origins is None:
            raise KeyError(prefix)
        return origins

    def __contains__(self, prefix: object) -> bool:
        return isinstance(prefix, Prefix) and prefix in self._trie

    def __iter__(self) -> Iterator[Prefix]:
        return self._trie.keys()

    def __len__(self) -> int:
        return len(self._trie)


class RoutingTable:
    """Prefix → origin-AS view with exact and covering lookups.

    Each advertised prefix is stored once, in a :class:`PrefixTrie`
    keyed by the packed prefix: one dict probe answers an exact lookup
    and one probe per stored length a covering one.  Its value is an
    immutable origin set from the table's :class:`OriginSets`, so
    prefixes with equal origins share one object, and lookups and
    :meth:`items` return it without copying.  The per-origin index
    behind :meth:`origins` and :meth:`prefixes_of_origin` is built on
    their first call and kept in step with later mutations.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[FrozenSet[int]] = PrefixTrie()
        self._interned = OriginSets()
        self._by_origin: Optional[Dict[int, Set[Prefix]]] = None
        self._entry_count = 0

    # -- construction ----------------------------------------------------
    @classmethod
    def from_entries(cls, entries: Iterable[RibEntry]) -> "RoutingTable":
        """Build a merged table from RIB rows (any number of peers)."""
        table = cls()
        for entry in entries:
            table.add_route(entry.prefix, entry.origin)
        return table

    def add_route(self, prefix: Prefix, origin: int) -> None:
        """Record that *origin* was seen originating *prefix*."""
        self._entry_count += 1
        current = self._trie.get(prefix)
        if current is None:
            self._trie.insert(prefix, self._interned[origin])
        elif origin in current:
            return
        else:
            self._trie.insert(prefix, self._interned[current | {origin}])
        if self._by_origin is not None:
            self._by_origin.setdefault(origin, set()).add(prefix)

    def merge(self, other: "RoutingTable") -> None:
        """Fold another table's routes into this one."""
        for prefix, origins in other.items():
            for origin in origins:
                self.add_route(prefix, origin)

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove every route for *prefix* (all origins).

        Returns True when the prefix was advertised.  This is the only
        supported way to retract a route — it keeps the prefix map and
        the per-origin index consistent.
        """
        origins = self._trie.get(prefix)
        if origins is None:
            return False
        self._trie.remove(prefix)
        if self._by_origin is not None:
            for origin in origins:
                prefixes = self._by_origin[origin]
                prefixes.discard(prefix)
                if not prefixes:
                    del self._by_origin[origin]
        self._entry_count = max(0, self._entry_count - len(origins))
        return True

    # -- §5.1 step 4 lookups ------------------------------------------------
    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent).

        This is the lookup applied to allocation-tree leaf nodes.
        """
        return self._trie.get(prefix, _EMPTY)

    def exact_index(self) -> Mapping[Prefix, FrozenSet[int]]:
        """Read-only live view of the prefix → origins map.

        A ``Mapping`` over the table's one prefix map, not a copy: it
        sees later mutations, and its values are the shared frozensets.
        """
        return _ExactIndex(self._trie)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins via exact match, else the least-specific covering prefix.

        This is the lookup applied to allocation-tree root nodes: "if an
        exact-matching prefix does not exist, we then search for its
        least-specific covering prefix and origin AS".
        """
        exact = self._trie.get(prefix)
        if exact:
            return exact
        hit = self._trie.least_specific_value(prefix)
        return _EMPTY if hit is None else hit

    def longest_match_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the most-specific covering prefix (data-plane view)."""
        hit = self._trie.longest_match_value(prefix)
        return _EMPTY if hit is None else hit

    def is_advertised(self, prefix: Prefix) -> bool:
        """True when the exact prefix appears in the table."""
        return bool(self._trie.get(prefix))

    def covered_prefixes(self, prefix: Prefix) -> List[Prefix]:
        """Advertised prefixes at or below *prefix* (exact included)."""
        return [covered for covered, _origins in self._trie.covered(prefix)]

    # -- enumeration ------------------------------------------------------
    def prefixes(self) -> Iterator[Prefix]:
        """All advertised prefixes."""
        yield from self._trie.keys()

    def _origin_index(self) -> Dict[int, Set[Prefix]]:
        """Origin → prefixes, built on first use."""
        if self._by_origin is None:
            index: Dict[int, Set[Prefix]] = {}
            for prefix, origins in self._trie.items():
                for origin in origins:
                    index.setdefault(origin, set()).add(prefix)
            self._by_origin = index
        return self._by_origin

    def prefixes_of_origin(self, origin: int) -> Set[Prefix]:
        """Prefixes *origin* currently originates (copy)."""
        return set(self._origin_index().get(origin, ()))

    def origins(self) -> Set[int]:
        """All origin ASes in the table."""
        return set(self._origin_index())

    def items(self) -> Iterator[Tuple[Prefix, FrozenSet[int]]]:
        """Iterate ``(prefix, origins)`` pairs in ``Prefix`` order."""
        return self._trie.items()

    def packed_items(self) -> Iterator[Tuple[int, FrozenSet[int]]]:
        """Iterate ``(packed prefix, origins)`` pairs in ``Prefix`` order.

        The key is :func:`~repro.net.radix.pack_prefix` of the prefix,
        read straight from the trie with no ``Prefix`` built.
        """
        return self._trie.packed_items()

    def prefix_lengths(self) -> Tuple[int, ...]:
        """The distinct announced prefix lengths, ascending."""
        return self._trie.lengths()

    def moas_prefixes(self) -> List[Tuple[Prefix, FrozenSet[int]]]:
        """Prefixes with multiple origin ASes (MOAS conflicts)."""
        return [
            (prefix, origins)
            for prefix, origins in self.items()
            if len(origins) > 1
        ]

    def num_prefixes(self) -> int:
        """Number of distinct advertised prefixes."""
        return len(self._trie)

    def total_address_space(self) -> int:
        """Distinct routed address count (covering-prefix deduplicated).

        Counts each address once even when covered by several prefixes,
        matching the paper's "0.9% of routed v4 address space" metric.
        """
        total = 0
        for prefix, _origins in self._trie.roots():
            total += prefix.num_addresses
        return total

    def __len__(self) -> int:
        return self._entry_count

    def __contains__(self, prefix: Prefix) -> bool:
        return self.is_advertised(prefix)


def merge_tables(tables: Iterable[RoutingTable]) -> RoutingTable:
    """Merge many per-collector tables into one global view."""
    merged = RoutingTable()
    for table in tables:
        merged.merge(table)
    return merged
