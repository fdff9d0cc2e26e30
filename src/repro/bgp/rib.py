"""Routing-table view over collected BGP data.

:class:`RoutingTable` is the merged, origin-centric view the inference
consumes: for every advertised prefix, the set of origin ASes observed
across all vantage points, with the two lookups of §5.1 step 4 — exact
match (leaf nodes) and least-specific covering prefix (root-node
fallback).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..net import Prefix, PrefixTrie
from .aspath import ASPath

__all__ = ["RibEntry", "RoutingTable"]


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


class RoutingTable:
    """Prefix → origin-AS view with exact and covering lookups."""

    def __init__(self) -> None:
        self._trie: PrefixTrie[Set[int]] = PrefixTrie()
        # Prefix-keyed index over the same origin sets the prefix map
        # stores: ``exact_index`` hands it out read-only, and exact-match
        # lookups (one per allocation-tree leaf) read it directly.
        self._exact: Dict[Prefix, Set[int]] = {}
        self._origin_prefixes: Dict[int, Set[Prefix]] = defaultdict(set)
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
        origins = self._exact.get(prefix)
        if origins is None:
            origins = set()
            self._trie.insert(prefix, origins)
            self._exact[prefix] = origins
        origins.add(origin)
        self._origin_prefixes[origin].add(prefix)
        self._entry_count += 1

    def merge(self, other: "RoutingTable") -> None:
        """Fold another table's routes into this one."""
        for prefix, origins in other._trie.items():
            for origin in origins:
                self.add_route(prefix, origin)

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove every route for *prefix* (all origins, all indexes).

        Returns True when the prefix was advertised.  This is the only
        supported way to retract a route — it keeps the trie, the exact
        index, and the per-origin sets consistent.
        """
        origins = self._exact.pop(prefix, None)
        if origins is None:
            return False
        self._trie.remove(prefix)
        for origin in origins:
            prefixes = self._origin_prefixes.get(origin)
            if prefixes is not None:
                prefixes.discard(prefix)
                if not prefixes:
                    del self._origin_prefixes[origin]
        self._entry_count = max(0, self._entry_count - len(origins))
        return True

    # -- §5.1 step 4 lookups ------------------------------------------------
    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent).

        This is the lookup applied to allocation-tree leaf nodes.
        """
        origins = self._exact.get(prefix)
        return frozenset(origins) if origins else frozenset()

    def exact_index(self) -> Mapping[Prefix, AbstractSet[int]]:
        """Read-only live view of the exact prefix → origins index.

        Hot paths (the sharded classifier) use this to resolve leaf
        origins with one dict probe, without a frozenset copy per call.
        """
        return MappingProxyType(self._exact)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins via exact match, else the least-specific covering prefix.

        This is the lookup applied to allocation-tree root nodes: "if an
        exact-matching prefix does not exist, we then search for its
        least-specific covering prefix and origin AS".
        """
        exact = self._exact.get(prefix)
        if exact:
            return frozenset(exact)
        hit = self._trie.least_specific_match(prefix)
        return frozenset(hit[1]) if hit else frozenset()

    def longest_match_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the most-specific covering prefix (data-plane view)."""
        hit = self._trie.longest_match(prefix)
        return frozenset(hit[1]) if hit else frozenset()

    def is_advertised(self, prefix: Prefix) -> bool:
        """True when the exact prefix appears in the table."""
        return bool(self._exact.get(prefix))

    def covered_prefixes(self, prefix: Prefix) -> List[Prefix]:
        """Advertised prefixes at or below *prefix* (exact included)."""
        return [covered for covered, _origins in self._trie.covered(prefix)]

    # -- enumeration ------------------------------------------------------
    def prefixes(self) -> Iterator[Prefix]:
        """All advertised prefixes."""
        yield from self._trie.keys()

    def prefixes_of_origin(self, origin: int) -> Set[Prefix]:
        """Prefixes ever originated by *origin* (copy)."""
        return set(self._origin_prefixes.get(origin, ()))

    def origins(self) -> Set[int]:
        """All origin ASes in the table."""
        return set(self._origin_prefixes)

    def items(self) -> Iterator[Tuple[Prefix, FrozenSet[int]]]:
        """Iterate ``(prefix, origins)`` pairs."""
        for prefix, origins in self._trie.items():
            yield prefix, frozenset(origins)

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
