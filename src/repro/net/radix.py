"""A map from IPv4 prefixes to values, with covering lookups.

Supports the lookups the paper's inference needs:

* exact match (leaf-node BGP origins, §5.1 step 4),
* least-specific covering prefix (root-node fallback, §5.1 step 4),
* longest-prefix match (general routing-table semantics),
* enumeration of stored roots / leaves (allocation tree, §5.1 step 2).

:class:`PrefixTrie` maps each stored :class:`~repro.net.ipaddr.Prefix`
to an arbitrary value; inserting the same prefix twice replaces the
value.  It and the flat sorted-array helpers below share one key
packing, ``network << 8 | length``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .ipaddr import MAX_IPV4, Prefix

__all__ = [
    "PrefixTrie",
    "flat_covered_range",
    "flat_covering_index",
    "flat_exact_index",
    "flat_longest_match_index",
    "pack_prefix",
    "resolve_covering_chain",
    "unpack_prefix",
]

V = TypeVar("V")

#: ``_MASKS[L]`` is the 32-bit netmask of a /L prefix.
_MASKS = tuple((MAX_IPV4 << (32 - length)) & MAX_IPV4 for length in range(33))


def _subtree_end(key: int) -> int:
    """The first packed key past *key*'s subtree (see ``flat_covered_range``)."""
    return ((key >> 8) + (1 << (32 - (key & _KEY_LENGTH_MASK)))) << 8


class PrefixTrie(Generic[V]):
    """Mutable mapping from IPv4 prefixes to values with covering lookups.

    Entries live in one dict keyed by the packed prefix (``network << 8 |
    length``, see :func:`pack_prefix`); a sorted list of the stored
    lengths turns every covering lookup into one dict probe per length:
    CIDR prefixes nest or are disjoint, so each cover of ``p`` is its
    truncation to some stored length.  Ordered views read a sorted key
    list, built on first use and dropped by any insert of a new prefix
    or removal.  Packed-key order is ``Prefix`` order, in which every
    prefix precedes its more-specifics (a pre-order of the prefix tree).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Prefix, V]] = {}
        #: Ascending stored lengths, and how many entries have each.
        self._lengths: List[int] = []
        self._length_counts = [0] * 33
        self._sorted_keys: Optional[List[int]] = None

    # -- mutation ----------------------------------------------------------
    def insert(self, prefix: Prefix, value: V) -> None:
        """Store *value* under *prefix*, replacing any previous value."""
        length = prefix.length
        key = (prefix.network << 8) | length
        entries = self._entries
        if key not in entries:
            self._sorted_keys = None
            self._length_counts[length] += 1
            if self._length_counts[length] == 1:
                insort(self._lengths, length)
        entries[key] = (prefix, value)

    def remove(self, prefix: Prefix) -> bool:
        """Delete *prefix*; returns False when it was not stored.

        Removal leaves no trace: a removed interior entry drops out of
        ``covering``/``longest_match`` chains while its stored
        descendants stay reachable, and a length whose last entry goes
        leaves the probe list, so repeated insert/remove cycles — a
        hot-reload diffing snapshots — return the map to its old size.
        """
        length = prefix.length
        if self._entries.pop((prefix.network << 8) | length, None) is None:
            return False
        self._sorted_keys = None
        self._length_counts[length] -= 1
        if not self._length_counts[length]:
            self._lengths.remove(length)
        return True

    # -- basic queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix) -> bool:
        return ((prefix.network << 8) | prefix.length) in self._entries

    def exact(self, prefix: Prefix) -> Optional[V]:
        """The value stored at exactly *prefix*, or None."""
        entry = self._entries.get((prefix.network << 8) | prefix.length)
        return None if entry is None else entry[1]

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Dict-style exact lookup with a default."""
        entry = self._entries.get((prefix.network << 8) | prefix.length)
        return default if entry is None else entry[1]

    # -- covering lookups ------------------------------------------------------
    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """All stored prefixes covering *prefix*, least-specific first.

        A stored prefix equal to *prefix* is included.
        """
        network, entries = prefix.network, self._entries
        found: List[Tuple[Prefix, V]] = []
        for length in self._lengths:
            if length > prefix.length:
                break
            entry = entries.get(((network & _MASKS[length]) << 8) | length)
            if entry is not None:
                found.append(entry)
        return found

    def _probe_down(
        self, prefix: Prefix, below: int
    ) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored cover of *prefix* shorter than *below*."""
        network, entries = prefix.network, self._entries
        for length in reversed(self._lengths):
            if length < below:
                entry = entries.get(((network & _MASKS[length]) << 8) | length)
                if entry is not None:
                    return entry
        return None

    def longest_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored prefix covering *prefix*, or None."""
        return self._probe_down(prefix, prefix.length + 1)

    def least_specific_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The least-specific stored prefix covering *prefix*, or None.

        This is the lookup the paper applies to root nodes whose exact
        prefix is absent from BGP: "search for its least-specific covering
        prefix and origin AS" (§5.1 step 4).
        """
        network, entries = prefix.network, self._entries
        for length in self._lengths:
            if length > prefix.length:
                break
            entry = entries.get(((network & _MASKS[length]) << 8) | length)
            if entry is not None:
                return entry
        return None

    def parent(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored *strict* ancestor of *prefix*, or None."""
        return self._probe_down(prefix, prefix.length)

    # -- ordered views --------------------------------------------------------
    def _keys(self) -> List[int]:
        """Every stored packed key, ascending (cached until a mutation)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._entries)
        return self._sorted_keys

    def _tops(self, keys: Sequence[int]) -> List[Tuple[Prefix, V]]:
        """Entries among ascending *keys* not inside an earlier one."""
        entries = self._entries
        result: List[Tuple[Prefix, V]] = []
        end = -1
        for key in keys:
            if key >= end:
                result.append(entries[key])
                end = _subtree_end(key)
        return result

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Iterate stored prefixes equal to or more specific than *prefix*."""
        keys = self._keys()
        start, stop = flat_covered_range(keys, prefix)
        entries = self._entries
        for key in keys[start:stop]:
            yield entries[key]

    def children_of(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """Direct stored descendants of *prefix* (no stored prefix between)."""
        keys = self._keys()
        start, stop = flat_covered_range(keys, prefix)
        if start < stop and keys[start] == pack_prefix(prefix):
            start += 1
        return self._tops(keys[start:stop])

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all stored ``(prefix, value)`` pairs in ``Prefix`` order."""
        entries = self._entries
        for key in self._keys():
            yield entries[key]

    def keys(self) -> Iterator[Prefix]:
        """Iterate all stored prefixes in ``Prefix`` order."""
        for prefix, _value in self.items():
            yield prefix

    # -- structural roles (allocation tree) ----------------------------------
    def roots(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict ancestor."""
        return self._tops(self._keys())

    def leaves(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict descendant.

        A prefix's descendants directly follow it in key order, so it is
        a leaf exactly when the next key lies outside its subtree.
        """
        keys, entries = self._keys(), self._entries
        result: List[Tuple[Prefix, V]] = []
        for index, key in enumerate(keys, 1):
            if index == len(keys) or keys[index] >= _subtree_end(key):
                result.append(entries[key])
        return result

    # -- conversion ---------------------------------------------------------
    def to_dict(self) -> Dict[Prefix, V]:
        """Materialize the map as a plain dict."""
        return dict(self.items())

    @classmethod
    def from_items(cls, items) -> "PrefixTrie[V]":
        """Build a trie from an iterable of ``(prefix, value)`` pairs."""
        trie: PrefixTrie[V] = cls()
        for prefix, value in items:
            trie.insert(prefix, value)
        return trie


# -- flat sorted-array lookups ---------------------------------------------
#
# A prefix set can be frozen into one sorted array of packed uint64 keys
# (``network << 8 | length``) — the packing preserves ``Prefix`` order
# (network first, then length), so binary search finds any key and the
# array can live in shared memory as raw bytes.  These helpers run over
# any sorted integer sequence: a list, an ``array('Q')``, or a
# ``memoryview`` cast over a ``multiprocessing.shared_memory`` buffer.

#: Keys are 40-bit (32-bit network + 8-bit length) stored as uint64.
_KEY_LENGTH_MASK = 0xFF


def pack_prefix(prefix: Prefix) -> int:
    """*prefix* as a sortable integer key: ``network << 8 | length``."""
    return (prefix.network << 8) | prefix.length


def unpack_prefix(key: int) -> Prefix:
    """The :class:`Prefix` a packed key encodes."""
    return Prefix(key >> 8, key & _KEY_LENGTH_MASK)


def flat_exact_index(keys: Sequence[int], prefix: Prefix) -> Optional[int]:
    """Index of exactly *prefix* in the sorted key array, or None."""
    packed = pack_prefix(prefix)
    index = bisect_left(keys, packed)
    if index < len(keys) and keys[index] == packed:
        return index
    return None


def flat_covered_range(keys: Sequence[int], prefix: Prefix) -> Tuple[int, int]:
    """The contiguous slice of keys equal to or more specific than *prefix*.

    CIDR alignment makes the subtree contiguous in packed order: every
    prefix inside *prefix* has a network address in
    ``[prefix.network, prefix.last_address]`` and sorts at or after the
    packed *prefix* itself (shorter covering prefixes share the network
    address but sort strictly before it).  Returns ``(start, stop)``
    with ``start == stop`` when nothing is covered.
    """
    start = bisect_left(keys, pack_prefix(prefix))
    stop = bisect_left(keys, (prefix.last_address + 1) << 8)
    return start, stop


def flat_covering_index(
    keys: Sequence[int], lengths: Sequence[int], prefix: Prefix
) -> Optional[int]:
    """Index of the least-specific stored prefix covering *prefix*.

    *lengths* is the ascending set of lengths present in *keys* — the
    same truncation-probe trick as :meth:`RibSnapshot.covering_origins`:
    every cover of *prefix* is ``prefix.supernet(L)``, so probing each
    advertised length ascending finds the least-specific cover first.
    """
    for length in lengths:
        if length > prefix.length:
            break
        index = flat_exact_index(keys, prefix.supernet(length))
        if index is not None:
            return index
    return None


def flat_longest_match_index(
    keys: Sequence[int], lengths: Sequence[int], prefix: Prefix
) -> Optional[int]:
    """Index of the most-specific stored prefix covering *prefix* (LPM)."""
    for position in range(len(lengths) - 1, -1, -1):
        length = lengths[position]
        if length > prefix.length:
            continue
        index = flat_exact_index(keys, prefix.supernet(length))
        if index is not None:
            return index
    return None


def resolve_covering_chain(
    trie: PrefixTrie[V], prefix: Prefix
) -> Tuple[Optional[Tuple[Prefix, V]], List[Tuple[Prefix, V]]]:
    """Resolve *prefix* against *trie* as ``(best, chain)``.

    ``chain`` holds every stored entry covering *prefix*, least-specific
    first — the registry-style covering chain; ``best`` is its final,
    most-specific element (the longest-prefix match), or ``None`` when
    nothing covers the query.  The RFC 3912 WHOIS server and the lease
    lookup service share this helper so both resolve queries through
    identical semantics.
    """
    chain = trie.covering(prefix)
    best = chain[-1] if chain else None
    return best, chain
