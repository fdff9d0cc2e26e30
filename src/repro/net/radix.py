"""A map from IPv4 prefixes to values, with covering lookups.

Supports the lookups the paper's inference needs:

* exact match (leaf-node BGP origins, §5.1 step 4),
* least-specific covering prefix (root-node fallback, §5.1 step 4),
* longest-prefix match (general routing-table semantics),
* enumeration of stored roots / leaves (allocation tree, §5.1 step 2).

:class:`PrefixTrie` maps each stored :class:`~repro.net.ipaddr.Prefix`
to an arbitrary value; inserting the same prefix twice replaces the
value.  The key is the prefix packed as ``network << 8 | length``: the
trie stores the value alone under it and rebuilds a ``Prefix`` only for
the views that return one.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (
    Any,
    Dict,
    Generic,
    Iterable,
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
    "pack_prefix",
    "resolve_covering_chain",
    "unpack_prefix",
]

V = TypeVar("V")

#: A dict-probe miss (a stored value may itself be None).
_MISSING: Any = object()

#: ``_MASKS[L]`` is the 32-bit netmask of a /L prefix.
_MASKS = tuple((MAX_IPV4 << (32 - length)) & MAX_IPV4 for length in range(33))


def _subtree_end(key: int) -> int:
    """The first packed key past *key*'s subtree (see ``flat_covered_range``)."""
    return ((key >> 8) + (1 << (32 - (key & _KEY_LENGTH_MASK)))) << 8


class PrefixTrie(Generic[V]):
    """Mutable mapping from IPv4 prefixes to values with covering lookups.

    The key is the prefix: entries live in one dict from the packed
    prefix (``network << 8 | length``, see :func:`pack_prefix`) to the
    value alone, and views that return a prefix rebuild it from its key
    with :func:`unpack_prefix`.  The inserted ``Prefix`` object is not
    kept, so views return equal prefixes, not the same objects.  A
    sorted list of the stored lengths turns every covering lookup into
    one dict probe per length: CIDR prefixes nest or are disjoint, so
    each cover of ``p`` is its truncation to some stored length.
    Ordered views read a sorted key list, built on first use and dropped
    by any insert of a new prefix or removal.  Packed-key order is
    ``Prefix`` order, in which every prefix precedes its more-specifics
    (a pre-order of the prefix tree).  :meth:`copy` shares the tables
    until either side mutates.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, V] = {}
        #: Ascending stored lengths, and how many entries have each.
        self._lengths: List[int] = []
        self._length_counts = [0] * 33
        self._sorted_keys: Optional[List[int]] = None
        #: True while the three tables above may be another trie's too.
        self._shared = False

    # -- mutation ----------------------------------------------------------
    def _own(self) -> None:
        """Take private copies of tables a :meth:`copy` shares."""
        self._entries = dict(self._entries)
        self._lengths = list(self._lengths)
        self._length_counts = list(self._length_counts)
        self._shared = False

    def insert(self, prefix: Prefix, value: V) -> None:
        """Store *value* under *prefix*, replacing any previous value."""
        if self._shared:
            self._own()
        length = prefix.length
        key = (prefix.network << 8) | length
        entries = self._entries
        if key not in entries:
            self._sorted_keys = None
            self._length_counts[length] += 1
            if self._length_counts[length] == 1:
                insort(self._lengths, length)
        entries[key] = value

    def remove(self, prefix: Prefix) -> bool:
        """Delete *prefix*; returns False when it was not stored.

        Removal leaves no trace: a removed interior entry drops out of
        ``covering``/``longest_match`` chains while its stored
        descendants stay reachable, and a length whose last entry goes
        leaves the probe list, so repeated insert/remove cycles — a
        hot-reload diffing snapshots — return the map to its old size.
        """
        length = prefix.length
        key = (prefix.network << 8) | length
        if key not in self._entries:
            return False
        if self._shared:
            self._own()
        del self._entries[key]
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
        return self._entries.get((prefix.network << 8) | prefix.length)

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Dict-style exact lookup with a default."""
        return self._entries.get((prefix.network << 8) | prefix.length, default)

    def lengths(self) -> Tuple[int, ...]:
        """The distinct stored prefix lengths, ascending."""
        return tuple(self._lengths)

    def copy(self) -> "PrefixTrie[V]":
        """An independent map holding the same keys and value objects.

        Copy-on-write: the copy shares this trie's dict and length
        tables, and the first insert or remove on either side gives that
        side tables of its own, so mutating either trie leaves the other
        unchanged.  The values themselves are shared, never copied.
        """
        clone: PrefixTrie[V] = PrefixTrie()
        clone._entries = self._entries
        clone._lengths = self._lengths
        clone._length_counts = self._length_counts
        clone._sorted_keys = self._sorted_keys  # replaced, never mutated
        clone._shared = self._shared = True
        return clone

    # -- covering lookups ------------------------------------------------------
    def covering(self, prefix: Prefix) -> List[Tuple[Prefix, V]]:
        """All stored prefixes covering *prefix*, least-specific first.

        A stored prefix equal to *prefix* is included.
        """
        network, get = prefix.network, self._entries.get
        found: List[Tuple[Prefix, V]] = []
        for length in self._lengths:
            if length > prefix.length:
                break
            key = ((network & _MASKS[length]) << 8) | length
            value = get(key, _MISSING)
            if value is not _MISSING:
                found.append((unpack_prefix(key), value))
        return found

    def _probe_down(
        self, prefix: Prefix, below: int
    ) -> Optional[Tuple[int, V]]:
        """``(key, value)`` of the most-specific cover shorter than *below*."""
        network, get = prefix.network, self._entries.get
        for length in reversed(self._lengths):
            if length < below:
                key = ((network & _MASKS[length]) << 8) | length
                value = get(key, _MISSING)
                if value is not _MISSING:
                    return key, value
        return None

    def _least_specific_hit(self, prefix: Prefix) -> Optional[Tuple[int, V]]:
        """``(key, value)`` of the least-specific stored cover of *prefix*."""
        network, get = prefix.network, self._entries.get
        for length in self._lengths:
            if length > prefix.length:
                break
            key = ((network & _MASKS[length]) << 8) | length
            value = get(key, _MISSING)
            if value is not _MISSING:
                return key, value
        return None

    @staticmethod
    def _entry(hit: Optional[Tuple[int, V]]) -> Optional[Tuple[Prefix, V]]:
        return None if hit is None else (unpack_prefix(hit[0]), hit[1])

    @staticmethod
    def _value(hit: Optional[Tuple[int, V]]) -> Optional[V]:
        return None if hit is None else hit[1]

    def longest_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored prefix covering *prefix*, or None."""
        return self._entry(self._probe_down(prefix, prefix.length + 1))

    def longest_match_value(self, prefix: Prefix) -> Optional[V]:
        """The value of :meth:`longest_match`, with no prefix built."""
        return self._value(self._probe_down(prefix, prefix.length + 1))

    def least_specific_match(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The least-specific stored prefix covering *prefix*, or None.

        This is the lookup the paper applies to root nodes whose exact
        prefix is absent from BGP: "search for its least-specific covering
        prefix and origin AS" (§5.1 step 4).
        """
        return self._entry(self._least_specific_hit(prefix))

    def least_specific_value(self, prefix: Prefix) -> Optional[V]:
        """The value of :meth:`least_specific_match`, with no prefix built."""
        return self._value(self._least_specific_hit(prefix))

    def parent(self, prefix: Prefix) -> Optional[Tuple[Prefix, V]]:
        """The most-specific stored *strict* ancestor of *prefix*, or None."""
        return self._entry(self._probe_down(prefix, prefix.length))

    # -- ordered views --------------------------------------------------------
    def _keys(self) -> List[int]:
        """Every stored packed key, ascending (cached until a mutation)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._entries)
        return self._sorted_keys

    def _pairs(self, keys: Iterable[int]) -> List[Tuple[Prefix, V]]:
        entries = self._entries
        return [(unpack_prefix(key), entries[key]) for key in keys]

    def _tops(self, keys: Sequence[int]) -> List[Tuple[Prefix, V]]:
        """Entries among ascending *keys* not inside an earlier one."""
        tops: List[int] = []
        end = -1
        for key in keys:
            if key >= end:
                tops.append(key)
                end = _subtree_end(key)
        return self._pairs(tops)

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Iterate stored prefixes equal to or more specific than *prefix*."""
        keys = self._keys()
        start, stop = flat_covered_range(keys, prefix)
        entries = self._entries
        for key in keys[start:stop]:
            yield unpack_prefix(key), entries[key]

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
            yield unpack_prefix(key), entries[key]

    def values(self) -> Iterator[V]:
        """Iterate all stored values, in no particular order."""
        return iter(self._entries.values())

    def keys(self) -> Iterator[Prefix]:
        """Iterate all stored prefixes in ``Prefix`` order."""
        for key in self._keys():
            yield unpack_prefix(key)

    # -- structural roles (allocation tree) ----------------------------------
    def roots(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict ancestor."""
        return self._tops(self._keys())

    def leaves(self) -> List[Tuple[Prefix, V]]:
        """Stored prefixes with no stored strict descendant.

        A prefix's descendants directly follow it in key order, so it is
        a leaf exactly when the next key lies outside its subtree.
        """
        keys = self._keys()
        return self._pairs(
            key
            for index, key in enumerate(keys, 1)
            if index == len(keys) or keys[index] >= _subtree_end(key)
        )

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


# -- packed keys --------------------------------------------------------------
#
# A prefix packs into one integer, ``network << 8 | length``.  The
# packing preserves ``Prefix`` order (network first, then length), so a
# sorted list of packed keys bisects like the prefixes themselves.

#: The low byte of a packed key is the prefix length.
_KEY_LENGTH_MASK = 0xFF


def pack_prefix(prefix: Prefix) -> int:
    """*prefix* as a sortable integer key: ``network << 8 | length``."""
    return (prefix.network << 8) | prefix.length


def unpack_prefix(key: int) -> Prefix:
    """The :class:`Prefix` a packed key encodes.

    Keys come from :func:`pack_prefix`, so the prefix is built without
    re-running its validation (half the cost of decoding a key).
    """
    prefix = _new_object(Prefix)
    _set_network(prefix, key >> 8)
    _set_length(prefix, key & _KEY_LENGTH_MASK)
    return prefix


# ``Prefix`` is slotted and frozen: its slot descriptors set a field past
# the frozen ``__setattr__``, a third cheaper than ``object.__setattr__``.
_new_object = object.__new__
_set_network = Prefix.__dict__["network"].__set__
_set_length = Prefix.__dict__["length"].__set__


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
