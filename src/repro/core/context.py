"""The analysis substrate every engine reads, built once as one byte image.

One :class:`AnalysisContext` is built per run and handed to the lease
classifier, the legacy-space extension, the RPKI profiler, and the
longitudinal comparison.  :meth:`AnalysisContext.build` writes every
table those engines query into **one** aligned byte image:

* the RIB's exact index (:class:`RibSnapshot`): sorted packed prefix
  keys (``network << 8 | length``), per-key origin offsets and one
  origin pool;
* the AS-relationship closure: per-AS "business family" members, which
  fold AS relationships and AS2org membership into one sorted run;
* the per-registry organisation → RIR-assigned-ASN maps, keyed by a
  UTF-8 string table ordered by CRC-32;
* the per-registry leaf keys ``(leaf, root, root organisation)``.

Every lookup answers from typed memoryviews over that image.  The
full ``TreeLeaf`` records ride beside it (:meth:`AnalysisContext.leaves`).

Covering lookups need no trie because CIDR prefixes nest or are
disjoint: every covering prefix of ``p`` is a truncation
``p.supernet(L)`` for some shorter ``L``, so probing the sorted keys at
each RIB-observed length, ascending, finds the least-specific cover
first — the §5.1 root-node lookup.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from zlib import crc32
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships
from ..bgp.rib import OriginSets, RoutingTable
from ..net import Prefix
from ..net.gcpause import gc_paused
from ..net.radix import (
    flat_covering_index,
    pack_prefix,
    unpack_prefix,
)
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

#: The compact per-leaf classification input:
#: ``(leaf_prefix, root_prefix, root_org_id)``.  Everything the §5.2
#: decision needs that is not already in the shared context.
LeafKey = Tuple[Prefix, Optional[Prefix], Optional[str]]

#: Sentinel packed-prefix value for "no root prefix" (no valid packed
#: key reaches 2**64 - 1: networks are 32-bit, lengths 8-bit).
_NO_PREFIX = (1 << 64) - 1
#: Sentinel string-table index for "no organisation".
_NO_ORG = 0xFFFFFFFF

#: Byte alignment of every section (covers the widest typecode, ``Q``).
_ALIGN = 8

#: ``name -> (byte offset, element count, typecode)`` for every section.
Sections = Dict[str, Tuple[int, int, str]]

_Buffer = Union[bytes, memoryview, "array[int]"]


class ImageLayout(NamedTuple):
    """Where each table sits in a context image, plus the small fields.

    With the image bytes, this is all it takes to answer lookups.
    """

    size: int
    sections: Sections
    rirs: Tuple[RIR, ...]
    max_leaf_length: int
    stats: Dict[RIR, Dict[str, int]]
    rib_lengths: Tuple[int, ...]


class _Arena:
    """Builds the flat byte image: named, aligned, typed sections."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self.size = 0
        self.sections: Sections = {}

    def add(self, name: str, data: _Buffer) -> None:
        """Append one section; its typecode is the buffer's format."""
        if name in self.sections:
            raise ValueError(f"duplicate image section {name!r}")
        view = memoryview(data)
        pad = -self.size % _ALIGN
        if pad:
            self._chunks.append(bytes(pad))
            self.size += pad
        self.sections[name] = (self.size, len(view), view.format)
        raw = view.tobytes()
        self._chunks.append(raw)
        self.size += len(raw)

    def add_buckets(self, name: str, buckets: Iterable[Iterable[int]]) -> None:
        """Bucket ``i`` becomes ``members[offsets[i]:offsets[i + 1]]``."""
        offsets, members = _pool(buckets)
        self.add(f"{name}_offsets", offsets)
        self.add(f"{name}_members", members)

    def add_strings(self, name: str, strings: Sequence[bytes]) -> None:
        """A string table: one UTF-8 blob plus an offset array."""
        offsets = array("I", [0])
        for raw in strings:
            offsets.append(offsets[-1] + len(raw))
        self.add(f"{name}_blob", b"".join(strings))
        self.add(f"{name}_blob_offsets", offsets)

    def image(self) -> bytes:
        return b"".join(self._chunks)


def _pool(buckets: Iterable[Iterable[int]]) -> Tuple["array[int]", "array[int]"]:
    """``(offsets, members)`` arrays holding each bucket sorted."""
    offsets = array("I", [0])
    members = array("I")
    for bucket in buckets:
        members.extend(sorted(bucket))
        offsets.append(len(members))
    return offsets, members


def _slot_table(keys: Sequence[int]) -> "array[int]":
    """An open-addressing index over distinct integer *keys*.

    Slot ``key % size``, or the next free slot after it, holds the
    key's position + 1 (0 marks an empty slot).  Three slots in four
    stay empty, so a lookup — hit or miss — takes one or two probes
    instead of a bisection.
    """
    size = 4 * len(keys) + 1
    slots = array("I", bytes(4 * size))
    for position, key in enumerate(keys):
        slot = key % size
        while slots[slot]:
            slot = (slot + 1) % size
        slots[slot] = position + 1
    return slots


def _find(slots: Sequence[int], keys: Sequence[int], key: int) -> Optional[int]:
    """Position of *key* in *keys* through its slot table, or None."""
    size = len(slots)
    slot = key % size
    while True:
        found = slots[slot]
        if not found:
            return None
        if keys[found - 1] == key:
            return found - 1
        slot = (slot + 1) % size


class _Views:
    """Typed memoryviews over an image's sections."""

    def __init__(self, image: memoryview, sections: Sections) -> None:
        self._image = image
        self._sections = sections

    def array(self, name: str) -> memoryview:
        offset, count, typecode = self._sections[name]
        view = self._image[offset : offset + count * array(typecode).itemsize]
        return view.cast(typecode)

    def strings(self, name: str) -> "_StrTable":
        return _StrTable(
            self.array(f"{name}_blob_offsets"), self.array(f"{name}_blob")
        )


class _StrTable:
    """Interned strings: an offset array over one UTF-8 blob."""

    __slots__ = ("_offsets", "_blob")

    def __init__(self, offsets: memoryview, blob: memoryview) -> None:
        self._offsets = offsets
        self._blob = blob

    def __getitem__(self, index: int) -> bytes:
        return bytes(self._blob[self._offsets[index] : self._offsets[index + 1]])

    def text(self, index: int) -> str:
        return self[index].decode("utf-8")


class RibSnapshot:
    """Frozen exact/covering origin lookups over a routing table.

    Semantically identical to :meth:`RoutingTable.exact_origins` and
    :meth:`RoutingTable.covering_origins`, backed by four flat buffers:
    the sorted packed prefix keys, their slot table (exact lookups),
    per-key origin offsets, and the origin pool.  They are views into a
    context image (or local arrays from :meth:`from_routing_table`).
    """

    __slots__ = ("_keys", "_slots", "_offsets", "_origins", "_lengths")

    def __init__(
        self,
        keys: memoryview,
        slots: memoryview,
        offsets: memoryview,
        origins: memoryview,
        lengths: Tuple[int, ...],
    ) -> None:
        self._keys = keys
        self._slots = slots
        self._offsets = offsets
        self._origins = origins
        self._lengths = lengths

    @classmethod
    def from_routing_table(cls, routing_table: RoutingTable) -> "RibSnapshot":
        """Freeze the table's exact index into sorted flat arrays."""
        items = list(routing_table.packed_items())  # ascending by prefix
        keys = array("Q", [key for key, _ in items])
        offsets, origins = _pool(origins for _, origins in items)
        return cls(
            memoryview(keys),
            memoryview(_slot_table(keys)),
            memoryview(offsets),
            memoryview(origins),
            routing_table.prefix_lengths(),
        )

    def _bucket(self, index: int) -> FrozenSet[int]:
        start = self._offsets[index]
        stop = self._offsets[index + 1]
        if start == stop:
            return _EMPTY
        return frozenset(self._origins[start:stop])

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        index = _find(self._slots, self._keys, pack_prefix(prefix))
        return _EMPTY if index is None else self._bucket(index)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins.

        A stored but empty exact bucket falls through to the ascending
        truncation walk, where the prefix answers for itself at its own
        length unless a shorter cover exists — as the routing table's
        ``least_specific_match`` does.
        """
        exact = self.exact_origins(prefix)
        if exact:
            return exact
        index = flat_covering_index(self._keys, self._lengths, prefix)
        return _EMPTY if index is None else self._bucket(index)

    def exact_items(
        self, interned: Optional[OriginSets] = None
    ) -> Iterator[Tuple[Prefix, FrozenSet[int]]]:
        """The ``(prefix, origins)`` pairs, ascending by prefix.

        Prefixes with equal origins share one frozenset from *interned*
        (a fresh intern table when not given).
        """
        origins = self._origins.tolist()
        offsets = self._offsets.tolist()
        if interned is None:
            interned = OriginSets()
        for key, start, stop in zip(self._keys, offsets, offsets[1:]):
            yield unpack_prefix(key), (
                interned[origins[start]]
                if stop - start == 1
                else interned[frozenset(origins[start:stop])]
            )

    def __contains__(self, prefix: Prefix) -> bool:
        return _find(self._slots, self._keys, pack_prefix(prefix)) is not None

    def __len__(self) -> int:
        return len(self._keys)


class _FlatLeafKeys:
    """One registry's leaf keys over three parallel image arrays."""

    __slots__ = ("_leaves", "_roots", "_orgs", "_table")

    def __init__(
        self,
        leaves: memoryview,
        roots: memoryview,
        orgs: memoryview,
        table: _StrTable,
    ) -> None:
        self._leaves = leaves
        self._roots = roots
        self._orgs = orgs
        self._table = table

    def __len__(self) -> int:
        return len(self._leaves)

    def __iter__(self) -> Iterator[LeafKey]:
        return iter(self[:])

    def __getitem__(self, span: slice) -> List[LeafKey]:
        """Keys for a slice.  Sibling leaves share one root and
        organisation, so each distinct one is decoded once."""
        roots: Dict[int, Optional[Prefix]] = {_NO_PREFIX: None}
        orgs: Dict[int, Optional[str]] = {_NO_ORG: None}
        keys: List[LeafKey] = []
        for leaf, root, org in zip(
            self._leaves[span], self._roots[span], self._orgs[span]
        ):
            if root not in roots:
                roots[root] = unpack_prefix(root)
            if org not in orgs:
                orgs[org] = self._table.text(org)
            keys.append((unpack_prefix(leaf), roots[root], orgs[org]))
        return keys


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
    so they share one substrate instead of recomputing per pass.  The
    constructor reads a finished *image* laid out by *layout*, beside
    the full *leaves* records it was built from.
    """

    def __init__(
        self,
        image: memoryview,
        layout: ImageLayout,
        leaves: Dict[RIR, List[TreeLeaf]],
    ) -> None:
        self.image = image
        self.layout = layout
        self.rirs = layout.rirs
        self.max_leaf_length = layout.max_leaf_length
        self.stats = layout.stats
        self._leaves = leaves
        views = _Views(image, layout.sections)
        self.rib = RibSnapshot(
            views.array("rib_keys"),
            views.array("rib_slots"),
            views.array("rib_offsets"),
            views.array("rib_origins"),
            layout.rib_lengths,
        )
        self._rel_keys = views.array("rel_keys")
        self._rel_slots = views.array("rel_slots")
        self._rel_offsets = views.array("rel_offsets")
        self._rel_members = views.array("rel_members")
        self._orgs: Dict[
            RIR, Tuple[memoryview, _StrTable, memoryview, memoryview]
        ] = {
            rir: (
                views.array(f"org:{rir.name}_crcs"),
                views.strings(f"org:{rir.name}"),
                views.array(f"org:{rir.name}_offsets"),
                views.array(f"org:{rir.name}_members"),
            )
            for rir in ALL_RIRS
        }
        leaf_orgs = views.strings("leaforg")
        self.leaf_keys: Dict[RIR, _FlatLeafKeys] = {
            rir: _FlatLeafKeys(
                views.array(f"leaf_keys:{rir.name}"),
                views.array(f"leaf_roots:{rir.name}"),
                views.array(f"leaf_orgs:{rir.name}"),
                leaf_orgs,
            )
            for rir in layout.rirs
        }

    @classmethod
    @gc_paused
    def build(
        cls,
        whois: WhoisCollection,
        routing_table: RoutingTable,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        rirs: Optional[Iterable[RIR]] = None,
    ) -> "AnalysisContext":
        """Scan the selected registries and write every table's image."""
        arena = _Arena()
        rib = RibSnapshot.from_routing_table(routing_table)
        arena.add("rib_keys", rib._keys)
        arena.add("rib_slots", rib._slots)
        arena.add("rib_offsets", rib._offsets)
        arena.add("rib_origins", rib._origins)

        related = build_related_sets(relationships, as2org)
        asns = sorted(related)
        arena.add("rel_keys", array("I", asns))
        arena.add("rel_slots", _slot_table(asns))
        arena.add_buckets("rel", (related[asn] for asn in asns))

        for rir in ALL_RIRS:
            by_org: Dict[bytes, Set[int]] = {}
            for autnum in whois[rir].autnums:
                if autnum.org_id:
                    raw = autnum.org_id.encode("utf-8")
                    by_org.setdefault(raw, set()).add(autnum.asn)
            # Ordered by checksum: a lookup bisects the checksums in C.
            orgs = sorted(by_org, key=lambda raw: (crc32(raw), raw))
            arena.add(f"org:{rir.name}_crcs", array("I", map(crc32, orgs)))
            arena.add_strings(f"org:{rir.name}", orgs)
            arena.add_buckets(f"org:{rir.name}", (by_org[org] for org in orgs))

        work_rirs: List[RIR] = []
        stats: Dict[RIR, Dict[str, int]] = {}
        leaves: Dict[RIR, List[TreeLeaf]] = {}
        for rir in rirs if rirs is not None else list(RIR):
            database = whois[rir]
            if not database.inetnums:
                continue
            scan = AllocationScan(database, max_leaf_length)
            work_rirs.append(rir)
            stats[rir] = scan.stats()
            leaves[rir] = scan.classifiable_leaves()

        # Root-organisation ids repeat across sibling leaves: intern
        # them once and index per leaf.
        root_orgs = {
            rir: [_root_org(leaf) for leaf in region]
            for rir, region in leaves.items()
        }
        org_ids = sorted(
            {org for orgs in root_orgs.values() for org in orgs if org is not None}
        )
        org_index = {org: position for position, org in enumerate(org_ids)}
        arena.add_strings("leaforg", [org.encode("utf-8") for org in org_ids])
        for rir in work_rirs:
            region = leaves[rir]
            arena.add(
                f"leaf_keys:{rir.name}",
                array("Q", [pack_prefix(leaf.prefix) for leaf in region]),
            )
            arena.add(
                f"leaf_roots:{rir.name}",
                array(
                    "Q",
                    [
                        _NO_PREFIX
                        if leaf.root_prefix is None
                        else pack_prefix(leaf.root_prefix)
                        for leaf in region
                    ],
                ),
            )
            arena.add(
                f"leaf_orgs:{rir.name}",
                array(
                    "I",
                    [
                        _NO_ORG if org is None else org_index[org]
                        for org in root_orgs[rir]
                    ],
                ),
            )
        layout = ImageLayout(
            size=arena.size,
            sections=arena.sections,
            rirs=tuple(work_rirs),
            max_leaf_length=max_leaf_length,
            stats=stats,
            rib_lengths=rib._lengths,
        )
        return cls(memoryview(arena.image()), layout, leaves)

    # -- relatedness ------------------------------------------------------
    def _family(self, asn: int) -> Tuple[Sequence[int], int, int]:
        """*asn*'s sorted business family as ``(members, start, stop)``.

        The family always contains *asn*; one outside the closure is
        its own family.
        """
        index = _find(self._rel_slots, self._rel_keys, asn)
        if index is not None:
            offsets = self._rel_offsets
            return self._rel_members, offsets[index], offsets[index + 1]
        return (asn,), 0, 1

    def _hits(self, left: int, rights: Iterable[int]) -> List[int]:
        """The ASes of *rights* in *left*'s family.

        A family can hold thousands of ASes (a transit provider's
        customers), so each right-hand AS is bisected for instead.
        """
        members, start, stop = self._family(left)
        hits: List[int] = []
        for right in rights:
            position = bisect_left(members, right, start, stop)
            if position < stop and members[position] == right:
                hits.append(right)
        return hits

    def related_to(self, asn: int) -> FrozenSet[int]:
        """The business family of *asn* (always contains *asn*)."""
        members, start, stop = self._family(asn)
        return frozenset(members[start:stop])

    def any_related(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> bool:
        """True when any left AS's family intersects *rights*.

        Equivalent to ``RelatednessOracle.any_related``: ``related(l, r)``
        holds exactly when ``r`` is in ``l``'s family set.
        """
        return any(self._hits(left, rights) for left in lefts)

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
            hits = self._hits(left, rights)
            if hits:
                return left, min(hits)
        return None

    # -- registry lookups -------------------------------------------------
    def assigned_asns(self, rir: RIR, org_id: Optional[str]) -> FrozenSet[int]:
        """RIR-assigned ASNs of *org_id* in *rir* (§5.1 step 3).

        A registry's organisations are stored ordered by CRC-32, so a
        bisect over the checksums finds the (usually one) candidate.
        """
        if not org_id:
            return _EMPTY
        crcs, names, offsets, members = self._orgs[rir]
        key = org_id.encode("utf-8")
        crc = crc32(key)
        index = bisect_left(crcs, crc)
        while index < len(crcs) and crcs[index] == crc:
            if names[index] == key:
                return frozenset(members[offsets[index] : offsets[index + 1]])
            index += 1
        return _EMPTY

    def leaves(self, rir: RIR) -> List[TreeLeaf]:
        """The full leaf records for *rir*."""
        return self._leaves.get(rir, [])

    def total_leaves(self) -> int:
        """Classifiable leaves across all snapshotted registries."""
        return sum(len(keys) for keys in self.leaf_keys.values())


def _root_org(leaf: TreeLeaf) -> Optional[str]:
    return leaf.root_record.org_id if leaf.root_record else None


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
