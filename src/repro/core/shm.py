"""Zero-copy shared-memory snapshot of the analysis substrate.

Every context-backed worker pool ships its lookup tables through this
module rather than pickling the :class:`~repro.core.context.AnalysisContext`
(RIB, relatedness closure, per-registry organisation maps, every leaf
key) — on internet-scale worlds that pickle would be hundreds of
megabytes per spawned worker.  The hot tables are frozen into flat
sorted arrays inside **one** ``multiprocessing.shared_memory`` segment:

* the RIB becomes :class:`FlatRib` — packed ``network << 8 | length``
  keys with per-prefix origin buckets, searched with the
  :mod:`repro.net.radix` flat-array helpers (binary search instead of
  dict probes, byte-identical results);
* the relatedness closure, the per-RIR ``org → assigned ASNs`` maps,
  and the per-RIR leaf-key sequences become offset-indexed arrays and
  interned string tables.

:class:`SharedAnalysisContext` duck-types ``AnalysisContext`` for the
classification hot path, so ``classify_shard_rows`` and the legacy
verdict rows run over it unchanged.  Pickling it ships an O(1)
descriptor — the segment *name* plus a section directory — and
``__setstate__`` re-attaches by name, so a spawn initializer's
per-worker payload is a few hundred bytes.  Fork workers simply inherit
the mapping.

Lifecycle: the creating process owns the segment and must call
:meth:`SharedAnalysisContext.destroy` (the pipelines leave a ``with``
block, which does so); a ``weakref.finalize`` guard unlinks on abnormal
teardown, and attach-side processes unregister from the resource
tracker so a worker exit can never unlink the parent's segment
(bpo-38119).  Creation reserves the segment's pages up front where the
platform has ``posix_fallocate``, so a full ``/dev/shm`` raises
``OSError(ENOSPC)`` instead of a SIGBUS on the first write.
"""

from __future__ import annotations

import errno
import gc
import os
import pickle
import weakref
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..net import Prefix
from ..net.radix import flat_exact_index, pack_prefix, unpack_prefix
from ..rir import RIR
from .context import AnalysisContext, LeafKey, RibSnapshot

__all__ = [
    "FlatRib",
    "SharedAnalysisContext",
    "attached_segment_names",
    "payload_pickle_bytes",
]

_EMPTY: FrozenSet[int] = frozenset()

#: Sentinel packed-prefix value for "no root prefix" (no valid packed
#: key reaches 2**64 - 1: networks are 32-bit, lengths 8-bit).
_NO_PREFIX = (1 << 64) - 1
#: Sentinel string-table index for "no organisation".
_NO_ORG = 0xFFFFFFFF

#: Byte alignment of every section (covers the widest typecode, ``Q``).
_ALIGN = 8


def payload_pickle_bytes(payload: object) -> int:
    """The pickled size of *payload* — what spawn ships per worker.

    This is the number ``repro bench --memory`` reports for each pool
    mode: with :class:`SharedAnalysisContext` it is O(1) descriptor
    metadata.
    """
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def attached_segment_names() -> List[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    Test helper: after a pipeline run or pool crash the list must be
    empty (no leaked segments).  Only segments carrying this module's
    name prefix are reported, so concurrent unrelated shm users don't
    produce false positives.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if name.lstrip("/").startswith(_NAME_PREFIX)
    )


#: Prefix of every segment name this module creates.
_NAME_PREFIX = "repro_ctx_"

#: Per-process counter distinguishing segments created by one process.
_SEGMENT_SERIAL = 0

#: ``posix_fallocate`` errors meaning the descriptor does not support
#: reserving, not that the space is missing.
_NO_FALLOCATE = frozenset(
    {errno.EINVAL, errno.EOPNOTSUPP, errno.ENODEV, errno.ENOSYS}
)


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """A fresh named segment: ``repro_ctx_<pid>_<serial>``.

    The pid keeps concurrent processes apart; the serial keeps repeated
    creations within one process apart.  Collisions (a stale leftover
    from a killed process with a recycled pid) are skipped over.
    """
    global _SEGMENT_SERIAL
    while True:
        _SEGMENT_SERIAL += 1
        name = f"{_NAME_PREFIX}{os.getpid()}_{_SEGMENT_SERIAL}"
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=size, name=name
            )
        except FileExistsError:  # pragma: no cover - recycled-pid race
            continue
        break
    # SharedMemory only ftruncates: on a full tmpfs the first write
    # would SIGBUS the process.  Reserving the pages turns that into an
    # error the caller can handle.  A descriptor that cannot reserve at
    # all keeps the unreserved segment, as SharedMemory alone would.
    try:
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(segment._fd, 0, size)  # type: ignore[attr-defined]
    except OSError as exc:
        if exc.errno in _NO_FALLOCATE:
            return segment
        _discard(segment)
        raise OSError(
            exc.errno,
            f"cannot reserve {size} bytes for shared-memory segment "
            f"{name!r}: {exc.strerror}",
        ) from exc
    return segment


def _discard(segment: shared_memory.SharedMemory) -> None:
    """Unlink and close a segment whose construction failed."""
    segment.unlink()
    segment.close()


class _Arena:
    """Builds the flat byte image: named, aligned, typed sections."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._size = 0
        #: name -> (byte offset, element count, typecode; "B" = raw bytes)
        self.sections: Dict[str, Tuple[int, int, str]] = {}

    def _pad(self) -> None:
        remainder = self._size % _ALIGN
        if remainder:
            pad = _ALIGN - remainder
            self._chunks.append(b"\x00" * pad)
            self._size += pad

    def add_array(self, name: str, typecode: str, values: Iterable[int]) -> None:
        """Append one typed array section."""
        self._pad()
        data = array(typecode, values)
        raw = data.tobytes()
        self.sections[name] = (self._size, len(data), typecode)
        self._chunks.append(raw)
        self._size += len(raw)

    def add_bytes(self, name: str, blob: bytes) -> None:
        """Append one raw byte-blob section (string tables)."""
        self._pad()
        self.sections[name] = (self._size, len(blob), "B")
        self._chunks.append(blob)
        self._size += len(blob)

    @property
    def size(self) -> int:
        return self._size

    def write_to(self, buf: memoryview) -> None:
        cursor = 0
        for chunk in self._chunks:
            buf[cursor : cursor + len(chunk)] = chunk
            cursor += len(chunk)


class _Views:
    """Casted memoryviews over an attached segment, released in order.

    ``SharedMemory.close`` raises ``BufferError`` while any exported
    view is alive, so every cast is tracked and released first.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        sections: Dict[str, Tuple[int, int, str]],
    ) -> None:
        self._shm = shm
        self._sections = sections
        self._open: List[memoryview] = []

    def array(self, name: str) -> memoryview:
        offset, count, typecode = self._sections[name]
        width = array(typecode).itemsize
        view = self._shm.buf[offset : offset + count * width]
        self._open.append(view)
        cast = view.cast(typecode)
        self._open.append(cast)
        return cast

    def raw(self, name: str) -> memoryview:
        offset, count, _typecode = self._sections[name]
        view = self._shm.buf[offset : offset + count]
        self._open.append(view)
        return view

    def release(self) -> None:
        # Casts were appended after their parent slices; release newest
        # first so no view is released while a child cast is alive.
        while self._open:
            self._open.pop().release()


class FlatRib:
    """Frozen RIB lookups over flat sorted arrays.

    Same contract as :class:`~repro.core.context.RibSnapshot` —
    ``exact_origins`` / ``covering_origins`` / ``exact_items`` — but the
    exact index is a sorted array of packed prefix keys plus an
    offset-indexed origin pool, so the whole structure is three
    buffers that can live anywhere: local ``array`` objects or
    memoryviews over a shared segment.
    """

    __slots__ = ("_keys", "_offsets", "_origins", "_lengths")

    def __init__(
        self,
        keys: Sequence[int],
        offsets: Sequence[int],
        origins: Sequence[int],
        lengths: Tuple[int, ...],
    ) -> None:
        self._keys = keys
        self._offsets = offsets
        self._origins = origins
        self._lengths = lengths

    @classmethod
    def from_snapshot(cls, rib: RibSnapshot) -> "FlatRib":
        """Flatten a dict-backed snapshot (local arrays, no shm)."""
        exact = {
            pack_prefix(prefix): bucket
            for prefix, bucket in rib.exact_items()
        }
        keys = array("Q", sorted(exact))
        offsets = array("I", [0])
        origins = array("I")
        for packed in keys:
            origins.extend(sorted(exact[packed]))
            offsets.append(len(origins))
        lengths = tuple(sorted({key & 0xFF for key in keys}))
        return cls(keys, offsets, origins, lengths)

    def _bucket(self, index: int) -> FrozenSet[int]:
        start = self._offsets[index]
        stop = self._offsets[index + 1]
        if start == stop:
            return _EMPTY
        return frozenset(self._origins[start:stop])

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Origins of the exact-matching prefix (empty when absent)."""
        index = flat_exact_index(self._keys, prefix)
        if index is None:
            return _EMPTY
        return self._bucket(index)

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Exact match, else the least-specific covering prefix's origins.

        Mirrors ``RibSnapshot.covering_origins`` exactly, including the
        subtlety that a *stored but empty* exact bucket falls through to
        the ascending truncation walk (where the prefix answers for
        itself at its own length unless a shorter cover exists).
        """
        index = flat_exact_index(self._keys, prefix)
        if index is not None:
            bucket = self._bucket(index)
            if bucket:
                return bucket
        for length in self._lengths:
            if length > prefix.length:
                break
            found = flat_exact_index(self._keys, prefix.supernet(length))
            if found is not None:
                return self._bucket(found)
        return _EMPTY

    def exact_items(self) -> Iterator[Tuple[Prefix, FrozenSet[int]]]:
        """The ``(prefix, origins)`` pairs, ascending by packed key."""
        for index in range(len(self._keys)):
            yield unpack_prefix(self._keys[index]), self._bucket(index)

    def __contains__(self, prefix: Prefix) -> bool:
        return flat_exact_index(self._keys, prefix) is not None

    def __len__(self) -> int:
        return len(self._keys)


class _StrTable:
    """An interned string table: offset array + UTF-8 blob."""

    __slots__ = ("_offsets", "_blob")

    def __init__(self, offsets: Sequence[int], blob: memoryview) -> None:
        self._offsets = offsets
        self._blob = blob

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> str:
        start = self._offsets[index]
        stop = self._offsets[index + 1]
        return bytes(self._blob[start:stop]).decode("utf-8")

    def raw(self, index: int) -> bytes:
        start = self._offsets[index]
        stop = self._offsets[index + 1]
        return bytes(self._blob[start:stop])


class _FlatOrgMap:
    """One registry's ``org_id -> frozenset(assigned ASNs)`` mapping.

    Keys are kept as a lexicographically sorted UTF-8 string table and
    resolved by binary search on raw bytes — UTF-8 byte order equals
    code-point order, so lookups agree with the dict they replace.
    """

    __slots__ = ("_names", "_asn_offsets", "_asns")

    def __init__(
        self,
        names: _StrTable,
        asn_offsets: Sequence[int],
        asns: Sequence[int],
    ) -> None:
        self._names = names
        self._asn_offsets = asn_offsets
        self._asns = asns

    def __len__(self) -> int:
        return len(self._names)

    def get(
        self, org_id: str, default: Optional[FrozenSet[int]] = None
    ) -> Optional[FrozenSet[int]]:
        key = org_id.encode("utf-8")
        lo, hi = 0, len(self._names)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._names.raw(mid) < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self._names) and self._names.raw(lo) == key:
            start = self._asn_offsets[lo]
            stop = self._asn_offsets[lo + 1]
            return frozenset(self._asns[start:stop])
        return default


class _FlatLeafKeys(Sequence[LeafKey]):
    """One registry's leaf-key sequence over three parallel arrays."""

    __slots__ = ("_leaves", "_roots", "_orgs", "_table")

    def __init__(
        self,
        leaves: Sequence[int],
        roots: Sequence[int],
        orgs: Sequence[int],
        table: _StrTable,
    ) -> None:
        self._leaves = leaves
        self._roots = roots
        self._orgs = orgs
        self._table = table

    def __len__(self) -> int:
        return len(self._leaves)

    def _keys(self, span: slice) -> List[LeafKey]:
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
                orgs[org] = self._table[org]
            keys.append((unpack_prefix(leaf), roots[root], orgs[org]))
        return keys

    def _key(self, index: int) -> LeafKey:
        packed_root = self._roots[index]
        org_index = self._orgs[index]
        return (
            unpack_prefix(self._leaves[index]),
            None if packed_root == _NO_PREFIX else unpack_prefix(packed_root),
            None if org_index == _NO_ORG else self._table[org_index],
        )

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return self._keys(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._key(index)


def _detach(views: _Views, shm: shared_memory.SharedMemory) -> None:
    """Release every exported view, then close the mapping.

    Runs via ``weakref.finalize`` when a context is garbage-collected
    (worker-side attachments are rarely closed explicitly); without the
    ordered release, ``SharedMemory.__del__`` raises ``BufferError``
    over the still-exported casts at interpreter shutdown.
    """
    views.release()
    shm.close()


def _finalize_segment(name: str, creator_pid: int) -> None:
    """Last-resort unlink, skipped in forked children of the creator."""
    if os.getpid() != creator_pid:
        return
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    # repro-check: ignore[RC106] -- lost the unlink race; gone is the goal
    except FileNotFoundError:  # pragma: no cover - raced with another
        pass


def _untrack(name: str) -> None:
    """Detach an attached segment from this process's resource tracker.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's tracker, which would unlink it when *that* process exits —
    destroying the creator's data mid-run (bpo-38119).  Only the
    creating process may own unlink responsibility.
    """
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    # repro-check: ignore[RC106] -- unknown tracker entry needs no untracking
    except (KeyError, ValueError):  # pragma: no cover - tracker variance
        pass


class SharedAnalysisContext:
    """An ``AnalysisContext`` whose hot tables live in shared memory.

    Duck-types the context API the classification hot path uses —
    ``rib``, ``assigned``, ``leaf_keys``, ``related_to`` /
    ``any_related`` / ``related_pair``, ``assigned_asns``,
    ``total_leaves`` — so :func:`repro.core.sharding.classify_shard_rows`
    accepts either implementation.  ``leaves()`` raises: the leaf
    records stay with the parent's ``AnalysisContext``.  Use it as a
    context manager to :meth:`destroy` the segment on exit.
    """

    def __init__(
        self,
        descriptor: Dict[str, object],
        shm: shared_memory.SharedMemory,
        owner: bool,
    ) -> None:
        self._descriptor = descriptor
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._owner = owner
        self._finalizer = None
        if owner:
            self._finalizer = weakref.finalize(
                self, _finalize_segment, shm.name, os.getpid()
            )
        self._attach_views()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_context(cls, context: AnalysisContext) -> "SharedAnalysisContext":
        """Pack *context*'s hot tables into a fresh shared segment.

        The collector is paused meanwhile: packing allocates only
        acyclic ints, tuples and arrays, and a collection triggered
        mid-pack would walk the caller's whole heap for nothing.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._pack(context)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _pack(cls, context: AnalysisContext) -> "SharedAnalysisContext":
        arena = _Arena()

        flat = FlatRib.from_snapshot(context.rib)
        arena.add_array("rib_keys", "Q", flat._keys)
        arena.add_array("rib_offsets", "I", flat._offsets)
        arena.add_array("rib_origins", "I", flat._origins)

        related = context.related_sets
        rel_keys = sorted(related)
        rel_offsets = array("I", [0])
        rel_members = array("I")
        total = 0
        for asn in rel_keys:
            members = sorted(related[asn])
            rel_members.extend(members)
            total += len(members)
            rel_offsets.append(total)
        arena.add_array("rel_keys", "I", rel_keys)
        arena.add_array("rel_offsets", "I", rel_offsets)
        arena.add_array("rel_members", "I", rel_members)

        assigned_rirs: List[RIR] = []
        for rir in sorted(context.assigned, key=lambda item: item.name):
            org_map = context.assigned[rir]
            assigned_rirs.append(rir)
            encoded = sorted(
                (org.encode("utf-8"), org_map[org]) for org in org_map
            )
            blob = bytearray()
            name_offsets = array("I", [0])
            asn_offsets = array("I", [0])
            asns = array("I")
            count = 0
            for raw, members in encoded:
                blob.extend(raw)
                name_offsets.append(len(blob))
                asns.extend(sorted(members))
                count += len(members)
                asn_offsets.append(count)
            tag = rir.name
            arena.add_bytes(f"org_blob:{tag}", bytes(blob))
            arena.add_array(f"org_offsets:{tag}", "I", name_offsets)
            arena.add_array(f"org_asn_offsets:{tag}", "I", asn_offsets)
            arena.add_array(f"org_asns:{tag}", "I", asns)

        # Root-organisation ids are massively repeated across leaf keys;
        # intern them once and index per leaf.
        org_ids = sorted(
            {
                key[2]
                for keys in context.leaf_keys.values()
                for key in keys
                if key[2] is not None
            }
        )
        org_index = {org: position for position, org in enumerate(org_ids)}
        blob = bytearray()
        offsets = array("I", [0])
        for org in org_ids:
            blob.extend(org.encode("utf-8"))
            offsets.append(len(blob))
        arena.add_bytes("leaforg_blob", bytes(blob))
        arena.add_array("leaforg_offsets", "I", offsets)

        leaf_rirs: List[RIR] = []
        for rir in sorted(context.leaf_keys, key=lambda item: item.name):
            keys = context.leaf_keys[rir]
            leaf_rirs.append(rir)
            tag = rir.name
            arena.add_array(
                f"leaf_keys:{tag}", "Q", (pack_prefix(key[0]) for key in keys)
            )
            arena.add_array(
                f"leaf_roots:{tag}",
                "Q",
                (
                    _NO_PREFIX if key[1] is None else pack_prefix(key[1])
                    for key in keys
                ),
            )
            arena.add_array(
                f"leaf_orgs:{tag}",
                "I",
                (
                    _NO_ORG if key[2] is None else org_index[key[2]]
                    for key in keys
                ),
            )

        shm = _create_segment(max(1, arena.size))
        descriptor: Dict[str, object] = {
            "name": shm.name.lstrip("/"),
            "sections": arena.sections,
            "rirs": context.rirs,
            "max_leaf_length": context.max_leaf_length,
            "stats": context.stats,
            "rib_lengths": flat._lengths,
            "assigned_rirs": tuple(assigned_rirs),
            "leaf_rirs": tuple(leaf_rirs),
        }
        try:
            arena.write_to(shm.buf)
            return cls(descriptor, shm, owner=True)
        except BaseException:
            _discard(shm)
            raise

    def _attach_views(self) -> None:
        assert self._shm is not None
        descriptor = self._descriptor
        sections = descriptor["sections"]
        views = _Views(self._shm, sections)  # type: ignore[arg-type]
        self._views = views
        # Registered after the owner's unlink finalizer, so on GC the
        # views release and the mapping closes before any unlink.
        self._detach_finalizer = weakref.finalize(
            self, _detach, views, self._shm
        )

        self.rirs = cast(Tuple[RIR, ...], descriptor["rirs"])
        self.max_leaf_length = cast(int, descriptor["max_leaf_length"])
        self.stats = cast(Dict[RIR, Dict[str, int]], descriptor["stats"])

        self.rib = FlatRib(
            views.array("rib_keys"),
            views.array("rib_offsets"),
            views.array("rib_origins"),
            tuple(descriptor["rib_lengths"]),  # type: ignore[arg-type]
        )
        self._rel_keys = views.array("rel_keys")
        self._rel_offsets = views.array("rel_offsets")
        self._rel_members = views.array("rel_members")

        self.assigned: Dict[RIR, _FlatOrgMap] = {}
        for rir in descriptor["assigned_rirs"]:  # type: ignore[union-attr]
            tag = rir.name
            names = _StrTable(
                views.array(f"org_offsets:{tag}"),
                views.raw(f"org_blob:{tag}"),
            )
            self.assigned[rir] = _FlatOrgMap(
                names,
                views.array(f"org_asn_offsets:{tag}"),
                views.array(f"org_asns:{tag}"),
            )

        table = _StrTable(
            views.array("leaforg_offsets"), views.raw("leaforg_blob")
        )
        self.leaf_keys: Dict[RIR, _FlatLeafKeys] = {}
        for rir in descriptor["leaf_rirs"]:  # type: ignore[union-attr]
            tag = rir.name
            self.leaf_keys[rir] = _FlatLeafKeys(
                views.array(f"leaf_keys:{tag}"),
                views.array(f"leaf_roots:{tag}"),
                views.array(f"leaf_orgs:{tag}"),
                table,
            )

    # -- AnalysisContext duck-type API ------------------------------------
    def related_to(self, asn: int) -> FrozenSet[int]:
        """The business family of *asn* (always contains *asn*)."""
        keys = self._rel_keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < asn:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(keys) and keys[lo] == asn:
            start = self._rel_offsets[lo]
            stop = self._rel_offsets[lo + 1]
            return frozenset(self._rel_members[start:stop])
        return frozenset((asn,))

    def any_related(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> bool:
        """True when any left AS's family intersects *rights*."""
        return any(
            not self.related_to(left).isdisjoint(rights) for left in lefts
        )

    def related_pair(
        self, lefts: Iterable[int], rights: FrozenSet[int]
    ) -> Optional[Tuple[int, int]]:
        """The lowest-numbered related ``(left, right)`` pair, or None."""
        for left in sorted(lefts):
            hits = self.related_to(left) & rights
            if hits:
                return left, min(hits)
        return None

    def assigned_asns(self, rir: RIR, org_id: Optional[str]) -> FrozenSet[int]:
        """RIR-assigned ASNs of *org_id* in *rir* (§5.1 step 3)."""
        if not org_id:
            return _EMPTY
        org_map = self.assigned.get(rir)
        if org_map is None:
            return _EMPTY
        found = org_map.get(org_id, _EMPTY)
        return found if found is not None else _EMPTY

    def total_leaves(self) -> int:
        """Classifiable leaves across all snapshotted registries."""
        return sum(len(keys) for keys in self.leaf_keys.values())

    def leaves(self, rir: RIR):
        """Full leaf records never cross into shared memory."""
        raise RuntimeError(
            "SharedAnalysisContext holds flat classification keys only; "
            "the parent's AnalysisContext keeps the leaf records"
        )

    # -- lifecycle --------------------------------------------------------
    @property
    def segment_name(self) -> str:
        """The ``/dev/shm`` segment name workers attach to."""
        return str(self._descriptor["name"])

    @property
    def segment_bytes(self) -> int:
        """Total bytes of the shared segment."""
        shm = self._shm
        return shm.size if shm is not None else 0

    def close(self) -> None:
        """Release views and detach from the segment (keeps it linked)."""
        if self._shm is None:
            return
        self._detach_finalizer()
        self._shm = None

    def destroy(self) -> None:
        """Detach and unlink — creator-side teardown, idempotent."""
        name = self.segment_name
        owner = self._owner
        self.close()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if not owner:
            return
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        segment.close()
        try:
            segment.unlink()
        # repro-check: ignore[RC106] -- already unlinked; destroy() is idempotent
        except FileNotFoundError:  # pragma: no cover - raced teardown
            pass

    def __enter__(self) -> "SharedAnalysisContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.destroy()

    # -- pickling: O(1) attach-by-name descriptor -------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {"descriptor": self._descriptor}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._descriptor = state["descriptor"]  # type: ignore[assignment]
        name = str(self._descriptor["name"])
        self._shm = shared_memory.SharedMemory(name=name)
        _untrack(name)
        self._owner = False
        self._finalizer = None
        self._attach_views()
