"""The analysis context's image, shared with worker pools by name.

Every context-backed worker pool reads the same
:class:`~repro.core.context.AnalysisContext` image the parent built,
instead of a pickled copy — on internet-scale worlds that pickle would
be hundreds of megabytes per spawned worker.
:meth:`SharedAnalysisContext.from_context` copies the finished image
byte for byte into **one** ``multiprocessing.shared_memory`` segment,
re-encoding nothing, and attaches to it; the attached object is an
``AnalysisContext`` subclass, so every lookup runs through the same
code as the local one.  Pickling it ships an O(1) descriptor — the
segment *name* plus the image layout — and unpickling re-attaches by
name, so a spawn initializer's per-worker payload is a few hundred
bytes.  Fork workers simply inherit the mapping.

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
import os
import pickle
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import List, Optional, Tuple

from .context import AnalysisContext, ImageLayout, _Views

__all__ = [
    "SharedAnalysisContext",
    "attached_segment_names",
    "payload_pickle_bytes",
]


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


class SharedAnalysisContext(AnalysisContext):
    """An :class:`AnalysisContext` attached to its image in shared memory.

    Every lookup is the inherited one, answered from views over the
    segment; ``leaves()`` raises, because the leaf records stay with
    the building process.  Use it as a context manager to
    :meth:`destroy` the segment on exit.
    """

    def __init__(
        self,
        layout: ImageLayout,
        shm: shared_memory.SharedMemory,
        owner: bool,
    ) -> None:
        self._name = shm.name.lstrip("/")
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._owner = owner
        self._finalizer = None
        if owner:
            self._finalizer = weakref.finalize(
                self, _finalize_segment, self._name, os.getpid()
            )
        super().__init__(shm.buf[: layout.size], layout)
        # Registered after the owner's unlink finalizer, so on GC the
        # views release and the mapping closes before any unlink.
        self._detach_finalizer = weakref.finalize(
            self, _detach, self._views, shm
        )

    @classmethod
    def from_context(cls, context: AnalysisContext) -> "SharedAnalysisContext":
        """Copy *context*'s finished image into a fresh shared segment."""
        size = context.layout.size
        shm = _create_segment(max(1, size))
        try:
            shm.buf[:size] = context.image
            return cls(context.layout, shm, owner=True)
        except BaseException:
            _discard(shm)
            raise

    # -- lifecycle --------------------------------------------------------
    @property
    def segment_name(self) -> str:
        """The ``/dev/shm`` segment name workers attach to."""
        return self._name

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
        self.close()
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if not self._owner:
            return
        try:
            segment = shared_memory.SharedMemory(name=self._name)
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
    def __reduce__(self) -> Tuple[object, Tuple[str, ImageLayout]]:
        return (_attach, (self._name, self.layout))


def _attach(name: str, layout: ImageLayout) -> SharedAnalysisContext:
    """Attach to a live segment by name (the unpickling side)."""
    shm = shared_memory.SharedMemory(name=name)
    try:
        _untrack(name)
        return SharedAnalysisContext(layout, shm, owner=False)
    except BaseException:
        shm.close()
        raise
