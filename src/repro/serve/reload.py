"""Atomic publication of :class:`~repro.core.leaseindex.LeaseIndex` snapshots.

The serving layer never mutates an index in place.
:meth:`SnapshotManager.swap` publishes the first snapshot and
:meth:`SnapshotManager.apply_updates` each delta generation derived from
the published one, by replacing a single ``(generation, index)`` tuple
reference.  Readers capture that tuple once per request, so

* a request that started on generation *n* finishes on generation *n*
  even if a swap lands mid-flight — nothing is dropped or torn, and
* publication is wait-free for readers; only concurrent writers
  serialize on a lock (to keep generation numbers strictly increasing).

Generation numbers start at 1 for the first snapshot and are surfaced
in every ``/v1/stats`` and ``/healthz`` response so clients can detect
a new generation.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Tuple

from ..core.leaseindex import LeaseIndex

__all__ = ["SnapshotManager"]


class SnapshotManager:
    """Publishes immutable snapshots to readers, one generation at a time."""

    def __init__(self, initial: Optional[LeaseIndex] = None) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Tuple[int, LeaseIndex]] = None
        self._generation = 0
        if initial is not None:
            self.swap(initial)

    # -- read side ---------------------------------------------------------
    def snapshot(self) -> Tuple[int, LeaseIndex]:
        """The current ``(generation, index)`` pair, captured atomically.

        Callers must hold on to the returned pair for the duration of
        one request instead of re-reading — that is what makes a
        mid-request swap invisible.
        """
        current = self._current
        if current is None:
            raise RuntimeError(
                "SnapshotManager has no snapshot yet; swap() one in first"
            )
        return current

    @property
    def generation(self) -> int:
        """The generation of the published snapshot (0 before the first)."""
        return self._generation

    # -- write side --------------------------------------------------------
    def swap(self, index: LeaseIndex) -> int:
        """Publish *index* as the new snapshot; returns its generation."""
        with self._lock:
            self._generation += 1
            self._current = (self._generation, index)
            return self._generation

    def apply_updates(
        self, updater: Callable[[LeaseIndex], LeaseIndex]
    ) -> int:
        """Publish a delta generation derived from the current snapshot.

        *updater* receives the published index and returns the patched
        one (typically :meth:`LeaseIndex.with_updates`).  It runs
        **inside** the swap lock so concurrent delta applies serialize —
        each updater sees its predecessor's output, generations stay
        strictly increasing, and no burst's patch is lost.  Readers stay
        wait-free throughout: in-flight requests keep the pair they
        captured.  Requires a published snapshot.
        """
        with self._lock:
            if self._current is None:
                raise RuntimeError(
                    "SnapshotManager has no snapshot yet; swap() one in "
                    "first"
                )
            index = updater(self._current[1])
            self._generation += 1
            self._current = (self._generation, index)
            return self._generation
