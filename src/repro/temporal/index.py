"""The temporal lease index: every epoch, one snapshot.

``repro serve`` answers for the *latest* generation; the §6.5
longitudinal workload asks "what was the answer **then**?".
:class:`TemporalLeaseIndex` freezes a sequence of epochs as the list of
generations :meth:`LeaseIndex.with_updates` builds: ``views[0]`` is the
base index and ``views[e]`` is ``views[e - 1].with_updates(changes_e)``.
Every later view is a :class:`~repro.core.leaseindex.DeltaLeaseIndex`
flattened onto the base: it shares the base trie and the static
inverted indexes, and holds only its row overrides, its by-origin
index and its tallies.  Leaf rows (a category plus the answer's JSON
bytes, see :data:`~repro.core.leaseindex.Row`) are shared between
views, so each changed answer is stored once.

Point-in-time resolution is one bisection over the epoch timestamps
plus a list lookup.  The index is immutable once built: streaming
updates create new *serve* generations; the temporal index is the
frozen history those generations leave behind.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..core.context import AnalysisContext
from ..core.leaseindex import LeaseIndex
from ..core.results import LeafInference

__all__ = ["TemporalLeaseIndex"]


class TemporalLeaseIndex:
    """A frozen sequence of epochs answering lease queries at any time.

    Built once from a base :class:`LeaseIndex` plus per-epoch change
    sets (typically the ``changed`` rows of the incremental engine's
    :class:`~repro.core.incremental.BurstReport`), then queried with
    :meth:`index_at` / :meth:`index_for_epoch`.  Every returned view is
    a normal :class:`LeaseIndex` (sharing the base trie), so callers —
    the serve layer above all — use the exact same lookup surface for
    "now" and for "then".
    """

    def __init__(
        self, timestamps: Sequence[int], views: Sequence[LeaseIndex]
    ) -> None:
        for earlier, later in zip(timestamps, timestamps[1:]):
            if later <= earlier:
                raise ValueError(
                    "epoch timestamps must be strictly increasing: "
                    f"{earlier} then {later}"
                )
        self._timestamps: Tuple[int, ...] = tuple(timestamps)
        self._views: Tuple[LeaseIndex, ...] = tuple(views)

    @classmethod
    def build(
        cls,
        context: AnalysisContext,
        base: LeaseIndex,
        base_timestamp: int,
        epoch_changes: Sequence[Tuple[int, Sequence[LeafInference]]],
    ) -> "TemporalLeaseIndex":
        """Freeze *base* (live at *base_timestamp*) plus the epoch deltas.

        Each ``(timestamp, changes)`` entry describes one later epoch as
        the leaf rows that differ from the previous epoch.  Timestamps
        must be strictly increasing (``ValueError`` otherwise); a change
        naming an unindexed leaf raises ``KeyError`` from
        :meth:`LeaseIndex.with_updates` (epochs move BGP evidence, never
        the WHOIS-derived leaf set).  *context* is only used during the
        build — the finished index holds no reference to it.
        """
        timestamps = [base_timestamp]
        views = [base]
        for timestamp, changes in epoch_changes:
            timestamps.append(timestamp)
            views.append(views[-1].with_updates(context, changes))
        return cls(timestamps, views)

    # -- shape -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of epoch states (base epoch included)."""
        return len(self._views)

    @property
    def epochs(self) -> int:
        """Highest epoch number (0 when only the base exists)."""
        return len(self._views) - 1

    def timestamps(self) -> List[int]:
        """Every epoch timestamp, ascending (epoch 0 first)."""
        return list(self._timestamps)

    # -- resolution --------------------------------------------------------
    def locate(self, timestamp: int) -> Optional[int]:
        """The epoch live at *timestamp*, or None before recorded history."""
        epoch = bisect.bisect_right(self._timestamps, timestamp) - 1
        return None if epoch < 0 else epoch

    def index_at(
        self, timestamp: int
    ) -> Optional[Tuple[int, LeaseIndex]]:
        """``(epoch, view)`` live at *timestamp*; None before epoch 0."""
        epoch = self.locate(timestamp)
        if epoch is None:
            return None
        return epoch, self._views[epoch]

    def latest(self) -> LeaseIndex:
        """The view at the newest epoch (what "no ``?at=``" serves)."""
        return self._views[-1]

    def index_for_epoch(self, epoch: int) -> LeaseIndex:
        """The full query surface as of *epoch* (0 = the base index)."""
        if not 0 <= epoch < len(self._views):
            raise IndexError(
                f"epoch {epoch} out of range 0..{self.epochs}"
            )
        return self._views[epoch]
