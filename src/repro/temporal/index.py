"""The delta-encoded temporal lease index: every epoch, one snapshot.

``repro serve`` answers for the *latest* generation; the §6.5
longitudinal workload asks "what was the answer **then**?".  Holding one
full :class:`~repro.core.leaseindex.LeaseIndex` per epoch would cost
O(epochs × leaves); :class:`TemporalLeaseIndex` instead freezes a
sequence of epochs into

* one **base** index (epoch 0, sharing its trie and inverted indexes
  with every historical view),
* one compact :class:`EpochRecord` per later epoch — the changed leaf
  payloads, the touched by-origin rows, and the (tiny) post-epoch
  category tallies, and
* sparse **checkpoints**: every ``checkpoint_interval``-th cumulative
  view is kept whole, so materializing epoch *e* replays at most
  ``interval - 1`` records onto the nearest checkpoint at or below it.

Point-in-time resolution is ``O(log epochs)`` to locate the epoch
(:class:`EpochSkipList` bisects the timestamp rail), plus
``O(interval × changes-per-epoch)`` to replay from the checkpoint; a
small LRU of materialized views makes repeated queries at the same
epoch O(1).  Leaf rows (a category plus the answer's JSON bytes, see
:data:`~repro.core.leaseindex.Row`) are **shared** between records,
checkpoints, and views — the delta encoding stores each changed answer
once, never copies it per epoch.

Epochs are immutable once built: streaming updates create new *serve*
generations (:meth:`LeaseIndex.with_updates`); the temporal index is
the frozen history those generations leave behind.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.context import AnalysisContext
from ..core.leaseindex import (
    DeltaLeaseIndex,
    LeaseIndex,
    Row,
    encode_object,
    encode_value,
)
from ..core.results import LeafInference
from ..net import Prefix

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_VIEW_CACHE",
    "EpochRecord",
    "EpochSkipList",
    "TemporalLeaseIndex",
    "index_encoded_bytes",
]

Payload = Dict[str, object]

#: Keep one full cumulative view every this-many epochs.  Replay cost
#: for a point-in-time query is bounded by ``interval - 1`` records.
DEFAULT_CHECKPOINT_INTERVAL = 8

#: Materialized historical views kept hot (LRU), on top of the
#: permanent checkpoints.
DEFAULT_VIEW_CACHE = 8


@dataclass(frozen=True)
class EpochRecord:
    """The delta one epoch applied to the previous one.

    ``overrides`` maps each changed leaf to its post-epoch row (the
    same object the cumulative views share); ``origin_rows`` holds
    the post-epoch by-origin inverted-index rows for every ASN whose
    membership moved (an empty tuple marks the ASN as gone);
    ``by_category``/``leased`` are the full post-epoch tallies — small
    enough that storing them whole beats reconstructing them.
    """

    timestamp: int
    overrides: Dict[Prefix, Row]
    origin_rows: Dict[int, Tuple[Prefix, ...]]
    by_category: Dict[str, int]
    leased: int

    def encoded_bytes(self) -> int:
        """The JSON-encoded size of this record (bench accounting)."""
        body = {
            "timestamp": encode_value(self.timestamp),
            "overrides": encode_object({
                str(prefix): answer
                for prefix, (_category, answer) in self.overrides.items()
            }),
            "origin_rows": encode_value({
                str(asn): [str(p) for p in row]
                for asn, row in self.origin_rows.items()
            }),
            "by_category": encode_value(self.by_category),
            "leased": encode_value(self.leased),
        }
        return len(encode_object(body))


class EpochSkipList:
    """The epoch rail: timestamps plus checkpoint skip pointers.

    ``locate`` bisects the sorted timestamps (O(log epochs)) and
    ``checkpoint_below`` jumps straight to the nearest retained full
    view — together they bound a point-in-time resolution by
    ``O(log epochs + interval)`` instead of a replay from genesis.
    """

    def __init__(self, timestamps: Sequence[int], interval: int) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        for earlier, later in zip(timestamps, timestamps[1:]):
            if later <= earlier:
                raise ValueError(
                    "epoch timestamps must be strictly increasing: "
                    f"{earlier} then {later}"
                )
        self._timestamps: List[int] = list(timestamps)
        self._interval = interval

    @property
    def interval(self) -> int:
        """Epochs between retained checkpoints."""
        return self._interval

    def timestamps(self) -> List[int]:
        """Every epoch timestamp, ascending (epoch 0 first)."""
        return list(self._timestamps)

    def __len__(self) -> int:
        return len(self._timestamps)

    def locate(self, timestamp: int) -> Optional[int]:
        """The epoch live at *timestamp*, or None before epoch 0."""
        index = bisect.bisect_right(self._timestamps, timestamp)
        if index == 0:
            return None
        return index - 1

    def checkpoint_below(self, epoch: int) -> int:
        """The nearest checkpointed epoch at or below *epoch* (0 = base)."""
        return (epoch // self._interval) * self._interval


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
        self,
        base: LeaseIndex,
        skiplist: EpochSkipList,
        records: Sequence[EpochRecord],
        checkpoints: Dict[int, LeaseIndex],
        view_cache_size: int = DEFAULT_VIEW_CACHE,
    ) -> None:
        if len(skiplist) != len(records) + 1:
            raise ValueError(
                f"skip list covers {len(skiplist)} epochs but "
                f"{len(records)} records were given"
            )
        self._base = base
        self._skiplist = skiplist
        self._records: Tuple[EpochRecord, ...] = tuple(records)
        self._checkpoints = dict(checkpoints)
        self._views: "OrderedDict[int, LeaseIndex]" = OrderedDict()
        self._view_cache_size = max(1, view_cache_size)

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        context: AnalysisContext,
        base: LeaseIndex,
        base_timestamp: int,
        epoch_changes: Sequence[Tuple[int, Sequence[LeafInference]]],
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        view_cache_size: int = DEFAULT_VIEW_CACHE,
    ) -> "TemporalLeaseIndex":
        """Freeze *base* (live at *base_timestamp*) plus the epoch deltas.

        Each ``(timestamp, changes)`` entry describes one later epoch as
        the leaf rows that differ from the previous epoch.  Timestamps
        must be strictly increasing; a change naming an unindexed leaf
        raises ``KeyError`` (epochs move BGP evidence, never the
        WHOIS-derived leaf set).  *context* is only used during the
        build — the finished index holds no reference to it.
        """
        timestamps = [base_timestamp]
        records: List[EpochRecord] = []
        checkpoints: Dict[int, LeaseIndex] = {}
        previous = base
        for number, (timestamp, changes) in enumerate(epoch_changes, 1):
            changes = list(changes)
            touched: Set[int] = set()
            for inference in changes:
                if previous.row(inference.prefix) is None:
                    raise KeyError(
                        f"epoch {number} changes unindexed leaf "
                        f"{inference.prefix}"
                    )
                touched.update(inference.leaf_origins)
            view = previous.with_updates(context, changes)
            # An old origin a changed leaf dropped lost an entry from its
            # by-origin row, so the rows that moved plus the new origins
            # are the old and new origins, without decoding old answers.
            before, after = previous.origin_rows(), view.origin_rows()
            touched.update(
                asn for asn in before.keys() | after.keys()
                if before.get(asn) != after.get(asn)
            )
            overrides: Dict[Prefix, Row] = {}
            for inference in changes:
                row = view.row(inference.prefix)
                assert row is not None
                overrides[inference.prefix] = row
            records.append(
                EpochRecord(
                    timestamp=timestamp,
                    overrides=overrides,
                    origin_rows={
                        asn: view.origin_prefixes(asn)
                        for asn in sorted(touched)
                    },
                    by_category=view.category_tallies(),
                    leased=view.leased_count,
                )
            )
            timestamps.append(timestamp)
            if number % checkpoint_interval == 0:
                checkpoints[number] = view
            previous = view
        return cls(
            base=base,
            skiplist=EpochSkipList(timestamps, checkpoint_interval),
            records=records,
            checkpoints=checkpoints,
            view_cache_size=view_cache_size,
        )

    # -- shape -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of epoch states (base epoch included)."""
        return len(self._skiplist)

    @property
    def epochs(self) -> int:
        """Highest epoch number (0 when only the base exists)."""
        return len(self._records)

    def timestamps(self) -> List[int]:
        """Every epoch timestamp, ascending (epoch 0 first)."""
        return self._skiplist.timestamps()

    def record(self, epoch: int) -> EpochRecord:
        """The change record behind *epoch* (1-based; base has none)."""
        if not 1 <= epoch <= len(self._records):
            raise IndexError(f"no record for epoch {epoch}")
        return self._records[epoch - 1]

    # -- resolution --------------------------------------------------------
    def locate(self, timestamp: int) -> Optional[int]:
        """The epoch live at *timestamp*, or None before recorded history."""
        return self._skiplist.locate(timestamp)

    def index_at(
        self, timestamp: int
    ) -> Optional[Tuple[int, LeaseIndex]]:
        """``(epoch, view)`` live at *timestamp*; None before epoch 0."""
        epoch = self.locate(timestamp)
        if epoch is None:
            return None
        return epoch, self.index_for_epoch(epoch)

    def latest(self) -> LeaseIndex:
        """The view at the newest epoch (what "no ``?at=``" serves)."""
        return self.index_for_epoch(self.epochs)

    def index_for_epoch(self, epoch: int) -> LeaseIndex:
        """The full query surface as of *epoch* (0 = the base index).

        Nearest checkpoint at or below, then replay — records share
        rows with the views, so a materialization allocates only the
        override and origin-row maps, never the answers.
        """
        if not 0 <= epoch <= len(self._records):
            raise IndexError(
                f"epoch {epoch} out of range 0..{len(self._records)}"
            )
        if epoch == 0:
            return self._base
        held = self._checkpoints.get(epoch)
        if held is not None:
            return held
        cached = self._views.get(epoch)
        if cached is not None:
            self._views.move_to_end(epoch)
            return cached
        anchor = self._skiplist.checkpoint_below(epoch)
        start = self._base if anchor == 0 else self._checkpoints[anchor]
        overrides = start.row_overrides()
        by_origin = start.origin_rows()
        for record in self._records[anchor:epoch]:
            overrides.update(record.overrides)
            for asn, row in record.origin_rows.items():
                if row:
                    by_origin[asn] = row
                else:
                    by_origin.pop(asn, None)
        last = self._records[epoch - 1]
        view: LeaseIndex = DeltaLeaseIndex(
            base=self._base,
            overrides=overrides,
            by_origin=by_origin,
            by_category=dict(last.by_category),
            leased=last.leased,
        )
        self._views[epoch] = view
        while len(self._views) > self._view_cache_size:
            self._views.popitem(last=False)
        return view

    # -- accounting --------------------------------------------------------
    def delta_encoded_bytes(self) -> Dict[str, object]:
        """JSON-encoded size of the delta representation (bench rows).

        The base index is what any single-snapshot service must hold
        anyway; the *marginal* cost of time travel is the records, so
        both are reported separately.
        """
        base_bytes = index_encoded_bytes(self._base)
        record_bytes = [record.encoded_bytes() for record in self._records]
        return {
            "base_bytes": base_bytes,
            "record_bytes": record_bytes,
            "records_total_bytes": sum(record_bytes),
            "epochs": len(self._records),
        }

    def stats(self) -> Payload:
        """JSON-ready summary for ``/v1/stats`` and the CLI."""
        timestamps = self.timestamps()
        changed = sum(len(r.overrides) for r in self._records)
        return {
            "epochs": len(self._records),
            "first_timestamp": timestamps[0],
            "last_timestamp": timestamps[-1],
            "checkpoint_interval": self._skiplist.interval,
            "checkpoints": len(self._checkpoints),
            "changed_leaves_total": changed,
            "base_leaves": len(self._base),
        }


def index_encoded_bytes(index: LeaseIndex) -> int:
    """JSON-encoded size of one full index's answer payloads."""
    answers = {}
    for prefix in index.prefixes():
        row = index.row(prefix)
        assert row is not None
        answers[str(prefix)] = row[1]
    return len(encode_object(answers))
