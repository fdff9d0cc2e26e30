"""Time-series archive of RPKI snapshots.

Models the 30-minute-granularity RPKI archive of §4: an ordered sequence
of ``(timestamp, RoaSet)`` snapshots with point-in-time lookup and
per-prefix history extraction — the ingredients of the Fig. 3 lease
timeline.  On disk an archive is a directory of ``vrps-<timestamp>.csv``
files, one VRP CSV per snapshot, mirroring how public RPKI archives are
published.

Opening a directory lists and checks the file names only.  A snapshot
is decoded the first time something reads it and is kept from then on,
so a malformed snapshot file raises :class:`~repro.rpki.roa.VrpError`
(naming the file and line) on that first read, not when the archive is
opened.  ``timestamps()`` and ``len()`` decode nothing.
"""

from __future__ import annotations

import bisect
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..net import Prefix
from .roa import RoaSet, VrpError

__all__ = ["RpkiArchive"]

_SNAPSHOT_NAME = re.compile(r"vrps-([0-9]+)\.csv")


class RpkiArchive:
    """An append-only, timestamp-ordered series of ROA snapshots."""

    def __init__(self) -> None:
        self._timestamps: List[int] = []
        #: Decoded snapshots; a timestamp missing here is in ``_files``.
        self._snapshots: Dict[int, RoaSet] = {}
        #: VRP CSV files not read yet, by timestamp.
        self._files: Dict[int, Path] = {}

    def add_snapshot(self, timestamp: int, roas: RoaSet) -> None:
        """Record the snapshot taken at *timestamp* (seconds)."""
        self._insert_timestamp(timestamp)
        self._files.pop(timestamp, None)
        self._snapshots[timestamp] = roas

    def _insert_timestamp(self, timestamp: int) -> None:
        if timestamp not in self._snapshots and timestamp not in self._files:
            bisect.insort(self._timestamps, timestamp)

    def _snapshot(self, timestamp: int) -> RoaSet:
        """The snapshot at exactly *timestamp*, decoded on first read.

        Two threads reading the same new snapshot may both decode it;
        ``setdefault`` keeps the first result, so both get one object.
        """
        roas = self._snapshots.get(timestamp)
        if roas is not None:
            return roas
        path = self._files[timestamp]
        try:
            decoded = RoaSet.from_csv(path.read_text())
        except (VrpError, UnicodeDecodeError) as exc:
            raise VrpError(f"{path}: {exc}") from None
        return self._snapshots.setdefault(timestamp, decoded)

    def timestamps(self) -> List[int]:
        """All snapshot timestamps, ascending."""
        return list(self._timestamps)

    def snapshot_at(self, timestamp: int) -> Optional[RoaSet]:
        """The most recent snapshot at or before *timestamp*, or None."""
        index = bisect.bisect_right(self._timestamps, timestamp)
        if index == 0:
            return None
        return self._snapshot(self._timestamps[index - 1])

    def latest(self) -> Optional[RoaSet]:
        """The newest snapshot, or None when empty."""
        if not self._timestamps:
            return None
        return self._snapshot(self._timestamps[-1])

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[Tuple[int, RoaSet]]:
        for timestamp in self._timestamps:
            yield timestamp, self._snapshot(timestamp)

    # -- per-prefix history -----------------------------------------------
    def authorized_origin_history(
        self, prefix: Prefix
    ) -> List[Tuple[int, FrozenSet[int]]]:
        """For each snapshot, the ASNs some covering ROA names for *prefix*.

        This is the RPKI series plotted in Fig. 3: the set of authorized
        origins over time, including AS0 markers between leases.
        """
        return [
            (timestamp, roas.authorized_origins(prefix))
            for timestamp, roas in self
        ]

    # -- directory format ---------------------------------------------------
    def to_directory(self, directory: Path) -> None:
        """Write one ``vrps-<timestamp>.csv`` per snapshot."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for timestamp, snapshot in self:
            path = directory / f"vrps-{timestamp:012d}.csv"
            path.write_text(snapshot.to_csv())

    @classmethod
    def from_directory(cls, directory: Path) -> "RpkiArchive":
        """Open an archive written by :meth:`to_directory`.

        Only the file names are read here; each snapshot is decoded when
        first read.  A name that is not ``vrps-<digits>.csv`` raises
        :class:`VrpError` now.  When two names give one timestamp, the
        later name in sorted order wins.
        """
        archive = cls()
        for path in sorted(Path(directory).glob("vrps-*.csv")):
            match = _SNAPSHOT_NAME.fullmatch(path.name)
            if match is None:
                raise VrpError(f"{path}: not a vrps-<timestamp>.csv name")
            timestamp = int(match.group(1))
            archive._insert_timestamp(timestamp)
            archive._files[timestamp] = path
        return archive

    def change_points(self, prefix: Prefix) -> List[Tuple[int, FrozenSet[int]]]:
        """Snapshots where the authorized-origin set changed.

        The first snapshot always appears.  Collapses the 30-minute series
        into the lease-boundary events of §6.5.
        """
        changes: List[Tuple[int, FrozenSet[int]]] = []
        previous: Optional[FrozenSet[int]] = None
        for timestamp, origins in self.authorized_origin_history(prefix):
            if previous is None or origins != previous:
                changes.append((timestamp, origins))
                previous = origins
        return changes
