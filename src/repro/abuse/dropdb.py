"""Spamhaus ASN-DROP list modelling.

The published ASN-DROP is JSON-lines, one record per blocklisted AS
(``{"asn": 400992, "rir": "arin", "asname": "...", "cc": ".."}``), and
the paper downloads monthly snapshots from February through May 2024
(§4).  :class:`AsnDropList` models one snapshot; :class:`DropArchive`
holds the monthly series.  A line that does not decode raises
:class:`AsnDropError`, which names it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

__all__ = ["AsnDropEntry", "AsnDropError", "AsnDropList", "DropArchive"]


class AsnDropError(ValueError):
    """An ASN-DROP file that cannot be decoded; the message names the
    line."""


@dataclass(frozen=True, order=True)
class AsnDropEntry:
    """One blocklisted AS."""

    asn: int
    asname: str = ""
    rir: str = ""
    cc: str = ""

    def __post_init__(self) -> None:
        if self.asn < 0:
            raise ValueError(f"negative ASN: {self.asn}")


class AsnDropList:
    """One ASN-DROP snapshot."""

    def __init__(self, entries: Iterable[AsnDropEntry] = ()) -> None:
        self._entries: Dict[int, AsnDropEntry] = {}
        for entry in entries:
            self._entries[entry.asn] = entry

    @classmethod
    def from_asns(cls, asns: Iterable[int]) -> "AsnDropList":
        """Build a snapshot from bare ASNs."""
        return cls(AsnDropEntry(asn=asn) for asn in asns)

    @classmethod
    def from_json(cls, text: str) -> "AsnDropList":
        """Parse JSON-lines text (metadata records without ``asn`` skipped).

        Raises :class:`AsnDropError` naming the first line that is not a
        JSON object, or whose ``asn`` is not a non-negative integer, or
        whose ``asname``/``rir``/``cc`` is not a string.
        """
        entries: List[AsnDropEntry] = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = _entry(json.loads(line))
            except ValueError as exc:  # json.JSONDecodeError included
                raise AsnDropError(f"line {number}: {exc}") from None
            if entry is not None:
                entries.append(entry)
        return cls(entries)

    def to_json(self) -> str:
        """Serialize to JSON-lines."""
        lines = []
        for entry in sorted(self._entries.values()):
            record = {"asn": entry.asn}
            if entry.asname:
                record["asname"] = entry.asname
            if entry.rir:
                record["rir"] = entry.rir
            if entry.cc:
                record["cc"] = entry.cc
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def __contains__(self, asn: int) -> bool:
        return asn in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AsnDropEntry]:
        return iter(sorted(self._entries.values()))

    def asns(self) -> FrozenSet[int]:
        """The blocklisted ASNs."""
        return frozenset(self._entries)


class DropArchive:
    """Monthly ASN-DROP snapshots keyed by ``YYYY-MM``."""

    def __init__(self) -> None:
        self._snapshots: Dict[str, AsnDropList] = {}

    def add_month(self, month: str, snapshot: AsnDropList) -> None:
        """Record the snapshot for *month* (``YYYY-MM``)."""
        _validate_month(month)
        self._snapshots[month] = snapshot

    def month(self, month: str) -> Optional[AsnDropList]:
        """The snapshot for *month*, or None."""
        return self._snapshots.get(month)

    def months(self) -> List[str]:
        """Available months, ascending."""
        return sorted(self._snapshots)

    def union(self) -> AsnDropList:
        """ASes blocklisted in any month (the paper's Feb-May union)."""
        merged: Dict[int, AsnDropEntry] = {}
        for month in self.months():
            for entry in self._snapshots[month]:
                merged.setdefault(entry.asn, entry)
        return AsnDropList(merged.values())

    def ever_listed(self, asn: int) -> bool:
        """True when *asn* appears in any monthly snapshot."""
        return any(asn in snapshot for snapshot in self._snapshots.values())

    def __len__(self) -> int:
        return len(self._snapshots)


def _entry(record: object) -> Optional[AsnDropEntry]:
    """One decoded JSON line; None for a record without ``asn``."""
    if not isinstance(record, dict):
        raise ValueError(f"not a JSON object: {type(record).__name__}")
    if "asn" not in record:
        return None  # Spamhaus appends a metadata/timestamp record
    asn = record["asn"]
    if isinstance(asn, str):
        asn = int(asn)
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise ValueError(f"non-integer asn: {asn!r}")
    names = ("asname", "rir", "cc")
    values = [record.get(name, "") for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, str):
            raise ValueError(f"{name} is not a string: {value!r}")
    return AsnDropEntry(asn, *values)


def _validate_month(month: str) -> None:
    parts = month.split("-")
    if (
        len(parts) != 2
        or len(parts[0]) != 4
        or not parts[0].isdigit()
        or not parts[1].isdigit()
        or not 1 <= int(parts[1]) <= 12
    ):
        raise ValueError(f"month must be YYYY-MM, got {month!r}")
