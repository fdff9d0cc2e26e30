"""Indexed in-memory WHOIS databases.

A :class:`WhoisDatabase` holds the normalized records of one registry and,
from its first query on, the indexes the inference needs:

* address blocks by maintainer handle and by organisation (broker matching,
  §5.3, and facilitator attribution, §6.3),
* AS registrations by organisation (§5.1 step 3 "Assign AS numbers"),
* organisations by handle and by normalized name (§5.3 name matching).

A :class:`WhoisCollection` bundles the five regional databases.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..rir import ALL_RIRS, RIR
from . import arin as arin_format
from . import lacnic as lacnic_format
from . import rpsl as rpsl_format
from .objects import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
)
from .reader import Record, WhoisError, read_records

__all__ = ["WhoisDatabase", "WhoisCollection"]


class _Indexes:
    """A database's secondary indexes, all built together from its records."""

    __slots__ = (
        "inetnums_by_maintainer",
        "inetnums_by_org",
        "autnums_by_org",
        "autnum_by_asn",
        "orgs_by_name",
    )

    def __init__(self, database: WhoisDatabase) -> None:
        by_maintainer: Dict[str, List[InetnumRecord]] = {}
        inetnums_by_org: Dict[str, List[InetnumRecord]] = {}
        for inetnum in database.inetnums:
            for handle in inetnum.maintainers:
                by_maintainer.setdefault(handle, []).append(inetnum)
            if inetnum.org_id:
                inetnums_by_org.setdefault(inetnum.org_id, []).append(inetnum)
        autnums_by_org: Dict[str, List[AutNumRecord]] = {}
        autnum_by_asn: Dict[int, AutNumRecord] = {}
        for autnum in database.autnums:
            if autnum.org_id:
                autnums_by_org.setdefault(autnum.org_id, []).append(autnum)
            autnum_by_asn[autnum.asn] = autnum
        orgs_by_name: Dict[str, List[OrgRecord]] = {}
        for org in database.orgs.values():
            orgs_by_name.setdefault(org.normalized_name(), []).append(org)
        self.inetnums_by_maintainer = by_maintainer
        self.inetnums_by_org = inetnums_by_org
        self.autnums_by_org = autnums_by_org
        self.autnum_by_asn = autnum_by_asn
        self.orgs_by_name = orgs_by_name


class WhoisDatabase:
    """Normalized WHOIS snapshot for a single registry.

    ``add`` only files each record in :attr:`inetnums`, :attr:`autnums`,
    :attr:`orgs` or :attr:`mntners`.  The secondary indexes behind the
    query methods (by maintainer, by organisation, by AS number and by
    organisation name) are built from those on the first query; an
    ``add`` drops them and the next query builds them again.  A database
    that is never queried, as on the serve path, never holds them.
    """

    def __init__(self, rir: RIR) -> None:
        self.rir = rir
        self.inetnums: List[InetnumRecord] = []
        self.autnums: List[AutNumRecord] = []
        self.orgs: Dict[str, OrgRecord] = {}
        self.mntners: Dict[str, MntnerRecord] = {}
        self._indexes: Optional[_Indexes] = None

    # -- loading -------------------------------------------------------------
    def add(self, record: Record) -> None:
        """Insert one normalized record (the next query re-indexes)."""
        if isinstance(record, InetnumRecord):
            self.inetnums.append(record)
        elif isinstance(record, AutNumRecord):
            self.autnums.append(record)
        elif isinstance(record, OrgRecord):
            self.orgs[record.org_id] = record
        elif isinstance(record, MntnerRecord):
            self.mntners[record.handle] = record
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported record type: {type(record)!r}")
        self._indexes = None

    def add_all(self, records: Iterable[Record]) -> None:
        """Insert many records."""
        for record in records:
            self.add(record)

    def _index(self) -> _Indexes:
        """The secondary indexes, built on first use."""
        if self._indexes is None:
            self._indexes = _Indexes(self)
        return self._indexes

    @classmethod
    def from_file(cls, rir: RIR, path: Union[str, Path]) -> "WhoisDatabase":
        """Parse a registry dump file line by line, without loading it whole.

        A :class:`~repro.whois.reader.WhoisError` names the file and line.
        """
        try:
            with open(path) as handle:
                return cls.from_text(rir, handle)
        except UnicodeDecodeError as exc:
            line = _undecodable_line(Path(path), exc.encoding)
            raise WhoisError(f"{path}: line {line}: {exc.reason}") from None
        except WhoisError as exc:
            raise WhoisError(f"{path}: {exc}") from None

    @classmethod
    def from_text(
        cls, rir: RIR, text: Union[str, Iterable[str]]
    ) -> "WhoisDatabase":
        """Parse a registry dump in that registry's native flavour.

        *text* is the dump's text or an iterable of its lines; a
        :class:`~repro.whois.reader.WhoisError` names the line.
        """
        database = cls(rir)
        lines = text.splitlines() if isinstance(text, str) else text
        database.add_all(read_records(rir, lines))
        return database

    def to_text(self) -> str:
        """Serialize back to the registry's native dump flavour.

        RPSL-style dumps carry the conventional ``%`` header block; the
        parsers skip comments, so round trips are unaffected.
        """
        if self.rir is RIR.ARIN:
            blocks = (
                [arin_format.org_to_arin(org) for org in self.orgs.values()]
                + [arin_format.asn_to_arin(rec) for rec in self.autnums]
                + [arin_format.net_to_arin(rec) for rec in self.inetnums]
            )
            return arin_format.serialize_arin(blocks)
        if self.rir is RIR.LACNIC:
            blocks = [
                lacnic_format.inetnum_to_lacnic(
                    rec, owner_name=self._owner_name(rec.org_id)
                )
                for rec in self.inetnums
            ] + [
                lacnic_format.autnum_to_lacnic(
                    rec, owner_name=self._owner_name(rec.org_id)
                )
                for rec in self.autnums
            ]
            return lacnic_format.serialize_lacnic(blocks)
        blocks = (
            [rpsl_format.org_to_rpsl(org) for org in self.orgs.values()]
            + [rpsl_format.autnum_to_rpsl(rec) for rec in self.autnums]
            + [rpsl_format.inetnum_to_rpsl(rec) for rec in self.inetnums]
        )
        header = (
            f"% This is a {self.rir.name} database snapshot.\n"
            f"% Objects: {len(self.orgs)} organisations, "
            f"{len(self.autnums)} aut-nums, {len(self.inetnums)} inetnums.\n"
            "\n"
        )
        return header + rpsl_format.serialize_objects(blocks)

    def _owner_name(self, org_id: Optional[str]) -> str:
        if org_id and org_id in self.orgs:
            return self.orgs[org_id].name
        return ""

    # -- queries -------------------------------------------------------------
    def inetnums_by_maintainer(self, handle: str) -> List[InetnumRecord]:
        """Address blocks whose maintainers include *handle*."""
        return list(self._index().inetnums_by_maintainer.get(handle, ()))

    def inetnums_by_org(self, org_id: str) -> List[InetnumRecord]:
        """Address blocks registered to organisation *org_id*."""
        return list(self._index().inetnums_by_org.get(org_id, ()))

    def autnums_by_org(self, org_id: str) -> List[AutNumRecord]:
        """AS registrations of organisation *org_id* (§5.1 step 3)."""
        return list(self._index().autnums_by_org.get(org_id, ()))

    def asns_of_org(self, org_id: str) -> List[int]:
        """The AS numbers registered to *org_id*."""
        return [record.asn for record in self.autnums_by_org(org_id)]

    def autnum(self, asn: int) -> Optional[AutNumRecord]:
        """The registration of *asn*, or None."""
        return self._index().autnum_by_asn.get(asn)

    def org(self, org_id: str) -> Optional[OrgRecord]:
        """The organisation with handle *org_id*, or None."""
        return self.orgs.get(org_id)

    def orgs_named(self, name: str) -> List[OrgRecord]:
        """Organisations whose normalized name equals *name* (case-folded)."""
        key = " ".join(name.split()).casefold()
        return list(self._index().orgs_by_name.get(key, ()))

    def org_names(self) -> List[str]:
        """All organisation display names (for fuzzy matching)."""
        return [org.name for org in self.orgs.values()]

    def maintainer_handles(self) -> List[str]:
        """All maintainer handles appearing on address blocks."""
        return list(self._index().inetnums_by_maintainer)

    def __len__(self) -> int:
        return (
            len(self.inetnums)
            + len(self.autnums)
            + len(self.orgs)
            + len(self.mntners)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WhoisDatabase({self.rir.name}: {len(self.inetnums)} blocks, "
            f"{len(self.autnums)} autnums, {len(self.orgs)} orgs)"
        )


def _undecodable_line(path: Path, encoding: str) -> int:
    """The 1-based line of *path* that does not decode as *encoding*."""
    number = 0
    with path.open("rb") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                raw.decode(encoding)
            except UnicodeDecodeError:
                break
    return number


class WhoisCollection:
    """The five regional databases, addressable by registry."""

    def __init__(
        self, databases: Optional[Dict[RIR, WhoisDatabase]] = None
    ) -> None:
        self._databases: Dict[RIR, WhoisDatabase] = {
            rir: WhoisDatabase(rir) for rir in ALL_RIRS
        }
        if databases:
            self._databases.update(databases)

    def __getitem__(self, rir: RIR) -> WhoisDatabase:
        return self._databases[rir]

    def __iter__(self) -> Iterator[WhoisDatabase]:
        return iter(self._databases.values())

    def databases(self) -> Dict[RIR, WhoisDatabase]:
        """The registry → database mapping (live, not a copy)."""
        return self._databases

    def total_inetnums(self) -> int:
        """Address blocks across all registries."""
        return sum(len(db.inetnums) for db in self)
