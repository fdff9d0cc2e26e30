"""LACNIC bulk-WHOIS format parsing and serialization.

LACNIC does not store organisations as independent objects; each
``inetnum`` / ``aut-num`` block embeds ``owner`` and ``ownerid`` fields
(§5.1 step 1 of the paper).  Normalization therefore synthesizes
:class:`OrgRecord` entries from the embedded owner fields so downstream
code sees the same shape for every registry.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..rir import RIR
from .objects import AutNumRecord, InetnumRecord, OrgRecord, RpslObject
from .reader import Record, RecordBuilder
from .rpsl import parse_rpsl, serialize_objects

__all__ = [
    "parse_lacnic",
    "normalize_lacnic_object",
    "synthesize_owner_orgs",
    "inetnum_to_lacnic",
    "autnum_to_lacnic",
    "serialize_lacnic",
]


def parse_lacnic(text: Union[str, Iterable[str]]) -> Iterator[RpslObject]:
    """Yield blocks from LACNIC bulk text (same paragraph grammar)."""
    yield from parse_rpsl(text)


def normalize_lacnic_object(obj: RpslObject) -> Optional[Record]:
    """Convert a LACNIC block to a normalized record, if relevant.

    The embedded ``ownerid`` becomes the record's ``org_id`` and also its
    sole maintainer handle (LACNIC has no maintainer objects).
    """
    if not obj.attributes:
        return None
    return RecordBuilder(RIR.LACNIC).build(obj.attributes)


def synthesize_owner_orgs(objects: Iterable[RpslObject]) -> List[OrgRecord]:
    """Build organisation records from embedded owner fields.

    One record per distinct ``ownerid``; the first-seen ``owner`` name and
    ``country`` win, mirroring how the paper reconstructs LACNIC
    organisations.
    """
    builder = RecordBuilder(RIR.LACNIC)
    for obj in objects:
        builder.owner(dict(reversed(obj.attributes)))
    return list(builder.owners.values())


def _owner_fields(
    org_id: str, owner_name: str, country: str
) -> List[Tuple[str, str]]:
    fields: List[Tuple[str, str]] = []
    if owner_name:
        fields.append(("owner", owner_name))
    fields.append(("ownerid", org_id))
    if country:
        fields.append(("country", country))
    return fields


def inetnum_to_lacnic(record: InetnumRecord, owner_name: str = "") -> RpslObject:
    """Render a normalized block as a LACNIC inetnum (CIDR spelled)."""
    prefixes = record.range.to_prefixes()
    key = str(prefixes[0]) if len(prefixes) == 1 else str(record.range)
    obj = RpslObject()
    obj.add("inetnum", key)
    obj.add("status", record.status)
    for name, value in _owner_fields(
        record.org_id or "", owner_name or record.net_name, record.country or ""
    ):
        obj.add(name, value)
    return obj


def autnum_to_lacnic(record: AutNumRecord, owner_name: str = "") -> RpslObject:
    """Render a normalized AS registration as a LACNIC aut-num."""
    obj = RpslObject()
    obj.add("aut-num", f"AS{record.asn}")
    for name, value in _owner_fields(
        record.org_id or "", owner_name or record.as_name, ""
    ):
        obj.add(name, value)
    return obj


def serialize_lacnic(objects: Iterable[RpslObject]) -> str:
    """Render LACNIC blocks back to bulk text."""
    return serialize_objects(objects)
