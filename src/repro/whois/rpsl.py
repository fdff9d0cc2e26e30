"""RPSL flat-file parsing and serialization (RIPE, APNIC, AFRINIC style).

Handles the split-file dump conventions of ``ftp.ripe.net/ripe/dbase``:
objects are paragraphs separated by blank lines, ``%`` and ``#`` lines are
comments, and attribute values may continue onto following lines that start
with whitespace or ``+``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from ..rir import RIR
from .objects import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    RpslObject,
)
from .reader import Record, RecordBuilder, paragraphs

__all__ = [
    "parse_rpsl",
    "serialize_object",
    "serialize_objects",
    "normalize_rpsl_object",
]


def parse_rpsl(text: Union[str, Iterable[str]]) -> Iterator[RpslObject]:
    """Yield :class:`RpslObject` paragraphs from dump text or lines.

    Tokenized by :func:`~repro.whois.reader.paragraphs`, so a stray
    continuation line raises :class:`~repro.whois.reader.WhoisError`.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    for _start, attributes in paragraphs(lines):
        yield RpslObject(attributes)


def serialize_object(obj: RpslObject, column: int = 16) -> str:
    """Render one object in aligned RPSL form (no trailing blank line)."""
    rendered: List[str] = []
    for name, value in obj.attributes:
        label = f"{name}:"
        rendered.append(f"{label:<{column}}{value}".rstrip())
    return "\n".join(rendered)


def serialize_objects(objects: Iterable[RpslObject], column: int = 16) -> str:
    """Render many objects separated by blank lines, ending with newline."""
    parts = [serialize_object(obj, column=column) for obj in objects]
    return "\n\n".join(parts) + ("\n" if parts else "")


def normalize_rpsl_object(rir: RIR, obj: RpslObject) -> Optional[Record]:
    """Convert a parsed RPSL object to its normalized record, if relevant.

    Returns None for classes the pipeline does not use (route, person,
    domain, ...) and for IPv6 ``inet6num`` objects — the paper studies IPv4
    only.
    """
    if not obj.attributes:
        return None
    return RecordBuilder(rir).build(obj.attributes)


def inetnum_to_rpsl(record: InetnumRecord) -> RpslObject:
    """Render a normalized inetnum back into an RPSL object."""
    obj = RpslObject()
    obj.add("inetnum", str(record.range))
    if record.net_name:
        obj.add("netname", record.net_name)
    if record.country:
        obj.add("country", record.country)
    if record.org_id:
        obj.add("org", record.org_id)
    obj.add("status", record.status)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj


def autnum_to_rpsl(record: AutNumRecord) -> RpslObject:
    """Render a normalized aut-num back into an RPSL object."""
    obj = RpslObject()
    obj.add("aut-num", f"AS{record.asn}")
    if record.as_name:
        obj.add("as-name", record.as_name)
    if record.org_id:
        obj.add("org", record.org_id)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj


def org_to_rpsl(record: OrgRecord) -> RpslObject:
    """Render a normalized organisation back into an RPSL object."""
    obj = RpslObject()
    obj.add("organisation", record.org_id)
    obj.add("org-name", record.name)
    if record.country:
        obj.add("country", record.country)
    for handle in record.maintainers:
        obj.add("mnt-by", handle)
    obj.add("source", record.rir.whois_source)
    return obj
