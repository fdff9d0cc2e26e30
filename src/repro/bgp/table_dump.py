"""Text table-dump format (the ``bgpdump -m`` pipe style).

Routeviews and RIPE RIS RIB archives are conventionally post-processed
into one-line-per-route pipe-separated records::

    TABLE_DUMP2|1712102400|B|198.32.160.1|3356|213.210.33.0/24|3356 8851 15169|IGP

Fields: marker, unix timestamp, type, peer address, peer ASN, prefix,
AS path, origin protocol.  This module reads and writes that format so
synthetic RIBs are materialized the same way real ones would be.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, TextIO, Union

from ..net import Prefix
from .aspath import ASPath
from .rib import RibEntry

__all__ = ["parse_line", "read_table_dump", "write_table_dump"]

_MARKER = "TABLE_DUMP2"
_TYPE = "B"
_PROTOCOL = "IGP"


class TableDumpError(ValueError):
    """Raised on malformed table-dump lines."""


def format_entry(entry: RibEntry) -> str:
    """Render one RIB row as a pipe-separated line."""
    return "|".join(
        (
            _MARKER,
            str(entry.timestamp),
            _TYPE,
            entry.peer_address,
            str(entry.peer_asn),
            str(entry.prefix),
            str(entry.path),
            _PROTOCOL,
        )
    )


def parse_line(line: str) -> RibEntry:
    """Parse one pipe-separated line into a :class:`RibEntry`."""
    fields = line.rstrip("\n").split("|")
    if len(fields) < 7:
        raise TableDumpError(f"too few fields: {line!r}")
    marker, timestamp, _type, peer_address, peer_asn, prefix, path = fields[:7]
    if marker != _MARKER:
        raise TableDumpError(f"unexpected marker {marker!r}")
    try:
        return RibEntry(
            prefix=Prefix.parse(prefix),
            path=ASPath.parse(path),
            peer_asn=int(peer_asn),
            peer_address=peer_address,
            timestamp=int(timestamp),
        )
    except ValueError as exc:
        raise TableDumpError(f"malformed line {line!r}: {exc}") from exc


def read_table_dump(
    source: Union[str, TextIO, Iterable[str]], strict: bool = False
) -> Iterator[RibEntry]:
    """Yield RIB rows from dump text, an open file, or an iterable of lines.

    Real archives contain occasional malformed rows; by default they are
    skipped, matching common measurement practice.  Pass ``strict=True``
    to raise instead: the :class:`TableDumpError` message starts with
    the row's 1-based line number (``"line 7: too few fields: ..."``).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            entry = parse_line(line)
        except TableDumpError as exc:
            if strict:
                raise TableDumpError(f"line {number}: {exc}") from exc
            continue
        yield entry


def write_table_dump(entries: Iterable[RibEntry]) -> str:
    """Render RIB rows to dump text (one line each, trailing newline)."""
    rendered: List[str] = [format_entry(entry) for entry in entries]
    return "\n".join(rendered) + ("\n" if rendered else "")
