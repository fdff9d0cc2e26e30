"""One line-oriented reader for the three WHOIS dump dialects.

RPSL (RIPE, APNIC, AFRINIC), ARIN bulk and LACNIC bulk dumps share one
paragraph grammar: objects are blocks of ``attribute: value`` lines
separated by blank lines, ``%`` and ``#`` lines are comments, and a line
that starts with whitespace or ``+`` continues the previous value.
:func:`paragraphs` tokenizes that grammar once for all of them, straight
from any iterable of lines (an open file streams), and counts 1-based
lines as it goes.  :class:`RecordBuilder` turns a paragraph into the
normalized record of its registry's dialect.

A line without a colon is skipped: real RIR dumps contain a few.  A
continuation line before the first attribute of an object, and an
object whose range or AS number cannot be normalized, raise
:class:`WhoisError` naming the line (the first line of the object, for a
normalization failure).

Repeated values — statuses, countries, organisation and maintainer
handles, maintainer tuples — are shared through the builder's memo, so
the thousands of blocks one organisation holds refer to one string and
one tuple each.  The memo belongs to one builder, and one builder to
one load; nothing is interned for the life of the process.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..net import AddressRange
from ..rir import RIR
from .objects import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
    parse_asn,
)

__all__ = ["Record", "RecordBuilder", "WhoisError", "paragraphs", "read_records"]

Record = Union[InetnumRecord, AutNumRecord, OrgRecord, MntnerRecord]
Attributes = List[Tuple[str, str]]

_COMMENT_PREFIXES = ("%", "#")
_CONTINUATION = (" ", "\t", "+")
#: First characters that make a line with a colon something other than
#: an attribute (and an empty name, from a line that starts with one).
_NOT_A_NAME = " \t+%#"


class WhoisError(ValueError):
    """A WHOIS dump that cannot be decoded; the message names the line."""


def paragraphs(lines: Iterable[str]) -> Iterator[Tuple[int, Attributes]]:
    """Yield ``(first line number, attributes)`` for every object.

    Attribute names are lower-cased and values stripped; a continuation
    line is joined onto the previous value with one space.
    """
    attributes: Attributes = []
    start = 0
    for number, raw in enumerate(lines, 1):
        name, sep, value = raw.partition(":")
        if sep and name[:1] not in _NOT_A_NAME:  # the common case
            if not attributes:
                start = number
            attributes.append((name.strip().lower(), value.strip()))
            continue
        line = raw.rstrip("\n")
        if line.startswith(_COMMENT_PREFIXES):
            continue
        if not line or line.isspace():
            if attributes:
                yield start, attributes
                attributes = []
            continue
        if line.startswith(_CONTINUATION):
            if not attributes:
                raise WhoisError(
                    f"line {number}: continuation line before any attribute"
                )
            name, value = attributes[-1]
            extra = line[1:].strip() if line[0] == "+" else line.strip()
            attributes[-1] = (name, f"{value} {extra}".strip())
            continue
        if not sep:
            continue
        if not attributes:
            start = number
        attributes.append((name.strip().lower(), value.strip()))
    if attributes:
        yield start, attributes


class RecordBuilder:
    """Normalizes the paragraphs of one registry's dump (§5.1 step 1).

    :meth:`build` returns the record a paragraph describes, or None for
    classes the inference does not use (``route``, ``person``,
    ``inet6num``, ...).  LACNIC has no organisation objects: the builder
    collects one :class:`OrgRecord` per distinct ``ownerid`` in
    :attr:`owners`, first-seen ``owner`` name and ``country`` winning.
    """

    def __init__(self, rir: RIR) -> None:
        self.rir = rir
        self.owners: Dict[str, OrgRecord] = {}
        self._strings: Dict[str, str] = {}
        self._tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        if rir is RIR.ARIN:
            self.build = self._arin
        elif rir is RIR.LACNIC:
            self.build = self._lacnic
        else:
            self.build = self._rpsl

    # -- the memo ------------------------------------------------------------
    def _share(self, value: Optional[str]) -> Optional[str]:
        if value is None:
            return None
        return self._strings.setdefault(value, value)

    def _text(self, value: Optional[str]) -> str:
        if not value:
            return ""
        return self._strings.setdefault(value, value)

    def _only(self, handle: str) -> Tuple[str, ...]:
        """The maintainer tuple of a record kept by *handle* alone."""
        key = (handle,)
        return self._tuples.setdefault(key, key)

    def _handles(self, attributes: Attributes, *names: str) -> Tuple[str, ...]:
        """Every handle of the *names* attributes, split and deduplicated.

        RPSL allows ``mnt-by: A-MNT, B-MNT`` as well as repeated
        attributes; all values of the first name come before the second.
        """
        handles: Dict[str, None] = {}
        share = self._strings.setdefault
        for wanted in names:
            for name, value in attributes:
                if name == wanted:
                    for part in value.replace(",", " ").split():
                        handles[share(part, part)] = None
        key = tuple(handles)
        return self._tuples.setdefault(key, key)

    # -- dialects ------------------------------------------------------------
    def _rpsl(self, attributes: Attributes) -> Optional[Record]:
        cls, key = attributes[0]
        first = dict(reversed(attributes))  # the first value of each name
        if cls == "inetnum":
            return InetnumRecord(
                rir=self.rir,
                range=AddressRange.parse(key),
                status=self._text(first.get("status")),
                org_id=self._share(first.get("org")),
                maintainers=self._handles(attributes, "mnt-by"),
                net_name=first.get("netname") or "",
                handle=key,
                country=self._share(first.get("country")),
                source_class="inetnum",
            )
        if cls == "aut-num":
            return AutNumRecord(
                rir=self.rir,
                asn=parse_asn(key),
                org_id=self._share(first.get("org")),
                maintainers=self._handles(attributes, "mnt-by"),
                as_name=first.get("as-name") or "",
                handle=key,
            )
        if cls == "organisation":
            return OrgRecord(
                rir=self.rir,
                org_id=self._text(key),
                name=first.get("org-name") or "",
                maintainers=self._handles(attributes, "mnt-by", "mnt-ref"),
                country=self._share(first.get("country")),
            )
        if cls == "mntner":
            return MntnerRecord(
                rir=self.rir,
                handle=self._text(key),
                admin_contact=first.get("admin-c"),
                org_id=self._share(first.get("org")),
            )
        return None

    def _arin(self, attributes: Attributes) -> Optional[Record]:
        # ARIN has no maintainer objects; the paper's broker matching
        # keys on OrgIDs instead, so the org handle doubles as the
        # record's maintainer.
        cls, key = attributes[0]
        first = dict(reversed(attributes))
        if cls == "nethandle":
            net_range = first.get("netrange")
            if net_range is None:
                return None
            org_id = self._share(first.get("orgid"))
            return InetnumRecord(
                rir=RIR.ARIN,
                range=AddressRange.parse(net_range),
                status=self._text(first.get("nettype")),
                org_id=org_id,
                maintainers=self._only(org_id) if org_id else (),
                net_name=first.get("netname") or "",
                handle=key,
                parent_handle=self._share(first.get("parent")),
                country=self._share(first.get("country")),
                source_class="NetHandle",
            )
        if cls == "ashandle":
            org_id = self._share(first.get("orgid"))
            return AutNumRecord(
                rir=RIR.ARIN,
                asn=parse_asn(first.get("asnumber") or key),
                org_id=org_id,
                maintainers=self._only(org_id) if org_id else (),
                as_name=first.get("asname") or "",
                handle=key,
            )
        if cls == "orgid":
            org_id = self._text(key)
            return OrgRecord(
                rir=RIR.ARIN,
                org_id=org_id,
                name=first.get("orgname") or "",
                maintainers=self._only(org_id),
                country=self._share(first.get("country")),
            )
        return None

    def _lacnic(self, attributes: Attributes) -> Optional[Record]:
        # The embedded ownerid becomes the record's org_id and its sole
        # maintainer handle; the owner name is the block's net name.
        first = dict(reversed(attributes))
        owner_id, owner = self.owner(first)
        cls, key = attributes[0]
        if cls == "inetnum":
            return InetnumRecord(
                rir=RIR.LACNIC,
                range=AddressRange.parse(key),
                status=self._text(first.get("status")),
                org_id=owner_id,
                maintainers=self._only(owner_id) if owner_id else (),
                net_name=owner,
                handle=key,
                country=self._share(first.get("country")),
                source_class="inetnum",
            )
        if cls == "aut-num":
            return AutNumRecord(
                rir=RIR.LACNIC,
                asn=parse_asn(key),
                org_id=owner_id,
                maintainers=self._only(owner_id) if owner_id else (),
                as_name=owner,
                handle=key,
            )
        return None

    def owner(self, first: Dict[str, str]) -> Tuple[Optional[str], str]:
        """The ``ownerid`` and ``owner`` of a LACNIC block, given its
        first value per attribute; a new owner joins :attr:`owners`."""
        owner_id = self._share(first.get("ownerid"))
        owner = self._text(first.get("owner"))
        if owner_id is not None and owner_id not in self.owners:
            self.owners[owner_id] = OrgRecord(
                rir=RIR.LACNIC,
                org_id=owner_id,
                name=owner,
                maintainers=self._only(owner_id),
                country=self._share(first.get("country")),
            )
        return owner_id, owner


def read_records(rir: RIR, lines: Iterable[str]) -> Iterator[Record]:
    """Every normalized record in a dump of *rir*, in file order.

    LACNIC's synthesized organisations follow the blocks.  Raises
    :class:`WhoisError` naming the first line it cannot read.
    """
    builder = RecordBuilder(rir)
    for start, attributes in paragraphs(lines):
        try:
            record = builder.build(attributes)
        except ValueError as exc:  # AddressError, a bad ASN
            raise WhoisError(f"line {start}: {exc}") from None
        if record is not None:
            yield record
    yield from builder.owners.values()
