"""WHOIS object models.

Two layers:

* :class:`RpslObject` — a faithful, ordered attribute/value representation
  of one database paragraph, shared by the RPSL-style registries (RIPE,
  APNIC, AFRINIC) and reused as the generic block model for ARIN and
  LACNIC bulk formats.
* Normalized records (:class:`InetnumRecord`, :class:`AutNumRecord`,
  :class:`OrgRecord`, :class:`MntnerRecord`) — the registry-independent
  view the inference pipeline consumes (§5.1 step 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..net import AddressRange
from ..net.slots import slotted
from ..rir import RIR
from .statuses import Portability, classify_status

__all__ = [
    "RpslObject",
    "InetnumRecord",
    "AutNumRecord",
    "OrgRecord",
    "MntnerRecord",
]


@dataclass
class RpslObject:
    """One WHOIS object as an ordered list of ``(attribute, value)`` pairs.

    The object class is the name of the first attribute (``inetnum``,
    ``aut-num``, ...) and the primary key is its value, matching RPSL
    conventions.  Attribute names are normalized to lower case; values keep
    their original spelling.
    """

    attributes: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def object_class(self) -> str:
        """The object class, e.g. ``inetnum`` — empty for empty objects."""
        return self.attributes[0][0] if self.attributes else ""

    @property
    def primary_key(self) -> str:
        """The value of the class attribute."""
        return self.attributes[0][1] if self.attributes else ""

    def first(self, name: str) -> Optional[str]:
        """The first value of attribute *name*, or None."""
        name = name.lower()
        for attr, value in self.attributes:
            if attr == name:
                return value
        return None

    def all(self, name: str) -> List[str]:
        """All values of attribute *name* in order."""
        name = name.lower()
        return [value for attr, value in self.attributes if attr == name]

    def add(self, name: str, value: str) -> "RpslObject":
        """Append an attribute; returns self for chaining."""
        self.attributes.append((name.lower(), value))
        return self

    def __contains__(self, name: str) -> bool:
        return self.first(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)


@slotted
@dataclass(frozen=True)
class InetnumRecord:
    """A normalized IPv4 address-block registration.

    ``maintainers`` carries RPSL ``mnt-by`` handles (used both for the
    facilitator role in Fig. 2 and the broker matching of §5.3); ARIN and
    LACNIC records reuse the field for their closest equivalent (OrgID /
    owner-id) so the broker matching works uniformly.
    """

    rir: RIR
    range: AddressRange
    status: str
    org_id: Optional[str] = None
    maintainers: Tuple[str, ...] = ()
    net_name: str = ""
    handle: str = ""
    parent_handle: Optional[str] = None
    country: Optional[str] = None
    source_class: str = "inetnum"

    @property
    def portability(self) -> Portability:
        """Portability category of this block (§2.1)."""
        return classify_status(self.rir, self.status)

    @property
    def is_legacy(self) -> bool:
        """True for legacy blocks, which the methodology excludes."""
        return self.portability is Portability.LEGACY


@slotted
@dataclass(frozen=True)
class AutNumRecord:
    """A normalized AS-number registration (aut-num / ASHandle)."""

    rir: RIR
    asn: int
    org_id: Optional[str]
    maintainers: Tuple[str, ...] = ()
    as_name: str = ""
    handle: str = ""

    def __post_init__(self) -> None:
        if self.asn < 0:
            raise ValueError(f"negative ASN: {self.asn}")


@slotted
@dataclass(frozen=True)
class OrgRecord:
    """A normalized organisation (organisation / OrgID / owner)."""

    rir: RIR
    org_id: str
    name: str
    maintainers: Tuple[str, ...] = ()
    country: Optional[str] = None

    def normalized_name(self) -> str:
        """Case-folded, whitespace-collapsed name for matching."""
        return " ".join(self.name.split()).casefold()


@slotted
@dataclass(frozen=True)
class MntnerRecord:
    """A normalized maintainer object (RPSL registries only)."""

    rir: RIR
    handle: str
    admin_contact: Optional[str] = None
    org_id: Optional[str] = None


def parse_asn(text: str) -> int:
    """Parse an ASN in ``AS15169`` or bare-integer form."""
    text = text.strip().upper()
    if text.startswith("AS"):
        text = text[2:]
    try:
        asn = int(text)
    except ValueError:
        raise ValueError(f"malformed ASN: {text!r}") from None
    if asn < 0 or asn > 0xFFFFFFFF:
        raise ValueError(f"ASN out of range: {asn}")
    return asn


def format_asn(asn: int) -> str:
    """Format an ASN as ``AS<number>``."""
    return f"AS{asn}"
