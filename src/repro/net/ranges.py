"""Address-range handling: WHOIS range notation and CIDR decomposition.

RIR WHOIS databases describe ``inetnum`` objects as inclusive address
ranges (``213.210.0.0 - 213.210.63.255``) rather than CIDR prefixes.  The
paper's methodology (§5.1 step 2) "convert[s] the address-range notation
into CIDR-prefix notation"; this module implements that conversion exactly:
a range maps to the unique minimal list of CIDR prefixes covering it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from .ipaddr import (
    MAX_IPV4,
    AddressError,
    Prefix,
    address_to_int,
    int_to_address,
)
from .slots import slotted

__all__ = ["AddressRange", "range_to_prefixes", "prefixes_to_ranges"]


@slotted
@dataclass(frozen=True, order=True)
class AddressRange:
    """An inclusive IPv4 address range ``[first, last]``."""

    first: int
    last: int

    def __post_init__(self) -> None:
        if not 0 <= self.first <= MAX_IPV4:
            raise AddressError(f"range start out of bounds: {self.first}")
        if not 0 <= self.last <= MAX_IPV4:
            raise AddressError(f"range end out of bounds: {self.last}")
        if self.first > self.last:
            raise AddressError(
                f"inverted range: {int_to_address(self.first)} - "
                f"{int_to_address(self.last)}"
            )

    @classmethod
    def parse(cls, text: str) -> "AddressRange":
        """Parse WHOIS range notation ``a.b.c.d - e.f.g.h`` or a CIDR.

        Both spellings occur in RIR dumps; LACNIC and ARIN frequently use
        CIDR while RIPE/APNIC/AFRINIC inetnums use dashed ranges.
        """
        text = text.strip()
        if "-" in text:
            first_text, _, last_text = text.partition("-")
            return cls(address_to_int(first_text), address_to_int(last_text))
        prefix = Prefix.parse(text)
        return cls(prefix.first_address, prefix.last_address)

    @classmethod
    def from_prefix(cls, prefix: Prefix) -> "AddressRange":
        """The range exactly covering *prefix*."""
        return cls(prefix.first_address, prefix.last_address)

    def __str__(self) -> str:
        return f"{int_to_address(self.first)} - {int_to_address(self.last)}"

    @property
    def num_addresses(self) -> int:
        """Number of addresses in the range."""
        return self.last - self.first + 1

    def contains(self, other: "AddressRange") -> bool:
        """True when *other* lies entirely within this range."""
        return self.first <= other.first and other.last <= self.last

    def overlaps(self, other: "AddressRange") -> bool:
        """True when the ranges share at least one address."""
        return self.first <= other.last and other.first <= self.last

    def to_prefixes(self) -> List[Prefix]:
        """Minimal CIDR decomposition of this range."""
        return list(range_to_prefixes(self.first, self.last))

    def is_cidr_aligned(self) -> bool:
        """True when the range is exactly one CIDR prefix."""
        prefixes = self.to_prefixes()
        return len(prefixes) == 1


def range_to_prefixes(first: int, last: int) -> Iterator[Prefix]:
    """Yield the minimal CIDR prefixes covering ``[first, last]``.

    Classic greedy algorithm: at each step emit the largest prefix that is
    aligned at *first* and does not overshoot *last*.

    >>> [str(p) for p in range_to_prefixes(
    ...     address_to_int("10.0.0.0"), address_to_int("10.0.2.255"))]
    ['10.0.0.0/23', '10.0.2.0/24']
    """
    if first > last:
        raise AddressError("inverted range")
    cursor = first
    while cursor <= last:
        # Largest block size keeping `cursor` aligned.
        if cursor == 0:
            align_bits = 32
        else:
            align_bits = (cursor & -cursor).bit_length() - 1
        # Largest block size not overshooting `last`.
        span = last - cursor + 1
        span_bits = span.bit_length() - 1
        bits = min(align_bits, span_bits)
        yield Prefix(cursor, 32 - bits)
        cursor += 1 << bits


def prefixes_to_ranges(prefixes: Sequence[Prefix]) -> List[AddressRange]:
    """Coalesce prefixes into maximal disjoint inclusive ranges.

    The input need not be sorted or disjoint; overlapping and adjacent
    prefixes merge into a single range.
    """
    if not prefixes:
        return []
    spans = sorted(prefix.range() for prefix in prefixes)
    merged: List[AddressRange] = []
    current_first, current_last = spans[0]
    for first, last in spans[1:]:
        if first <= current_last + 1:
            current_last = max(current_last, last)
        else:
            merged.append(AddressRange(current_first, current_last))
            current_first, current_last = first, last
    merged.append(AddressRange(current_first, current_last))
    return merged
