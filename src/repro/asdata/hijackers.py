"""Serial BGP hijacker list (Testart et al., IMC 2019).

The paper compares lease originators against "a list of 957 inferred
serial BGP hijackers" (§6.3).  This module models that list as a simple
set of ASNs with an on-disk format of one ASN per line plus ``#``
comments.  A line that is not an ASN raises :class:`HijackerListError`,
which names it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

__all__ = ["HijackerListError", "SerialHijackerList"]


class HijackerListError(ValueError):
    """A hijacker list that cannot be decoded; the message names the
    line."""


class SerialHijackerList:
    """A set of ASes flagged as serial hijackers."""

    def __init__(self, asns: Iterable[int] = ()) -> None:
        self._asns: FrozenSet[int] = frozenset(asns)
        if any(asn < 0 for asn in self._asns):
            raise ValueError("negative ASN in hijacker list")

    @classmethod
    def from_text(cls, text: str) -> "SerialHijackerList":
        """Parse one-ASN-per-line text (``AS`` prefix tolerated).

        Raises :class:`HijackerListError` naming the first line that is
        not a non-negative ASN.
        """
        asns: List[int] = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.upper().startswith("AS"):
                line = line[2:]
            try:
                asn = int(line)
            except ValueError:
                raise HijackerListError(
                    f"line {number}: not an ASN: {line!r}"
                ) from None
            if asn < 0:
                raise HijackerListError(f"line {number}: negative ASN {asn}")
            asns.append(asn)
        return cls(asns)

    def to_text(self) -> str:
        """Serialize to one ASN per line with a header comment."""
        lines = ["# serial BGP hijacker ASNs"]
        lines.extend(str(asn) for asn in sorted(self._asns))
        return "\n".join(lines) + "\n"

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self):
        return iter(sorted(self._asns))

    def asns(self) -> FrozenSet[int]:
        """The flagged ASNs."""
        return self._asns
