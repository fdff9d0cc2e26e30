"""AS-path representation.

Paths are stored origin-last, exactly as they appear in BGP UPDATE
messages and MRT table dumps: ``path[0]`` is the collector peer's AS and
``path[-1]`` is the origin AS whose announcement the inference keys on
(§5.1 step 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from ..net.slots import slotted

__all__ = ["ASPath"]


@slotted
@dataclass(frozen=True)
class ASPath:
    """An immutable AS path (no AS_SET support — sets are long deprecated)."""

    asns: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.asns:
            raise ValueError("empty AS path")
        if any(asn < 0 for asn in self.asns):
            raise ValueError(f"negative ASN in path: {self.asns}")

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a space-separated path, e.g. ``"3356 8851 15169"``."""
        try:
            asns = tuple(int(token) for token in text.split())
        except ValueError:
            raise ValueError(f"malformed AS path: {text!r}") from None
        return cls(asns)

    @classmethod
    def of(cls, *asns: int) -> "ASPath":
        """Build a path from positional ASNs."""
        return cls(tuple(asns))

    @property
    def origin(self) -> int:
        """The origin AS (rightmost)."""
        return self.asns[-1]

    @property
    def peer(self) -> int:
        """The collector-peer AS (leftmost)."""
        return self.asns[0]

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self.asns)

    def without_prepending(self) -> "ASPath":
        """Collapse consecutive duplicate ASNs (path prepending)."""
        collapsed = [self.asns[0]]
        for asn in self.asns[1:]:
            if asn != collapsed[-1]:
                collapsed.append(asn)
        return ASPath(tuple(collapsed))

    def contains_loop(self) -> bool:
        """True when any ASN repeats non-consecutively (routing loop)."""
        collapsed = self.without_prepending()
        return len(set(collapsed.asns)) != len(collapsed.asns)

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """A new path with *asn* prepended *count* times (propagation step)."""
        if count < 1:
            raise ValueError("prepend count must be positive")
        return ASPath((asn,) * count + self.asns)
