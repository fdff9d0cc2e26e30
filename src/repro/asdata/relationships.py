"""CAIDA AS Relationships dataset (serial-1 format).

The file format is one edge per line, ``provider|customer|-1`` for
transit and ``peer|peer|0`` for settlement-free peering, with ``#``
comment headers.  The inference uses it as a relatedness oracle: the
classifier asks whether *any* relationship links two ASes (§5.2 groups 3
and 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..bgp.topology import P2C, P2P, ASTopology

__all__ = ["ASRelationships", "RelationshipError"]


class RelationshipError(ValueError):
    """A serial-1 file that cannot be decoded; the message names the line."""


class ASRelationships:
    """An immutable-ish view of inter-AS business relationships."""

    def __init__(self) -> None:
        self._rel: Dict[Tuple[int, int], int] = {}
        self._neighbors: Dict[int, Set[int]] = {}

    # -- construction ----------------------------------------------------
    def add(self, left: int, right: int, code: int) -> None:
        """Add one edge in CAIDA orientation (code P2C: left provides right)."""
        if code not in (P2C, P2P):
            raise ValueError(f"unknown relationship code: {code}")
        if left == right:
            raise ValueError(f"self relationship on AS{left}")
        self._rel[(left, right)] = code
        self._rel[(right, left)] = P2P if code == P2P else 1  # 1 = customer-of
        self._neighbors.setdefault(left, set()).add(right)
        self._neighbors.setdefault(right, set()).add(left)

    @classmethod
    def from_topology(
        cls,
        topology: ASTopology,
        exclude: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> "ASRelationships":
        """Derive the dataset from a simulated topology.

        *exclude* drops specific ``(a, b)`` links (any orientation),
        modelling the incompleteness of BGP-inferred relationship data the
        paper discusses in §7.
        """
        excluded = set()
        for a, b in exclude or ():
            excluded.add((a, b))
            excluded.add((b, a))
        dataset = cls()
        for left, right, code in topology.edges():
            if (left, right) in excluded:
                continue
            dataset.add(left, right, code)
        return dataset

    # -- serial-1 text format ----------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "ASRelationships":
        """Parse serial-1 text (``a|b|code`` lines, ``#`` comments).

        Raises :class:`RelationshipError` naming the first malformed line.
        """
        dataset = cls()
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            if len(fields) < 3:
                raise RelationshipError(
                    f"line {number}: malformed relationship line: {line!r}"
                )
            try:
                dataset.add(int(fields[0]), int(fields[1]), int(fields[2]))
            except ValueError as exc:
                raise RelationshipError(f"line {number}: {exc}") from None
        return dataset

    def to_text(self) -> str:
        """Serialize to serial-1 text with a CAIDA-style header."""
        lines = [
            "# format: <provider-as>|<customer-as>|-1",
            "# format: <peer-as>|<peer-as>|0",
        ]
        for (left, right), code in sorted(self._rel.items()):
            if code == P2C or (code == P2P and left < right):
                lines.append(f"{left}|{right}|{code}")
        return "\n".join(lines) + "\n"

    # -- queries -------------------------------------------------------------
    def relationship(self, left: int, right: int) -> Optional[int]:
        """The code from *left*'s perspective: P2C provider-of, 1
        customer-of, P2P peer — or None when unrelated/unobserved."""
        return self._rel.get((left, right))

    def are_related(self, left: int, right: int) -> bool:
        """True when any direct relationship links the two ASes."""
        return (left, right) in self._rel

    def neighbors(self, asn: int) -> FrozenSet[int]:
        """All ASes with any relationship to *asn*."""
        return frozenset(self._neighbors.get(asn, ()))

    def providers(self, asn: int) -> FrozenSet[int]:
        """Direct providers of *asn*."""
        return frozenset(
            other
            for other in self._neighbors.get(asn, ())
            if self._rel.get((other, asn)) == P2C
        )

    def customers(self, asn: int) -> FrozenSet[int]:
        """Direct customers of *asn*."""
        return frozenset(
            other
            for other in self._neighbors.get(asn, ())
            if self._rel.get((asn, other)) == P2C
        )

    def peers(self, asn: int) -> FrozenSet[int]:
        """Settlement-free peers of *asn*."""
        return frozenset(
            other
            for other in self._neighbors.get(asn, ())
            if self._rel.get((asn, other)) == P2P
        )

    def asns(self) -> List[int]:
        """All ASNs appearing in the dataset, ascending."""
        return sorted(self._neighbors)

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate unique edges in CAIDA orientation."""
        for (left, right), code in sorted(self._rel.items()):
            if code == P2C or (code == P2P and left < right):
                yield left, right, code

    def num_edges(self) -> int:
        """Number of unique relationship edges."""
        return sum(1 for _edge in self.edges())
