"""IRR route objects.

RPSL databases also carry ``route:`` objects binding a prefix to its
intended BGP origin.  The paper's introduction motivates the study
partly through the hygiene problem: "IP address circulation contributes
to inaccuracies in routing databases" — when a block is leased, its old
route object often stays behind, so the registered origin no longer
matches the announcing AS.  This module models route objects and their
registry; :mod:`repro.core.irr` quantifies the mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional

from ..net import Prefix, PrefixTrie
from ..rir import RIR
from .objects import RpslObject, parse_asn

__all__ = ["RouteObject", "RouteRegistry"]


@dataclass(frozen=True, order=True)
class RouteObject:
    """One ``route:`` object: prefix + registered origin AS."""

    prefix: Prefix
    origin: int
    rir: RIR = RIR.RIPE
    maintainers: tuple = ()

    def __post_init__(self) -> None:
        if self.origin < 0:
            raise ValueError(f"negative origin: {self.origin}")

    def to_rpsl(self) -> RpslObject:
        """Render as an RPSL route object."""
        obj = RpslObject()
        obj.add("route", str(self.prefix))
        obj.add("origin", f"AS{self.origin}")
        for handle in self.maintainers:
            obj.add("mnt-by", handle)
        obj.add("source", self.rir.whois_source)
        return obj

    @classmethod
    def from_rpsl(cls, rir: RIR, obj: RpslObject) -> Optional["RouteObject"]:
        """Parse an RPSL route object (None for other classes)."""
        if obj.object_class != "route":
            return None
        origin_text = obj.first("origin")
        if origin_text is None:
            return None
        return cls(
            prefix=Prefix.parse(obj.primary_key),
            origin=parse_asn(origin_text),
            rir=rir,
            maintainers=tuple(obj.all("mnt-by")),
        )


class RouteRegistry:
    """Indexed collection of route objects with origin queries."""

    def __init__(self, routes: Iterable[RouteObject] = ()) -> None:
        self._trie: PrefixTrie[set] = PrefixTrie()
        self._count = 0
        for route in routes:
            self.add(route)

    def add(self, route: RouteObject) -> None:
        """Register one route object (idempotent per (prefix, origin))."""
        bucket = self._trie.exact(route.prefix)
        if bucket is None:
            bucket = set()
            self._trie.insert(route.prefix, bucket)
        if route not in bucket:
            bucket.add(route)
            self._count += 1

    def exact_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Registered origins for exactly *prefix*."""
        bucket = self._trie.exact(prefix)
        return frozenset(r.origin for r in bucket) if bucket else frozenset()

    def covering_origins(self, prefix: Prefix) -> FrozenSet[int]:
        """Registered origins of *prefix* or any covering route object."""
        origins = set()
        for _p, bucket in self._trie.covering(prefix):
            origins.update(r.origin for r in bucket)
        return frozenset(origins)

    def has_route_for(self, prefix: Prefix) -> bool:
        """True when any route object covers *prefix*."""
        return self._trie.least_specific_value(prefix) is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RouteObject]:
        for _prefix, bucket in self._trie.items():
            yield from sorted(bucket)

    # -- RPSL text format -------------------------------------------------
    @classmethod
    def from_text(cls, rir: RIR, text: str) -> "RouteRegistry":
        """Parse an RPSL dump, keeping only route objects."""
        from .rpsl import parse_rpsl

        registry = cls()
        for obj in parse_rpsl(text):
            route = RouteObject.from_rpsl(rir, obj)
            if route is not None:
                registry.add(route)
        return registry

    def to_text(self) -> str:
        """Serialize all route objects to RPSL text."""
        from .rpsl import serialize_objects

        return serialize_objects(route.to_rpsl() for route in self)
