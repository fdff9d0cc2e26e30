"""Route collectors: Routeviews / RIPE RIS stand-ins.

A collector multilaterally peers with a set of vantage ASes and records
the route each vantage selected, producing the RIB rows that real
projects publish as table dumps.  Several collectors merge into the
single :class:`~repro.bgp.rib.RoutingTable` the inference uses (§4 "BGP
dataset").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..net import Prefix, int_to_address
from .aspath import ASPath
from .rib import RibEntry, RoutingTable
from .simulator import Route, propagate
from .topology import ASTopology

__all__ = ["Announcement", "Collector", "collect_rib", "build_routing_table"]


@dataclass(frozen=True)
class Announcement:
    """One BGP origination: *origin* announces *prefix*."""

    prefix: Prefix
    origin: int


@dataclass
class Collector:
    """A named collector with its peer (vantage-point) ASes."""

    name: str
    peer_asns: Tuple[int, ...]

    def collect(
        self,
        topology: ASTopology,
        announcements: Sequence[Announcement],
        timestamp: int = 0,
        route_cache: Dict[int, Dict[int, Route]] = None,
    ) -> List[RibEntry]:
        """RIB rows seen by this collector's peers.

        *route_cache* (origin → propagation result) may be shared across
        collectors to avoid recomputing propagation per collector.
        """
        if route_cache is None:
            route_cache = {}
        entries: List[RibEntry] = []
        by_origin: Dict[int, List[Prefix]] = {}
        for announcement in announcements:
            by_origin.setdefault(announcement.origin, []).append(
                announcement.prefix
            )
        for origin in sorted(by_origin):
            routes = route_cache.get(origin)
            if routes is None:
                routes = propagate(topology, origin)
                route_cache[origin] = routes
            for peer_asn in self.peer_asns:
                route = routes.get(peer_asn)
                if route is None:
                    continue  # announcement never reached this vantage
                path = ASPath(route.path)
                peer_address = _peer_address(peer_asn)
                for prefix in by_origin[origin]:
                    entries.append(
                        RibEntry(
                            prefix=prefix,
                            path=path,
                            peer_asn=peer_asn,
                            peer_address=peer_address,
                            timestamp=timestamp,
                        )
                    )
        return entries


def collect_rib(
    collectors: Iterable[Collector],
    topology: ASTopology,
    announcements: Sequence[Announcement],
    timestamp: int = 0,
) -> List[RibEntry]:
    """RIB rows across all *collectors* with a shared propagation cache."""
    route_cache: Dict[int, Dict[int, Route]] = {}
    entries: List[RibEntry] = []
    for collector in collectors:
        entries.extend(
            collector.collect(
                topology, announcements, timestamp, route_cache=route_cache
            )
        )
    return entries


def build_routing_table(
    collectors: Iterable[Collector],
    topology: ASTopology,
    announcements: Sequence[Announcement],
    timestamp: int = 0,
) -> RoutingTable:
    """The merged prefix → origins view across all collectors."""
    return RoutingTable.from_entries(
        collect_rib(collectors, topology, announcements, timestamp)
    )


def _peer_address(peer_asn: int) -> str:
    """Deterministic dotted-quad address for a vantage point."""
    return int_to_address(0xC6120000 | (peer_asn & 0xFFFF))  # 198.18.x.y
