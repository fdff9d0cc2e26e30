"""Leasing-ecosystem analysis (§6.3): top parties and hijacker overlap."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..asdata.hijackers import SerialHijackerList
from ..bgp.rib import RoutingTable
from ..rir import ALL_RIRS, RIR
from ..whois.database import WhoisCollection
from .results import InferenceResult

__all__ = [
    "top_holders",
    "top_facilitators",
    "top_originators",
    "HijackerOverlap",
    "hijacker_overlap",
]


def top_holders(
    result: InferenceResult,
    whois: WhoisCollection,
    k: int = 3,
) -> Dict[RIR, List[Tuple[str, int]]]:
    """Table 3: per registry, the IP holders leasing out the most prefixes.

    Holders are root-node organisations; counts are their leased leaf
    prefixes.  Organisation handles resolve to display names through the
    regional WHOIS database.
    """
    ranking: Dict[RIR, List[Tuple[str, int]]] = {}
    for rir in ALL_RIRS:
        counter: Counter = Counter()
        for inference in result.leased(rir):
            org_id = inference.holder_org_id
            if org_id is None:
                continue
            org = whois[rir].org(org_id)
            counter[org.name if org else org_id] += 1
        ranking[rir] = counter.most_common(k)
    return ranking


def top_facilitators(
    result: InferenceResult, k: int = 3
) -> Dict[RIR, List[Tuple[str, int]]]:
    """Per registry, the maintainers on the most leased leaf blocks.

    §6.3 identifies IPXO in the top three for RIPE, ARIN, and APNIC this
    way: the leaf maintainer is the facilitator role of Fig. 2.
    """
    ranking: Dict[RIR, List[Tuple[str, int]]] = {}
    for rir in ALL_RIRS:
        counter: Counter = Counter()
        for inference in result.leased(rir):
            for handle in inference.facilitator_handles:
                counter[handle] += 1
        ranking[rir] = counter.most_common(k)
    return ranking


def resolve_maintainer_names(
    whois: WhoisCollection, handles: List[str]
) -> Dict[str, str]:
    """Company names behind maintainer handles, for readable rankings.

    A handle resolves to the organisation listing it among its
    maintainers; handles without such an organisation resolve to
    themselves (real maintainers are frequently anonymous this way).
    """
    resolution: Dict[str, str] = {}
    wanted = set(handles)
    for database in whois:
        for org in database.orgs.values():
            for handle in org.maintainers:
                if handle in wanted and handle not in resolution:
                    resolution[handle] = org.name
    for handle in handles:
        resolution.setdefault(handle, handle)
    return resolution


def top_originators(
    result: InferenceResult, k: int = 5
) -> Dict[RIR, List[Tuple[int, int]]]:
    """Per registry, the ASes originating the most leased prefixes."""
    ranking: Dict[RIR, List[Tuple[int, int]]] = {}
    for rir in ALL_RIRS:
        counter: Counter = Counter()
        for inference in result.leased(rir):
            for origin in inference.originators:
                counter[origin] += 1
        ranking[rir] = counter.most_common(k)
    return ranking


@dataclass(frozen=True)
class HijackerOverlap:
    """§6.3 serial-hijacker statistics."""

    lease_originators: int
    hijacker_originators: int
    leased_prefixes: int
    leased_by_hijackers: int
    non_leased_prefixes: int
    non_leased_by_hijackers: int

    @property
    def originator_share(self) -> float:
        """Fraction of lease originators that are serial hijackers (2.9%)."""
        return _share(self.hijacker_originators, self.lease_originators)

    @property
    def leased_share(self) -> float:
        """Fraction of leased prefixes originated by hijackers (13.3%)."""
        return _share(self.leased_by_hijackers, self.leased_prefixes)

    @property
    def non_leased_share(self) -> float:
        """Fraction of non-leased prefixes originated by hijackers (3.1%)."""
        return _share(self.non_leased_by_hijackers, self.non_leased_prefixes)


def hijacker_overlap(
    result: InferenceResult,
    routing_table: RoutingTable,
    hijackers: SerialHijackerList,
) -> HijackerOverlap:
    """Compare lease originators against the serial-hijacker list."""
    originators: Set[int] = set()
    leased_by_hijackers = 0
    leased_prefixes = result.leased_prefixes()
    for inference in result.leased():
        originators.update(inference.originators)
        if any(origin in hijackers for origin in inference.originators):
            leased_by_hijackers += 1

    non_leased_total = 0
    non_leased_by_hijackers = 0
    for prefix, origins in routing_table.items():
        if prefix in leased_prefixes:
            continue
        non_leased_total += 1
        if any(origin in hijackers for origin in origins):
            non_leased_by_hijackers += 1

    return HijackerOverlap(
        lease_originators=len(originators),
        hijacker_originators=sum(
            1 for origin in originators if origin in hijackers
        ),
        leased_prefixes=len(leased_prefixes),
        leased_by_hijackers=leased_by_hijackers,
        non_leased_prefixes=non_leased_total,
        non_leased_by_hijackers=non_leased_by_hijackers,
    )


def _share(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else float("nan")
