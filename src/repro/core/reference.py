"""Curating the evaluation reference dataset (§5.3).

Positive labels: address blocks maintained by registered brokers, found
by matching broker company names to WHOIS organisations, taking their
maintainer handles, collecting the handles' address blocks, and
excluding blocks the analyst marks as not leased (broker-as-ISP blocks).

Negative labels: blocks of residential ISPs that are originated in BGP
by the ISPs' own ASNs — connectivity customers, by construction not
leased.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..bgp.rib import RoutingTable
from ..brokers.matching import MatchReport, match_brokers
from ..brokers.registry import BrokerRegistry
from ..net import Prefix
from ..rir import RIR
from ..whois.database import WhoisCollection
from .allocation_tree import DEFAULT_MAX_LEAF_LENGTH

__all__ = ["ReferenceDataset", "curate_reference"]


@dataclass
class ReferenceDataset:
    """Labelled prefixes plus the curation bookkeeping of §6.2."""

    positives: Set[Prefix] = field(default_factory=set)
    negatives: Set[Prefix] = field(default_factory=set)
    match_reports: Dict[RIR, MatchReport] = field(default_factory=dict)
    excluded_not_leased: Set[Prefix] = field(default_factory=set)

    @property
    def total(self) -> int:
        """All labelled prefixes."""
        return len(self.positives) + len(self.negatives)

    def label(self, prefix: Prefix) -> Optional[bool]:
        """True = leased, False = non-leased, None = unlabelled."""
        if prefix in self.positives:
            return True
        if prefix in self.negatives:
            return False
        return None


def curate_reference(
    whois: WhoisCollection,
    registry: BrokerRegistry,
    routing_table: RoutingTable,
    not_leased_exclusions: Iterable[Prefix] = (),
    negative_isp_org_ids: Optional[Dict[RIR, List[str]]] = None,
    max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
) -> ReferenceDataset:
    """Build the reference dataset from broker lists and ISP blocks.

    *not_leased_exclusions* plays the role of the paper's manual
    filtering: broker-maintained prefixes known to be connectivity
    customers rather than leases.  *negative_isp_org_ids* selects, per
    registry, the organisations whose customer blocks become negative
    labels; their blocks qualify only when originated in BGP by an AS
    registered to the same organisation (the paper confirmed this with
    IIJ directly).
    """
    dataset = ReferenceDataset()
    exclusions = set(not_leased_exclusions)

    # -- positives: broker-maintained blocks --------------------------------
    for rir in RIR:
        database = whois[rir]
        brokers = registry.brokers(rir)
        if not brokers or not database.orgs:
            continue
        report = match_brokers(brokers, database)
        dataset.match_reports[rir] = report
        for handle in report.maintainer_handles():
            for record in database.inetnums_by_maintainer(handle):
                for prefix in record.range.to_prefixes():
                    if prefix.length > max_leaf_length:
                        continue
                    if prefix in exclusions:
                        dataset.excluded_not_leased.add(prefix)
                        continue
                    dataset.positives.add(prefix)

    # -- negatives: residential-ISP customer blocks ---------------------------
    for rir, org_ids in (negative_isp_org_ids or {}).items():
        database = whois[rir]
        for org_id in org_ids:
            isp_asns = set(database.asns_of_org(org_id))
            for record in database.inetnums_by_org(org_id):
                for prefix in record.range.to_prefixes():
                    if prefix.length > max_leaf_length:
                        continue
                    if prefix in dataset.positives:
                        continue
                    origins = routing_table.covering_origins(prefix)
                    if origins and origins <= isp_asns:
                        dataset.negatives.add(prefix)
    return dataset
