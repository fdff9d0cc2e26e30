"""Fig. 2 — the worked single-prefix inference example (§5.1-§5.2).

The paper's diagram: GCI Network holds portable 213.210.0.0/18 with
RIR-assigned AS8851 and originates it in BGP; 213.210.33.0/24 is a
non-portable sub-assignment maintained by IPXO-MNT and originated by the
unrelated AS15169 — inferred leased (group 4).
"""

from repro.asdata import ASRelationships
from repro.bgp import P2C, RoutingTable
from repro.core import Category, LeaseInferencePipeline
from repro.net import AddressRange, Prefix
from repro.rir import RIR
from repro.whois import AutNumRecord, InetnumRecord, OrgRecord, WhoisDatabase


def build_fig2_registry():
    database = WhoisDatabase(RIR.RIPE)
    database.add(
        OrgRecord(rir=RIR.RIPE, org_id="ORG-GCI1-RIPE", name="GCI Network")
    )
    database.add(
        AutNumRecord(
            rir=RIR.RIPE, asn=8851, org_id="ORG-GCI1-RIPE", as_name="GCI-AS"
        )
    )
    database.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("213.210.0.0 - 213.210.63.255"),
            status="ALLOCATED PA",
            org_id="ORG-GCI1-RIPE",
            maintainers=("MNT-GCICOM",),
        )
    )
    database.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("213.210.33.0 - 213.210.33.255"),
            status="ASSIGNED PA",
            maintainers=("IPXO-MNT",),
        )
    )
    database.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("213.210.2.0 - 213.210.3.255"),
            status="ASSIGNED PA",
            maintainers=("MNT-GCICOM",),
        )
    )
    table = RoutingTable()
    table.add_route(Prefix.parse("213.210.0.0/18"), 8851)
    table.add_route(Prefix.parse("213.210.33.0/24"), 15169)
    relationships = ASRelationships()
    relationships.add(3356, 8851, P2C)
    relationships.add(3356, 15169, P2C)
    return database, table, relationships


def run_fig2():
    database, table, relationships = build_fig2_registry()
    pipeline = LeaseInferencePipeline(database, table, relationships)
    return pipeline.run()


def test_fig2_example_inference():
    result = run_fig2()

    leased = result.lookup(Prefix.parse("213.210.33.0/24"))
    print()
    print(
        f"{leased.prefix}: {leased.category.label} (group "
        f"{leased.category.group}) — holder {leased.holder_org_id}, "
        f"facilitator {leased.facilitator_handles}, "
        f"originator AS{min(leased.originators)}"
    )

    # The leased prefix: origin AS15169 related to neither AS8851 role.
    assert leased.category is Category.LEASED_GROUP4
    assert leased.leaf_origins == {15169}
    assert leased.root_origins == {8851}
    assert leased.root_assigned_asns == {8851}
    assert leased.facilitator_handles == ("IPXO-MNT",)

    # The sibling /23: aggregated into the /18 (grey box in the figure).
    aggregated = result.lookup(Prefix.parse("213.210.2.0/23"))
    assert aggregated.category is Category.AGGREGATED_CUSTOMER
