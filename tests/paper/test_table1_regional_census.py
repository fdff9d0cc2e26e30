"""Table 1 — leased prefixes per inference group per RIR (§6.1).

Paper: 47,318 leased prefixes = 4.1% of 1,146,921 advertised prefixes;
RIPE largest, then ARIN, APNIC, AFRINIC, LACNIC; group-3 leases dominate
group-4 leases in RIPE while ARIN has the largest group-4 share.
"""

from repro.core import Category, LeaseInferencePipeline
from repro.reporting import render_table1
from repro.rir import RIR


def run_census(world):
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    return pipeline.run()


def test_table1_regional_census(world):
    result = run_census(world)

    print()
    print(render_table1(result, world.routing_table.num_prefixes()))

    # Shape: leased share of all advertised prefixes near the paper's 4.1%.
    leased_share = result.total_leased() / world.routing_table.num_prefixes()
    assert 0.03 <= leased_share <= 0.06

    # Shape: leased *address space* is a much smaller slice than leased
    # prefix count (leases are small blocks) — the paper's 0.9% vs 4.1%.
    space_share = (
        result.leased_address_space()
        / world.routing_table.total_address_space()
    )
    print(
        f"leased address space: {100 * space_share:.2f}% of routed space "
        f"(paper: 0.9%)"
    )
    assert space_share < leased_share
    assert 0.001 <= space_share <= 0.03

    # Shape: regional ordering of leased counts matches Table 1.
    leased = {rir: result.tally(rir).leased for rir in RIR}
    assert leased[RIR.RIPE] > leased[RIR.ARIN] > leased[RIR.APNIC]
    assert leased[RIR.AFRINIC] > leased[RIR.LACNIC]

    # Shape: every category is populated in RIPE, and group-2 aggregated
    # customers dominate, as in the paper (204k of 356k).
    ripe = result.tally(RIR.RIPE)
    assert all(ripe.counts[category] > 0 for category in Category)
    assert ripe.counts[Category.AGGREGATED_CUSTOMER] > ripe.total * 0.4

    # Shape: ARIN has the largest group-4 leased count (paper: 5,633).
    group4 = {rir: result.tally(rir).counts[Category.LEASED_GROUP4] for rir in RIR}
    assert max(group4, key=group4.get) is RIR.ARIN
