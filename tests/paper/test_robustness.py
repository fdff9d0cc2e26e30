"""Robustness: the reproduced shapes hold across seeds.

The paper's claims should not depend on one lucky draw of the synthetic
world.  This test regenerates the world under several seeds (at a
smaller scale for speed) and checks that every headline shape — leased
share, region ordering, precision/recall band, DROP risk ratio — holds
in each.
"""

from repro.core import (
    curate_reference,
    drop_correlation,
    evaluate_inference,
    infer_leases,
)
from repro.rir import RIR
from repro.simulation import build_world, paper_world

SEEDS = (1, 7, 20240401)
SCALE = 150


def test_shapes_hold_across_seeds():
    print()
    for seed in SEEDS:
        world = build_world(paper_world(seed=seed, scale=SCALE))
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        reference = curate_reference(
            world.whois,
            world.broker_registry,
            world.routing_table,
            not_leased_exclusions=world.curation_exclusions,
            negative_isp_org_ids=world.negative_isp_org_ids,
        )
        report = evaluate_inference(result, reference)
        drop = drop_correlation(result, world.routing_table, world.drop)
        share = result.total_leased() / world.routing_table.num_prefixes()
        print(
            f"seed {seed}: leased {100 * share:.1f}%, "
            f"precision {report.matrix.precision:.2f}, "
            f"recall {report.matrix.recall:.2f}, "
            f"drop ratio {drop.risk_ratio:.1f}x"
        )
        # Headline shapes, per seed.
        assert 0.03 <= share <= 0.06
        assert report.matrix.precision >= 0.9
        assert 0.6 <= report.matrix.recall <= 0.95
        assert drop.risk_ratio > 2.0
        leased = {rir: result.tally(rir).leased for rir in RIR}
        assert leased[RIR.RIPE] > leased[RIR.ARIN] > leased[RIR.APNIC]
        assert leased[RIR.AFRINIC] >= leased[RIR.LACNIC]
