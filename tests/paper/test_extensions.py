"""Tests for the paper's future-work extensions (§7/§8).

* Legacy lease inference — recovers the legacy blocks §6.2 counts as
  false negatives.
* Longitudinal churn — lease-market dynamics between two epochs.
* RPKI validation profile — leased announcements validate VALID far more
  often than the background (the §6.4 bypass effect).
"""

from repro.bgp import RoutingTable
from repro.core import (
    RelatednessOracle,
    compare_epochs,
    infer_leases,
    infer_legacy_leases,
    validation_profile,
)
from repro.simulation import TruthKind


def test_legacy_lease_inference(world):
    oracle = RelatednessOracle(world.relationships, world.as2org)
    verdicts = infer_legacy_leases(world.whois, world.routing_table, oracle)

    legacy_truth = {
        entry.prefix
        for entry in world.ground_truth.of_kind(TruthKind.LEASED_LEGACY)
    }
    leased = {inf.prefix for inf in verdicts if inf.is_leased}
    print()
    print(
        f"legacy blocks: {len(verdicts)}, inferred leased: {len(leased)}, "
        f"ground-truth legacy leases: {len(legacy_truth)}"
    )
    # The extension recovers every §6.2 legacy false negative.
    assert legacy_truth <= leased


def test_longitudinal_churn(world, inference):
    # Epoch 2: withdraw 10% of leases, re-lease 10% to new origins.
    leased = sorted(inference.leased(), key=lambda inf: inf.prefix)
    ended = {inf.prefix for inf in leased[:: 10]}
    re_leased = {inf.prefix for inf in leased[5 :: 10]}
    table2 = RoutingTable()
    for prefix, origins in world.routing_table.items():
        if prefix in ended:
            continue
        for origin in origins:
            table2.add_route(
                prefix, 64_000 if prefix in re_leased else origin
            )
    later = infer_leases(
        world.whois, table2, world.relationships, world.as2org
    )

    churn = compare_epochs(inference, later)
    print()
    print(
        f"ended={len(churn.ended_leases)} new={len(churn.new_leases)} "
        f"persisting={len(churn.persisting)} re-leased="
        f"{len(churn.re_leased)} turnover={churn.turnover_rate:.2%}"
    )
    assert churn.ended_leases == frozenset(ended)
    assert re_leased <= churn.re_leased
    assert 0.05 <= churn.turnover_rate <= 0.15


def test_rpki_validation_profile(world, inference):
    leased = inference.leased_prefixes()
    background = set(world.routing_table.prefixes()) - leased

    leased_profile = validation_profile(leased, world.routing_table, world.roas)
    background_profile = validation_profile(
        background, world.routing_table, world.roas
    )
    print()
    print(
        f"leased: {leased_profile.valid_share:.1%} valid "
        f"({leased_profile.covered_share:.1%} covered); background: "
        f"{background_profile.valid_share:.1%} valid"
    )
    # Facilitator RPKI management: leased space validates VALID at least
    # as often as the background, despite being more abused (§6.4).
    assert leased_profile.valid_share >= background_profile.valid_share
    assert leased_profile.valid > 0
