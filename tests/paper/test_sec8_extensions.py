"""Tests for the §8 discussion items.

* Geolocation inconsistency — leased space geolocates inconsistently
  across databases (the IPXO four-continents anecdote).
* Hijack-detection confusion — re-leases dominate origin-change alarms,
  the false-alarm burden §8 warns about.
* MRT end-to-end — the RIB survives a round trip through the binary
  TABLE_DUMP_V2 archives collectors actually publish.
"""

from repro.bgp import RoutingTable, read_mrt, write_mrt
from repro.core import (
    AlarmAttribution,
    attribute_alarms,
    geo_consistency,
    infer_leases,
    origin_changes,
    risk_ratio_ci,
)
from repro.simulation.geo import build_geo_databases


def test_sec8_geolocation_inconsistency(world, inference):
    databases = build_geo_databases(world)
    leased = inference.leased_prefixes()
    background = set(world.routing_table.prefixes()) - leased

    leased_stats = geo_consistency(leased, databases)
    background_stats = geo_consistency(background, databases)

    print()
    print(
        f"leased: {leased_stats.inconsistent_share:.1%} inconsistent, "
        f"{leased_stats.multi_continent_share:.1%} multi-continent, "
        f"max spread {leased_stats.max_continent_spread} continents"
    )
    print(
        f"background: {background_stats.inconsistent_share:.1%} "
        f"inconsistent, {background_stats.multi_continent_share:.1%} "
        "multi-continent"
    )
    # Shape: leased space far less consistent; some blocks span >=4
    # continents across the five databases (the paper's anecdote).
    assert leased_stats.inconsistent_share > 0.8
    assert background_stats.inconsistent_share < 0.3
    assert leased_stats.max_continent_spread >= 4
    assert (
        leased_stats.multi_continent_share
        > 3 * background_stats.multi_continent_share
    )


def test_sec8_hijack_alarm_confusion(world, inference):
    # Epoch two: a quarter of leases turn over; two genuine hijacks occur.
    leased = sorted(inference.leased_prefixes())
    re_leased = set(leased[::4])
    background = [
        prefix
        for prefix in world.routing_table.prefixes()
        if prefix not in set(leased)
    ]
    hijacked = set(background[:2])
    hijacker_asn = 65_066
    later = RoutingTable()
    for prefix, origins in world.routing_table.items():
        for origin in origins:
            later.add_route(prefix, 64_000 if prefix in re_leased else origin)
    for prefix in hijacked:
        later.add_route(prefix, hijacker_asn)

    later_result = infer_leases(
        world.whois, later, world.relationships, world.as2org
    )
    hijackers = type(world.hijackers)(
        sorted(set(world.hijackers.asns()) | {hijacker_asn})
    )

    changes = origin_changes(world.routing_table, later)
    report = attribute_alarms(changes, inference, later_result, hijackers)
    print()
    print(
        f"{report.total} origin-change alarms: "
        f"{report.count(AlarmAttribution.LEASE_CHURN)} lease churn, "
        f"{report.count(AlarmAttribution.HIJACKER)} hijacker, "
        f"{report.count(AlarmAttribution.UNEXPLAINED)} unexplained"
    )
    # Shape: lease churn dominates the alarm stream (§8's warning), but
    # the genuine hijacks are still surfaced.
    assert report.lease_share > 0.9
    assert report.count(AlarmAttribution.HIJACKER) == len(hijacked)


def test_mrt_pipeline_round_trip(world, inference):
    archive = write_mrt(world.to_table_dump_entries())
    table = RoutingTable.from_entries(read_mrt(archive))
    assert table.num_prefixes() == world.routing_table.num_prefixes()
    # Inference over the MRT-round-tripped table is identical.
    result = infer_leases(
        world.whois, table, world.relationships, world.as2org
    )
    assert result.leased_prefixes() == inference.leased_prefixes()
    print()
    print(
        f"MRT file: {len(archive):,} bytes for "
        f"{table.num_prefixes():,} prefixes"
    )


def test_sec64_risk_ratio_significance(world, inference):
    """The DROP risk ratio is significantly above 1 (bootstrap CI)."""
    from repro.core import drop_correlation

    stats = drop_correlation(inference, world.routing_table, world.drop)

    ci = risk_ratio_ci(
        stats.leased_by_blocklisted,
        stats.leased_prefixes,
        stats.non_leased_by_blocklisted,
        stats.non_leased_prefixes,
    )
    print()
    print(f"risk ratio {ci}")
    assert ci.contains(stats.risk_ratio)
    assert ci.low > 1.5  # robustly elevated, as the paper's 5x implies


def test_sec1_irr_hygiene(world, inference):
    """§1 motivation: circulation leaves routing databases inaccurate —
    leased announcements mismatch their route objects far more often."""
    from repro.core.irr import irr_hygiene
    from repro.simulation.irr import build_route_registry

    registry = build_route_registry(world)
    leased = inference.leased_prefixes()
    background = set(world.routing_table.prefixes()) - leased

    leased_stats = irr_hygiene(leased, world.routing_table, registry)
    background_stats = irr_hygiene(background, world.routing_table, registry)
    print()
    print(
        f"stale route objects: leased {leased_stats.stale_share:.1%} vs "
        f"background {background_stats.stale_share:.1%}"
    )
    assert leased_stats.stale_share > 0.4
    assert background_stats.stale_share < 0.05
    assert leased_stats.stale_share > 5 * max(
        background_stats.stale_share, 1e-9
    )
