"""Tests for the internet-scale world tiers (``xlarge`` / ``internet``).

The tier-1 suite keeps these cheap by over-downsampling (a large
``scale`` divisor); the full-size ``xlarge`` world (hundreds of
thousands of leaves) is exercised by the env-gated test at the bottom
and by ``make bench-xlarge``.
"""

import os

import pytest

from repro.bgp import P2P
from repro.core import LeaseInferencePipeline
from repro.core.incremental import result_digest
from repro.simulation import (
    BENCH_SIZES,
    DEFAULT_BENCH_SIZES,
    bench_world,
    build_world,
    internet_world,
)
from repro.simulation.world import (
    RESERVE_POOLS,
    WorldBuilder,
    _EXCLUDED_SLASH8S,
)

#: Over-downsampled divisor: keeps internet-tier topology (tier-1 mesh,
#: IXPs, streaming) while building in well under a second.
COARSE = 150

def _coarse_world():
    return build_world(bench_world("xlarge", scale=COARSE))


@pytest.fixture(scope="module")
def world():
    return _coarse_world()


class TestScenarioTiers:
    def test_bench_sizes_include_internet_tiers(self):
        assert BENCH_SIZES == (
            "small", "medium", "large", "xlarge", "internet"
        )
        # the default bench set stays the historical trio — internet
        # tiers are opt-in
        assert DEFAULT_BENCH_SIZES == ("small", "medium", "large")

    def test_internet_world_knobs(self):
        scenario = internet_world()
        assert scenario.tier1_count == 12
        assert scenario.tier2_per_region == 24
        assert scenario.ixps == 8
        assert scenario.stream_routes is True

    def test_historical_scenarios_keep_defaults(self):
        from repro.simulation import paper_world, small_world

        for scenario in (small_world(), paper_world()):
            assert scenario.tier1_count == 6
            assert scenario.tier2_per_region == 4
            assert scenario.ixps == 0
            assert scenario.stream_routes is False

    def test_stream_routes_requires_full_visibility(self):
        from dataclasses import replace

        base = internet_world()
        with pytest.raises(ValueError, match="stream_routes"):
            WorldBuilder(replace(base, bgp_visibility=0.9))
        with pytest.raises(ValueError, match="stream_routes"):
            WorldBuilder(replace(base, full_propagation=True))


class TestReservePools:
    def test_derived_pools_extend_the_configured_list(self):
        builder = WorldBuilder(internet_world(scale=COARSE))
        count = len(RESERVE_POOLS) + 20
        drawn = [builder._draw_reserve_pool() for _ in range(count)]
        # the static list comes first (existing worlds byte-identical),
        # then derived /8s from the remaining unicast space
        assert drawn[: len(RESERVE_POOLS)] == list(RESERVE_POOLS)
        extra = drawn[len(RESERVE_POOLS) :]
        assert extra, "derivation must continue past the configured list"
        configured = {
            pool
            for spec in builder.scenario.regions
            for pool in spec.address_pools
        }
        for octet in extra:
            assert 1 <= octet < 224
            assert octet not in _EXCLUDED_SLASH8S
            assert octet not in RESERVE_POOLS
            assert octet not in configured
        assert extra == sorted(extra)

    def test_exhaustion_has_a_clear_error(self):
        builder = WorldBuilder(internet_world(scale=COARSE))
        with pytest.raises(RuntimeError, match="exhausted"):
            for _ in range(300):
                builder._draw_reserve_pool()


class TestInternetTopology:
    def test_ixp_route_servers_peer_with_tier2(self):
        scenario = internet_world(scale=COARSE)
        builder = WorldBuilder(scenario)
        builder.build()
        servers = builder.ixp_route_servers
        assert len(servers) == scenario.ixps
        p2p_partners = {
            left: set()
            for left in servers
        }
        for left, right, code in builder.topology.edges():
            if code == P2P:
                if left in p2p_partners:
                    p2p_partners[left].add(right)
                if right in p2p_partners:
                    p2p_partners[right].add(left)
        for server in servers:
            assert p2p_partners[server], (
                "every route server peers with someone"
            )

    def test_tier_counts_follow_scenario(self):
        scenario = internet_world(scale=COARSE)
        builder = WorldBuilder(scenario)
        builder.build()
        assert len(builder.tier1) == scenario.tier1_count
        for spec in scenario.regions:
            assert len(builder.tier2[spec.rir]) == scenario.tier2_per_region


class TestStreamingGeneration:
    def test_stream_and_buffered_tables_identical(self):
        from dataclasses import replace

        streamed = build_world(internet_world(scale=COARSE))
        buffered = build_world(
            replace(internet_world(scale=COARSE), stream_routes=False)
        )

        def table_rows(world):
            return sorted(
                (prefix, tuple(sorted(origins)))
                for prefix, origins in world.routing_table.items()
            )

        assert table_rows(streamed) == table_rows(buffered)

    def test_streaming_skips_announcement_buffer(self, world):
        # bounded memory: the per-announcement list is never materialized
        assert world.scenario.stream_routes is True
        assert world.announcements == []
        assert world.routing_table.num_prefixes() > 0

    def test_buffered_worlds_still_fill_announcements(self):
        from repro.simulation import small_world

        buffered = build_world(small_world())
        assert buffered.announcements


class TestEngineEquivalence:
    def test_digest_matches_frozen_reference(self, world):
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fast = result_digest(pipeline.run())
        assert fast == result_digest(pipeline.run_reference())


@pytest.mark.skipif(
    not os.environ.get("REPRO_XLARGE"),
    reason="full-scale xlarge build takes minutes; set REPRO_XLARGE=1",
)
def test_full_xlarge_reaches_internet_scale():
    """Acceptance: the un-downsampled xlarge world crosses 100k leaves."""
    world = build_world(bench_world("xlarge"))
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    pipeline.run()
    assert pipeline.context.total_leaves() >= 100_000
