"""Unit tests for the AS topology, Gao-Rexford simulator, and collectors.

Test topology (p2c edges point down, ``--`` is p2p)::

        1 ------ 2        tier 1 clique (peering)
       / \\        \\
      3   4        5      mid tier
     /     \\      /
    6       7----8        stubs; 7--8 peer
"""

import random

import pytest

from repro.bgp import (
    Announcement,
    ASTopology,
    Collector,
    P2C,
    P2P,
    RouteKind,
    build_routing_table,
    collect_rib,
    propagate,
)
from repro.net import Prefix


@pytest.fixture
def topology():
    topo = ASTopology()
    topo.add_p2p(1, 2)
    topo.add_p2c(1, 3)
    topo.add_p2c(1, 4)
    topo.add_p2c(2, 5)
    topo.add_p2c(3, 6)
    topo.add_p2c(4, 7)
    topo.add_p2c(5, 8)
    topo.add_p2p(7, 8)
    return topo


def three_tier_topology(seed):
    """A 5-AS peering clique over 60 dual-homed transit ASes over 1,200
    single-homed stubs, with 50 of the stubs drawn as origins."""
    topology = ASTopology()
    rng = random.Random(seed)
    tier1 = list(range(1, 6))
    for index, left in enumerate(tier1):
        for right in tier1[index + 1 :]:
            topology.add_p2p(left, right)
    tier2 = list(range(10, 70))
    for asn in tier2:
        for provider in rng.sample(tier1, 2):
            topology.add_p2c(provider, asn)
    edge = list(range(100, 1_300))
    for asn in edge:
        topology.add_p2c(rng.choice(tier2), asn)
    return topology, rng.sample(edge, 50)


class TestTopology:
    def test_neighbors(self, topology):
        assert topology.providers(3) == {1}
        assert topology.customers(1) == {3, 4}
        assert topology.peers(7) == {8}

    def test_self_links_rejected(self, topology):
        with pytest.raises(ValueError):
            topology.add_p2c(1, 1)
        with pytest.raises(ValueError):
            topology.add_p2p(2, 2)

    def test_customer_cone(self, topology):
        assert topology.customer_cone(1) == {1, 3, 4, 6, 7}
        assert topology.customer_cone(6) == {6}

    def test_cone_cache_invalidation(self, topology):
        assert 9 not in topology.customer_cone(1)
        topology.add_p2c(3, 9)
        assert 9 in topology.customer_cone(1)

    def test_clique(self, topology):
        assert topology.clique() == [1, 2]

    def test_is_stub(self, topology):
        assert topology.is_stub(6)
        assert not topology.is_stub(3)

    def test_edges_orientation(self, topology):
        edges = set(topology.edges())
        assert (1, 3, P2C) in edges
        assert (1, 2, P2P) in edges
        assert (2, 1, P2P) not in edges

    def test_transit_path_to_top(self, topology):
        assert topology.has_transit_path_to_top(6)
        topo = ASTopology()
        topo.add_asn(99)
        assert topo.has_transit_path_to_top(99)  # provider-free == top


class TestPropagation:
    def test_origin_route(self, topology):
        routes = propagate(topology, 6)
        assert routes[6].kind is RouteKind.ORIGIN
        assert routes[6].path == (6,)

    def test_customer_route_up_chain(self, topology):
        routes = propagate(topology, 6)
        assert routes[3].kind is RouteKind.CUSTOMER
        assert routes[3].path == (3, 6)
        assert routes[1].path == (1, 3, 6)

    def test_peer_route_one_hop(self, topology):
        routes = propagate(topology, 6)
        # AS2 hears 6 from its peer AS1 (customer route at 1).
        assert routes[2].kind is RouteKind.PEER
        assert routes[2].path == (2, 1, 3, 6)

    def test_provider_route_descends(self, topology):
        routes = propagate(topology, 6)
        # AS8 hears via provider 5 <- 2 <- peer 1 <- 3 <- 6... but 8 also
        # peers with 7 which only has a provider route to 6 and therefore
        # does NOT export it (valley-free).
        assert routes[8].kind is RouteKind.PROVIDER
        assert routes[8].path == (8, 5, 2, 1, 3, 6)

    def test_valley_free_no_export_of_provider_routes_to_peers(self, topology):
        routes = propagate(topology, 6)
        # 7's route must come via its provider 4, not via peer 8.
        assert routes[7].path == (7, 4, 1, 3, 6)
        assert routes[7].kind is RouteKind.PROVIDER

    def test_peer_route_between_stubs(self, topology):
        routes = propagate(topology, 8)
        # 7 hears 8's own announcement directly over the p2p link.
        assert routes[7].kind is RouteKind.PEER
        assert routes[7].path == (7, 8)

    def test_customer_preferred_over_peer(self, topology):
        # Give AS2 a direct customer link to 6 as well: customer wins.
        topology.add_p2c(2, 6)
        routes = propagate(topology, 6)
        assert routes[2].kind is RouteKind.CUSTOMER
        assert routes[2].path == (2, 6)

    def test_everyone_reaches_connected_origin(self, topology):
        routes = propagate(topology, 6)
        assert set(routes) == set(topology.asns())
        # A 3-tier hierarchy of about 1.3k ASes, from 50 stub origins.
        hierarchy, origins = three_tier_topology(seed=4)
        for origin in origins:
            assert set(propagate(hierarchy, origin)) == set(hierarchy.asns())

    def test_unknown_origin(self, topology):
        assert propagate(topology, 999) == {}

    def test_isolated_island_unreachable(self, topology):
        topology.add_p2c(100, 101)  # disconnected island
        routes = propagate(topology, 6)
        assert 100 not in routes and 101 not in routes


class TestCollectors:
    def test_rib_rows_have_peer_first_paths(self, topology):
        collector = Collector(name="rv1", peer_asns=(2,))
        announcements = [Announcement(Prefix.parse("10.6.0.0/16"), 6)]
        rows = collector.collect(topology, announcements, timestamp=42)
        assert len(rows) == 1
        assert rows[0].path.peer == 2
        assert rows[0].origin == 6
        assert rows[0].timestamp == 42

    def test_unreachable_vantage_produces_no_row(self, topology):
        topology.add_p2c(100, 101)
        collector = Collector(name="rv1", peer_asns=(101,))
        rows = collector.collect(
            topology, [Announcement(Prefix.parse("10.6.0.0/16"), 6)]
        )
        assert rows == []

    def test_multi_collector_merge(self, topology):
        collectors = [
            Collector(name="rv1", peer_asns=(1,)),
            Collector(name="ris1", peer_asns=(2, 5)),
        ]
        announcements = [
            Announcement(Prefix.parse("10.6.0.0/16"), 6),
            Announcement(Prefix.parse("10.8.0.0/16"), 8),
        ]
        rows = collect_rib(collectors, topology, announcements)
        assert len(rows) == 6  # 3 vantages x 2 announcements
        table = build_routing_table(collectors, topology, announcements)
        assert table.exact_origins(Prefix.parse("10.6.0.0/16")) == {6}
        assert table.exact_origins(Prefix.parse("10.8.0.0/16")) == {8}

    def test_same_origin_multiple_prefixes(self, topology):
        collector = Collector(name="rv1", peer_asns=(1,))
        announcements = [
            Announcement(Prefix.parse("10.6.0.0/16"), 6),
            Announcement(Prefix.parse("10.7.0.0/16"), 6),
        ]
        rows = collector.collect(topology, announcements)
        assert {str(r.prefix) for r in rows} == {"10.6.0.0/16", "10.7.0.0/16"}
        assert all(r.origin == 6 for r in rows)
