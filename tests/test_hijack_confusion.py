"""Tests for the origin-change alarm attribution analysis (§8)."""

import math

from repro.asdata import SerialHijackerList
from repro.bgp import RoutingTable
from repro.core import (
    AlarmAttribution,
    attribute_alarms,
    infer_leases,
    origin_changes,
)
from repro.net import Prefix
from repro.simulation import build_world, small_world


class TestOriginChanges:
    def test_detects_changed_origin(self):
        earlier = RoutingTable()
        earlier.add_route(Prefix.parse("10.0.0.0/24"), 100)
        earlier.add_route(Prefix.parse("10.0.1.0/24"), 200)
        later = RoutingTable()
        later.add_route(Prefix.parse("10.0.0.0/24"), 999)  # changed
        later.add_route(Prefix.parse("10.0.1.0/24"), 200)  # unchanged
        changes = origin_changes(earlier, later)
        assert len(changes) == 1
        assert changes[0].prefix == Prefix.parse("10.0.0.0/24")
        assert changes[0].added_origins == {999}

    def test_withdrawn_prefixes_not_alarms(self):
        earlier = RoutingTable()
        earlier.add_route(Prefix.parse("10.0.0.0/24"), 100)
        assert origin_changes(earlier, RoutingTable()) == []

    def test_moas_expansion_is_a_change(self):
        earlier = RoutingTable()
        earlier.add_route(Prefix.parse("10.0.0.0/24"), 100)
        later = RoutingTable()
        later.add_route(Prefix.parse("10.0.0.0/24"), 100)
        later.add_route(Prefix.parse("10.0.0.0/24"), 999)
        changes = origin_changes(earlier, later)
        assert changes[0].added_origins == {999}


class TestAttribution:
    def test_world_re_leases_attributed_to_leasing(self):
        world = build_world(small_world())
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        # Second epoch: every leased prefix is re-leased to a new origin;
        # one background prefix is genuinely hijacked.
        leased = result.leased_prefixes()
        background = next(
            prefix
            for prefix in world.routing_table.prefixes()
            if prefix not in leased and result.lookup(prefix) is None
        )
        hijacker_asn = 65_066
        later = RoutingTable()
        for prefix, origins in world.routing_table.items():
            for origin in origins:
                later.add_route(
                    prefix, 64_000 if prefix in leased else origin
                )
        later.add_route(background, hijacker_asn)

        changes = origin_changes(world.routing_table, later)
        later_result = infer_leases(
            world.whois, later, world.relationships, world.as2org
        )
        report = attribute_alarms(
            changes,
            result,
            later_result,
            SerialHijackerList([hijacker_asn]),
        )
        assert report.total == len(leased) + 1
        assert report.count(AlarmAttribution.LEASE_CHURN) == len(leased)
        assert report.count(AlarmAttribution.HIJACKER) == 1
        assert report.lease_share > 0.9

    def test_unexplained_bucket(self):
        earlier = RoutingTable()
        earlier.add_route(Prefix.parse("10.0.0.0/24"), 100)
        later = RoutingTable()
        later.add_route(Prefix.parse("10.0.0.0/24"), 555)
        report = attribute_alarms(
            origin_changes(earlier, later),
            None,
            None,
            SerialHijackerList(),
        )
        assert report.count(AlarmAttribution.UNEXPLAINED) == 1

    def test_empty_report(self):
        report = attribute_alarms([], None, None, SerialHijackerList())
        assert report.total == 0
        assert math.isnan(report.lease_share)
