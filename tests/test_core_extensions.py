"""Tests for the extension modules: legacy inference, longitudinal
churn, RPKI validation profiles, multihomed injection, and the
full-propagation world mode."""

import dataclasses
import math

import pytest

from repro.asdata import ASRelationships
from repro.bgp import P2C, RoutingTable
from repro.core import (
    Category,
    LegacyVerdict,
    RelatednessOracle,
    compare_epochs,
    infer_leases,
    infer_legacy_leases,
    validation_profile,
)
from repro.net import AddressRange, Prefix
from repro.rir import RIR
from repro.rpki import AS0, ROA, RoaSet
from repro.simulation import TruthKind, build_world, small_world
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisCollection,
    WhoisDatabase,
)


def make_legacy_registry():
    """A holder org with a root block and two nested legacy blocks."""
    db = WhoisDatabase(RIR.RIPE)
    db.add(OrgRecord(rir=RIR.RIPE, org_id="ORG-HOLD", name="Holder Org"))
    db.add(AutNumRecord(rir=RIR.RIPE, asn=100, org_id="ORG-HOLD"))
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("192.80.0.0/16"),
            status="LEGACY",
            org_id="ORG-HOLD",
            maintainers=("HOLD-MNT",),
        )
    )
    # Nested legacy block, broker-maintained, announced by a stranger.
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("192.80.5.0/24"),
            status="LEGACY",
            maintainers=("BRK-MNT",),
        )
    )
    # Nested legacy block used by the holder itself.
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("192.80.9.0/24"),
            status="LEGACY",
            org_id="ORG-HOLD",
            maintainers=("HOLD-MNT",),
        )
    )
    # Nested legacy block, broker-maintained, not announced.
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("192.80.7.0/24"),
            status="LEGACY",
            maintainers=("BRK-MNT",),
        )
    )
    return db


class TestLegacyInference:
    @pytest.fixture
    def results(self):
        db = make_legacy_registry()
        table = RoutingTable()
        table.add_route(Prefix.parse("192.80.5.0/24"), 999)  # stranger
        table.add_route(Prefix.parse("192.80.9.0/24"), 100)  # holder's AS
        rels = ASRelationships()
        rels.add(3356, 100, P2C)
        rels.add(3356, 999, P2C)
        oracle = RelatednessOracle(rels)
        collection = WhoisCollection({RIR.RIPE: db})
        verdicts = infer_legacy_leases(collection, table, oracle)
        return {str(inf.prefix): inf for inf in verdicts}

    def test_all_legacy_blocks_classified(self, results):
        assert set(results) == {
            "192.80.0.0/16",
            "192.80.5.0/24",
            "192.80.9.0/24",
            "192.80.7.0/24",
        }

    def test_stranger_origin_is_leased(self, results):
        inference = results["192.80.5.0/24"]
        assert inference.verdict is LegacyVerdict.LEASED
        assert inference.is_leased
        assert inference.parent_prefix == Prefix.parse("192.80.0.0/16")

    def test_holder_origin_is_in_use(self, results):
        assert results["192.80.9.0/24"].verdict is LegacyVerdict.IN_USE

    def test_unannounced_with_foreign_maintainer_is_suspected(self, results):
        assert results["192.80.7.0/24"].verdict is LegacyVerdict.SUSPECTED

    def test_root_without_signals_is_unused(self, results):
        assert results["192.80.0.0/16"].verdict is LegacyVerdict.UNUSED

    def test_world_legacy_leases_recovered(self):
        world = build_world(small_world())
        oracle = RelatednessOracle(world.relationships, world.as2org)
        verdicts = infer_legacy_leases(
            world.whois, world.routing_table, oracle
        )
        legacy_truth = {
            entry.prefix
            for entry in world.ground_truth.of_kind(TruthKind.LEASED_LEGACY)
        }
        assert legacy_truth
        leased = {inf.prefix for inf in verdicts if inf.is_leased}
        assert legacy_truth <= leased


class TestLongitudinal:
    @pytest.fixture
    def epochs(self):
        world = build_world(small_world())
        earlier = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        # Epoch two: one lease ends (withdrawn), one is re-leased to a
        # new AS, one unused block becomes a fresh lease.
        leased = sorted(earlier.leased(), key=lambda inf: inf.prefix)
        ended = leased[0]
        re_leased = leased[1]
        fresh = next(
            inf
            for inf in earlier
            if inf.category is Category.UNUSED
        )
        table2 = RoutingTable()
        for prefix, origins in world.routing_table.items():
            if prefix == ended.prefix:
                continue
            for origin in origins:
                if prefix == re_leased.prefix:
                    origin = 64_999  # new, unrelated lessee
                table2.add_route(prefix, origin)
        table2.add_route(fresh.prefix, 64_998)
        later = infer_leases(
            world.whois, table2, world.relationships, world.as2org
        )
        return earlier, later, ended, re_leased, fresh

    def test_churn_sets(self, epochs):
        earlier, later, ended, re_leased, fresh = epochs
        churn = compare_epochs(earlier, later)
        assert ended.prefix in churn.ended_leases
        assert fresh.prefix in churn.new_leases
        assert re_leased.prefix in churn.persisting
        assert re_leased.prefix in churn.re_leased

    def test_rates(self, epochs):
        earlier, later, *_ = epochs
        churn = compare_epochs(earlier, later)
        assert 0.0 < churn.turnover_rate < 0.2
        assert churn.growth_rate == pytest.approx(0.0, abs=0.2)

    def test_by_rir_consistency(self, epochs):
        earlier, later, *_ = epochs
        churn = compare_epochs(earlier, later)
        assert sum(rc.new for rc in churn.by_rir.values()) == len(
            churn.new_leases
        )
        assert sum(rc.ended for rc in churn.by_rir.values()) == len(
            churn.ended_leases
        )

    def test_identical_epochs_no_churn(self, epochs):
        earlier, *_ = epochs
        churn = compare_epochs(earlier, earlier)
        assert not churn.new_leases and not churn.ended_leases
        assert not churn.re_leased
        assert churn.turnover_rate == 0.0

    def test_empty_epochs_nan_rates(self):
        from repro.core import InferenceResult

        churn = compare_epochs(InferenceResult(), InferenceResult())
        assert math.isnan(churn.turnover_rate)


class TestValidationProfile:
    def test_counts(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.1.0/24"), 100)  # valid
        table.add_route(Prefix.parse("10.0.2.0/24"), 999)  # invalid
        table.add_route(Prefix.parse("10.0.3.0/24"), 300)  # not found
        roas = RoaSet(
            [
                ROA(prefix=Prefix.parse("10.0.1.0/24"), asn=100),
                ROA(prefix=Prefix.parse("10.0.2.0/24"), asn=200),
            ]
        )
        profile = validation_profile(
            [Prefix.parse(f"10.0.{i}.0/24") for i in (1, 2, 3)], table, roas
        )
        assert (profile.valid, profile.invalid, profile.not_found) == (1, 1, 1)
        assert profile.valid_share == pytest.approx(1 / 3)
        assert profile.covered_share == pytest.approx(2 / 3)

    def test_as0_counts_invalid(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.1.0/24"), 100)
        roas = RoaSet([ROA(prefix=Prefix.parse("10.0.1.0/24"), asn=AS0)])
        profile = validation_profile([Prefix.parse("10.0.1.0/24")], table, roas)
        assert profile.invalid == 1

    def test_unannounced_ignored(self):
        profile = validation_profile(
            [Prefix.parse("10.0.1.0/24")], RoutingTable(), RoaSet()
        )
        assert profile.total == 0
        assert math.isnan(profile.valid_share)

    def test_leased_space_mostly_valid_in_world(self):
        world = build_world(small_world())
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        profile = validation_profile(
            result.leased_prefixes(), world.routing_table, world.roas
        )
        # Facilitator-managed ROAs: most covered leases validate VALID
        # (the §6.4 bypass effect); the few INVALIDs are group-4 leases
        # without their own ROA, caught by the holder's root ROA.
        assert profile.valid > 0
        assert profile.valid > profile.invalid


class TestMultihomedInjection:
    def test_multihomed_blocks_misclassified_group4(self):
        world = build_world(small_world())
        entries = world.ground_truth.of_kind(TruthKind.MULTIHOMED_CUSTOMER)
        assert len(entries) == 1
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        verdict = result.lookup(entries[0].prefix)
        assert verdict.category is Category.LEASED_GROUP4

    def test_not_counted_as_true_leases(self):
        world = build_world(small_world())
        entry = world.ground_truth.of_kind(TruthKind.MULTIHOMED_CUSTOMER)[0]
        assert not entry.kind.is_leased


class TestFullPropagationMode:
    def test_same_origins_as_fast_mode(self):
        fast = build_world(small_world())
        scenario = dataclasses.replace(small_world(), full_propagation=True)
        slow = build_world(scenario)
        fast_view = {
            str(p): sorted(o) for p, o in fast.routing_table.items()
        }
        slow_view = {
            str(p): sorted(o) for p, o in slow.routing_table.items()
        }
        assert fast_view == slow_view
