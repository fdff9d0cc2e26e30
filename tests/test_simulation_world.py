"""Tests for the synthetic-world generator (small scenario for speed)."""

import random

import pytest

from repro.brokers import match_brokers
from repro.core import (
    Category,
    curate_reference,
    evaluate_inference,
    infer_leases,
)
from repro.rir import RIR
from repro.simulation import (
    TruthKind,
    build_world,
    paper_world,
    small_world,
)
from repro.simulation.names import NameForge, maintainer_handle, org_handle
from repro.simulation.world import GLOBAL_BROKER_NAME, NEGATIVE_ISPS


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def inference(world):
    return infer_leases(
        world.whois, world.routing_table, world.relationships, world.as2org
    )


class TestNameForge:
    def test_unique_names(self):
        forge = NameForge(random.Random(1))
        names = [forge.company() for _ in range(300)]
        assert len(set(names)) == 300

    def test_messy_variant_usually_normalizes_same(self):
        from repro.brokers import normalize_company_name

        forge = NameForge(random.Random(2))
        same = 0
        total = 50
        for _ in range(total):
            name = forge.company()
            variant = forge.messy_variant(name)
            if normalize_company_name(variant) == normalize_company_name(name):
                same += 1
        assert same >= total * 0.5  # most variants remain matchable

    def test_handles(self):
        assert org_handle("RIPE", 7) == "ORG-RIPE-0007"
        assert maintainer_handle("Acme Corp", 3).endswith("-MNT")


class TestWorldStructure:
    def test_deterministic(self):
        left = build_world(small_world(seed=42))
        right = build_world(small_world(seed=42))
        assert left.whois.total_inetnums() == right.whois.total_inetnums()
        assert sorted(map(str, left.routing_table.prefixes())) == sorted(
            map(str, right.routing_table.prefixes())
        )
        assert left.hijackers.asns() == right.hijackers.asns()

    def test_different_seeds_differ(self):
        left = build_world(small_world(seed=1))
        right = build_world(small_world(seed=2))
        assert sorted(map(str, left.routing_table.prefixes())) != sorted(
            map(str, right.routing_table.prefixes())
        )

    def test_all_regions_populated(self, world):
        for rir in RIR:
            assert len(world.whois[rir].inetnums) > 0

    def test_ground_truth_counts_match_spec(self, world):
        spec = world.scenario.region(RIR.ARIN)
        truth = world.ground_truth
        assert truth.count(TruthKind.UNUSED, RIR.ARIN) == spec.unused
        assert (
            truth.count(TruthKind.AGGREGATED_CUSTOMER, RIR.ARIN)
            == spec.aggregated
        )

    def test_negative_isps_exist(self, world):
        for rir, names in NEGATIVE_ISPS.items():
            org_ids = world.negative_isp_org_ids[rir]
            assert len(org_ids) >= len(names)
            for org_id in org_ids:
                assert world.whois[rir].org(org_id) is not None

    def test_global_broker_in_three_regions(self, world):
        regions = {
            broker.rir
            for broker in world.broker_registry
            if broker.name == GLOBAL_BROKER_NAME
        }
        assert regions == {RIR.RIPE, RIR.ARIN, RIR.APNIC}

    def test_apnic_orgs_hide_maintainers(self, world):
        report = match_brokers(
            world.broker_registry.brokers(RIR.APNIC), world.whois[RIR.APNIC]
        )
        assert report.maintainer_handles() == []

    def test_missing_brokers_unmatched(self, world):
        report = match_brokers(
            world.broker_registry.brokers(RIR.RIPE), world.whois[RIR.RIPE]
        )
        assert len(report.unmatched) >= 1

    def test_topology_is_transit_connected(self, world):
        for asn in world.topology.asns():
            assert world.topology.has_transit_path_to_top(asn)

    def test_relationships_match_topology(self, world):
        for left, right, code in world.topology.edges():
            assert world.relationships.relationship(left, right) == code

    def test_drop_archive_months(self, world):
        assert world.drop_archive.months() == list(
            world.scenario.drop_months
        )
        assert len(world.drop.asns()) >= 1

    def test_hijackers_superset_of_dropped_lessees(self, world):
        # Every lessee on DROP is also a serial hijacker in our scenario.
        leased = [
            entry
            for entry in world.ground_truth
            if entry.kind is TruthKind.LEASED_ACTIVE
            and entry.lessee_asn in world.drop
        ]
        for entry in leased:
            assert entry.lessee_asn in world.hijackers


class TestWorldInference:
    def test_active_leases_detected(self, world, inference):
        for entry in world.ground_truth.of_kind(TruthKind.LEASED_ACTIVE):
            verdict = inference.lookup(entry.prefix)
            assert verdict is not None and verdict.is_leased

    def test_inactive_leases_become_unused(self, world, inference):
        for entry in world.ground_truth.of_kind(TruthKind.LEASED_INACTIVE):
            verdict = inference.lookup(entry.prefix)
            assert verdict.category is Category.UNUSED

    def test_legacy_leases_invisible(self, world, inference):
        for entry in world.ground_truth.of_kind(TruthKind.LEASED_LEGACY):
            assert inference.lookup(entry.prefix) is None

    def test_subsidiary_blocks_misclassified_leased(self, world, inference):
        entries = world.ground_truth.of_kind(TruthKind.SUBSIDIARY_CUSTOMER)
        assert entries
        for entry in entries:
            assert inference.lookup(entry.prefix).is_leased

    def test_isp_customers_not_leased(self, world, inference):
        for entry in world.ground_truth.of_kind(TruthKind.ISP_CUSTOMER):
            verdict = inference.lookup(entry.prefix)
            assert verdict.category is Category.ISP_CUSTOMER

    def test_aggregated_classified(self, world, inference):
        for entry in world.ground_truth.of_kind(
            TruthKind.AGGREGATED_CUSTOMER
        ):
            verdict = inference.lookup(entry.prefix)
            assert verdict.category is Category.AGGREGATED_CUSTOMER

    def test_broker_connectivity_not_leased(self, world, inference):
        for entry in world.ground_truth.of_kind(
            TruthKind.BROKER_CONNECTIVITY
        ):
            verdict = inference.lookup(entry.prefix)
            assert not verdict.is_leased

    def test_evaluation_has_expected_error_modes(self, world, inference):
        reference = curate_reference(
            world.whois,
            world.broker_registry,
            world.routing_table,
            not_leased_exclusions=world.curation_exclusions,
            negative_isp_org_ids=world.negative_isp_org_ids,
        )
        report = evaluate_inference(inference, reference)
        # The small world has single-digit counts; precision is coarse.
        assert report.matrix.precision >= 0.8
        assert report.fn_unused >= 1  # the inactive leases
        assert report.fn_invisible >= 1  # the legacy lease
        assert report.matrix.fp >= 1  # the subsidiary effect


class TestFeaturedPrefix:
    def test_archive_nonempty(self, world):
        assert len(world.featured.rpki_archive) > 10

    def test_schedule_alternates_lease_and_as0(self, world):
        kinds = [lessee is None for _b, _e, lessee in world.featured.schedule]
        assert True in kinds and False in kinds

    def test_timeline_reconstruction(self, world):
        from repro.core import BgpOriginHistory, build_timeline

        bgp = BgpOriginHistory()
        for timestamp, origins in world.featured.bgp_observations:
            bgp.add_observation(timestamp, origins)
        timeline = build_timeline(
            world.featured.prefix, bgp, world.featured.rpki_archive
        )
        expected_leases = sum(
            1 for _b, _e, lessee in world.featured.schedule if lessee
        )
        assert timeline.lease_count() == expected_leases
        assert len(timeline.as0_periods()) >= 2


class TestTableDumpExport:
    def test_entries_cover_routing_table(self, world):
        entries = world.to_table_dump_entries()
        assert len(entries) >= world.routing_table.num_prefixes()

    def test_paths_end_at_origin(self, world):
        for entry in world.to_table_dump_entries()[:200]:
            assert entry.origin in world.routing_table.exact_origins(
                entry.prefix
            )

    def test_round_trip_through_dump_format(self, world):
        from repro.bgp import (
            RoutingTable,
            read_table_dump,
            write_table_dump,
        )

        entries = world.to_table_dump_entries()
        text = write_table_dump(entries)
        reloaded = RoutingTable.from_entries(read_table_dump(text))
        assert reloaded.num_prefixes() == world.routing_table.num_prefixes()


class TestPaperScenario:
    def test_region_totals_scale(self):
        scenario = paper_world(scale=50)
        assert scenario.total_leaves > 10_000
        ripe = scenario.region(RIR.RIPE)
        arin = scenario.region(RIR.ARIN)
        assert ripe.leased_total > arin.leased_total

    def test_unknown_region_raises(self):
        scenario = small_world()
        with pytest.raises(KeyError):
            scenario.region("nope")


class TestIntermediateSuballocations:
    def test_intermediates_exist_and_are_skipped(self):
        import dataclasses

        from repro.core import LeaseInferencePipeline
        from repro.whois import Portability

        scenario = dataclasses.replace(
            small_world(seed=11), intermediate_suballocation_share=0.5
        )
        world = build_world(scenario)
        pipeline = LeaseInferencePipeline(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        result = pipeline.run()
        # Intermediates were generated: /22 non-portable records that are
        # not ground-truth leaves themselves.
        truth_prefixes = {entry.prefix for entry in world.ground_truth}
        intermediates = [
            record
            for db in world.whois
            for record in db.inetnums
            if record.range.num_addresses == 1024  # the /22s
            and record.portability is Portability.NON_PORTABLE
            and all(
                prefix not in truth_prefixes
                for prefix in record.range.to_prefixes()
            )
        ]
        assert intermediates
        # None with stored descendants was classified (§5.1).
        for record in intermediates:
            for prefix in record.range.to_prefixes():
                verdict = result.lookup(prefix)
                if verdict is not None:
                    # Classified /22s are legacy-orphan cases: every
                    # covered block left the tree (legacy), making the
                    # intermediate a leaf. They must not be leases.
                    assert not verdict.is_leased

    def test_ground_truth_leaves_still_classified_correctly(self):
        import dataclasses

        from repro.core import Category, infer_leases

        scenario = dataclasses.replace(
            small_world(seed=11), intermediate_suballocation_share=0.5
        )
        world = build_world(scenario)
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        for entry in world.ground_truth.of_kind(TruthKind.LEASED_ACTIVE):
            assert result.lookup(entry.prefix).is_leased
        for entry in world.ground_truth.of_kind(TruthKind.ISP_CUSTOMER):
            assert (
                result.lookup(entry.prefix).category
                is Category.ISP_CUSTOMER
            )
