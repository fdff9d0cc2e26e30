"""Tests for the fast inference pipeline and its substrate.

Covers the fast engine (AnalysisContext + LeafClassifier) against the
frozen reference engine, the shared-context snapshots, the memoization
layers, the routing-table exact index, InferenceResult merge
semantics, and the reserve address pools that make worlds scalable.
"""

import dataclasses

import pytest

from repro.asdata import AS2Org, ASRelationships
from repro.bgp import P2C, RoutingTable
from repro.core import (
    AllocationScan,
    AnalysisContext,
    CacheStats,
    Category,
    LeafClassifier,
    LeaseInferencePipeline,
    RelatednessOracle,
    RibSnapshot,
)
from repro.core.allocation_tree import AllocationTree
from repro.core.context import build_related_sets
from repro.core.results import InferenceResult
from repro.net import Prefix
from repro.rir import RIR
from repro.simulation import build_world, small_world
from repro.simulation.world import RESERVE_POOLS
from repro.whois.database import WhoisCollection
from repro.whois.objects import AutNumRecord


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def pipeline(world):
    return LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )


def _rows(result):
    """Result as comparable rows, preserving iteration order."""
    return [
        (inf.rir, inf.prefix, inf.category, inf.leaf_origins,
         inf.root_origins, inf.root_assigned_asns)
        for inf in result
    ]


class TestStatsGate:
    """Satellite 4: stats() must fail loudly before any run."""

    def test_stats_raises_before_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships
        )
        with pytest.raises(RuntimeError, match="before run"):
            fresh.stats()

    def test_cache_stats_raises_before_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships
        )
        with pytest.raises(RuntimeError):
            fresh.cache_stats()

    def test_stats_populated_after_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run()
        stats = fresh.stats()
        assert set(stats) == set(RIR)
        assert all(stats[rir]["classifiable"] >= 0 for rir in stats)
        rates = fresh.cache_stats().hit_rates()
        assert set(rates) == {
            "relatedness", "category", "root_origin", "assigned"
        }

    def test_cache_stats_raises_after_reference_run(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run_reference()
        fresh.stats()  # populated by the reference engine too
        with pytest.raises(RuntimeError, match="reference"):
            fresh.cache_stats()

    def test_stats_returns_copies(self, world):
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run()
        fresh.stats()[RIR.RIPE]["classifiable"] = -1
        assert fresh.stats()[RIR.RIPE]["classifiable"] >= 0


class TestEngineEquivalence:
    """The tentpole contract: every engine mode is bit-identical."""

    def test_fast_serial_matches_reference(self, pipeline):
        reference = pipeline.run_reference()
        ref_stats = pipeline.stats()
        serial = pipeline.run()
        assert _rows(serial) == _rows(reference)
        assert pipeline.stats() == ref_stats

    def test_single_rir_subset(self, pipeline):
        reference = pipeline.run_reference(rirs=[RIR.RIPE])
        fast = pipeline.run(rirs=[RIR.RIPE])
        assert _rows(fast) == _rows(reference)
        assert set(pipeline.stats()) == {RIR.RIPE}

    def test_timings_recorded(self, pipeline):
        pipeline.run()
        assert set(pipeline.timings) == {"tree_build_s", "classify_s"}
        assert all(value >= 0 for value in pipeline.timings.values())

    def test_run_reuses_supplied_context(self, world, pipeline):
        serial = pipeline.run()
        context = pipeline.context
        assert context is not None
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        reused = fresh.run(context=context)
        assert fresh.context is context
        assert _rows(reused) == _rows(serial)


class TestAnalysisContext:
    """The shared snapshot must mirror its live substrates exactly."""

    @pytest.fixture(scope="class")
    def context(self, world):
        return AnalysisContext.build(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )

    def test_rib_snapshot_matches_routing_table(self, world, context):
        table = world.routing_table
        probes = set()
        for prefix in table.prefixes():
            probes.add(prefix)
            if prefix.length < 28:
                probes.add(prefix.nth_subnet(prefix.length + 2, 1))
            if prefix.length > 2:
                probes.add(prefix.supernet(prefix.length - 2))
        for probe in probes:
            assert context.rib.exact_origins(probe) == frozenset(
                table.exact_origins(probe)
            )
            assert context.rib.covering_origins(probe) == frozenset(
                table.covering_origins(probe)
            )

    def test_related_sets_match_oracle(self, world, context):
        oracle = RelatednessOracle(world.relationships, world.as2org)
        sample = sorted(world.relationships.asns())[:40]
        for left in sample:
            family = context.related_to(left)
            for right in sample:
                assert oracle.related(left, right) == (right in family)

    def test_assigned_matches_database(self, world, context):
        for rir in context.rirs:
            database = world.whois[rir]
            orgs = {autnum.org_id for autnum in database.autnums}
            for org_id in orgs - {None}:
                assert context.assigned_asns(rir, org_id) == frozenset(
                    database.asns_of_org(org_id)
                )

    def test_build_related_sets_contains_self(self, world):
        related = build_related_sets(world.relationships, world.as2org)
        assert related
        assert all(asn in family for asn, family in related.items())

    def test_sets_are_interned_through_the_routing_table(self, world, context):
        """The context's sets equal the uninterned ones, and equal sets
        are one object: a one-AS set is the table's ``frozenset({asn})``."""
        interned = world.routing_table.origin_sets()
        related = build_related_sets(world.relationships, world.as2org)
        families = {}
        for asn, family in related.items():
            assert context.related_to(asn) == family
            shared = families.setdefault(family, context.related_to(asn))
            assert context.related_to(asn) is shared
        singletons = 0
        for rir in RIR:
            by_org = {}
            for autnum in world.whois[rir].autnums:
                if autnum.org_id:
                    by_org.setdefault(autnum.org_id, set()).add(autnum.asn)
            for org_id, asns in by_org.items():
                assigned = context.assigned_asns(rir, org_id)
                assert assigned == frozenset(asns)
                if len(asns) == 1:
                    assert assigned is interned[next(iter(asns))]
                    singletons += 1
        assert singletons
        lone = [
            origins
            for _prefix, origins in world.routing_table.items()
            if len(origins) == 1
        ]
        assert lone
        for origins in lone:
            (asn,) = origins
            assert interned[asn] is origins
            if asn in related and len(related[asn]) == 1:
                assert context.related_to(asn) is origins

    def test_equal_families_share_one_set(self):
        """Same-organisation ASes with no other neighbours have equal
        families, and a lone AS's family is the table's singleton."""
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/16"), 7)
        relationships = ASRelationships()
        relationships.add(1, 2, P2C)
        as2org = AS2Org()
        as2org.add_org("ORG-PAIR")
        as2org.map_asn(5, "ORG-PAIR")
        as2org.map_asn(6, "ORG-PAIR")
        as2org.add_org("ORG-LONE")
        as2org.map_asn(7, "ORG-LONE")
        context = AnalysisContext.build(
            WhoisCollection(), table, relationships, as2org
        )
        assert context.related_to(5) == {5, 6}
        assert context.related_to(5) is context.related_to(6)
        assert context.related_to(7) is table.exact_origins(
            Prefix.parse("10.0.0.0/16")
        )
        assert context.related_to(1) == {1, 2}


class TestAllocationScan:
    """The sorted-scan tree must agree with the pointer tree everywhere."""

    @pytest.mark.parametrize("rir", list(RIR), ids=lambda r: r.name)
    def test_scan_matches_tree(self, world, rir):
        database = world.whois[rir]
        tree = AllocationTree(database)
        scan = AllocationScan(database)
        assert [
            (leaf.prefix, leaf.record, leaf.root_prefix)
            for leaf in scan.leaves()
        ] == [
            (leaf.prefix, leaf.record, leaf.root_prefix)
            for leaf in tree.leaves()
        ]
        assert [
            leaf.prefix for leaf in scan.classifiable_leaves()
        ] == [leaf.prefix for leaf in tree.classifiable_leaves()]
        assert scan.root_count == len(tree.roots())

    def test_scan_stats_keys(self, world):
        scan = AllocationScan(world.whois[RIR.RIPE])
        assert set(scan.stats()) == {
            "nodes", "roots", "leaves", "classifiable",
            "hyper_specific_dropped", "legacy_dropped",
        }
        assert len(scan) == scan.stats()["nodes"]


class TestRoutingTableIndex:
    def _table(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/16"), 65001)
        table.add_route(Prefix.parse("10.0.1.0/24"), 65002)
        table.add_route(Prefix.parse("10.0.1.0/24"), 65003)
        return table

    def test_exact_index_mirrors_lookups(self):
        table = self._table()
        index = table.exact_index()
        assert index[Prefix.parse("10.0.1.0/24")] == {65002, 65003}
        assert table.exact_origins(Prefix.parse("10.0.1.0/24")) == {
            65002, 65003,
        }
        assert Prefix.parse("10.0.2.0/24") not in index

    def test_withdraw_keeps_everything_consistent(self):
        table = self._table()
        leaf = Prefix.parse("10.0.1.0/24")
        count_before = len(table)
        assert table.withdraw(leaf) is True
        assert table.withdraw(leaf) is False  # already gone
        assert not table.is_advertised(leaf)
        assert leaf not in table.exact_index()
        # covering lookup now resolves to the /16
        assert table.covering_origins(leaf) == {65001}
        assert len(table) == count_before - 2
        assert 65002 not in table.origins()

    def test_interleaved_announce_withdraw_consistency(self):
        """Satellite: exact and covering lookups (and the exact index the
        snapshots are built from) must agree after any announce/withdraw
        interleaving."""
        p16 = Prefix.parse("10.0.0.0/16")
        p20 = Prefix.parse("10.0.16.0/20")
        p24 = Prefix.parse("10.0.1.0/24")
        p24b = Prefix.parse("10.0.16.0/24")
        probes = [p16, p20, p24, p24b, Prefix.parse("10.0.2.0/24")]
        operations = [
            ("announce", p16, 65001),
            ("announce", p24, 65002),
            ("announce", p24, 65003),
            ("withdraw", p24, None),
            ("announce", p20, 65004),
            ("announce", p24b, 65005),
            ("withdraw", p16, None),
            ("announce", p24, 65006),
            ("announce", p16, 65007),
            ("withdraw", p24b, None),
            ("withdraw", p20, None),
        ]
        table = RoutingTable()
        for action, prefix, origin in operations:
            if action == "announce":
                table.add_route(prefix, origin)
            else:
                assert table.withdraw(prefix) is True
            snapshot = RibSnapshot.from_routing_table(table)
            for probe in probes:
                exact = frozenset(table.exact_origins(probe))
                covering = frozenset(table.covering_origins(probe))
                assert snapshot.exact_origins(probe) == exact
                assert snapshot.covering_origins(probe) == covering
                if exact:
                    assert covering == exact
                assert (probe in table.exact_index()) == bool(exact)


class TestMemoization:
    def test_relatedness_cache_hits_on_real_world(self, world):
        """Satellite: the re-keyed (leaf_origin, root_org) memo must
        actually hit — the old per-AS-pair memo recorded 0.0 forever."""
        fresh = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        fresh.run()
        stats = fresh.cache_stats()
        assert stats.relatedness_hits > 0
        assert stats.hit_rates()["relatedness"] > 0.0

    def test_relatedness_memo_keys_on_root_org(self):
        """One leaf origin under two root organisations: the memo must
        not carry the first organisation's answer over to the second.
        No generated world puts one origin under two organisations, so
        only this test pins the ``root_org`` half of the key."""
        whois = WhoisCollection()
        whois[RIR.RIPE].add(AutNumRecord(rir=RIR.RIPE, asn=100, org_id="ORG-A"))
        whois[RIR.RIPE].add(AutNumRecord(rir=RIR.RIPE, asn=200, org_id="ORG-B"))
        relationships = ASRelationships()
        relationships.add(100, 300, P2C)
        table = RoutingTable()
        leaf = Prefix.parse("62.0.0.0/24")
        table.add_route(leaf, 300)
        context = AnalysisContext.build(whois, table, relationships)
        classifier = LeafClassifier(context, RIR.RIPE)
        assert classifier.classify(leaf, None, "ORG-A")[0] is (
            Category.ISP_CUSTOMER
        )
        assert classifier.classify(leaf, None, "ORG-B")[0] is (
            Category.LEASED_GROUP3
        )
        assert classifier.stats().relatedness_misses == 2

    def test_cache_stats_merge_and_rates(self):
        left = CacheStats(relatedness_hits=3, relatedness_misses=1)
        right = CacheStats(relatedness_hits=1, relatedness_misses=3,
                           category_hits=2)
        left.merge(right)
        assert left.relatedness_hits == 4
        assert left.relatedness_misses == 4
        assert left.hit_rates()["relatedness"] == 0.5
        assert left.hit_rates()["category"] == 1.0
        assert CacheStats().hit_rates()["assigned"] == 0.0
        payload = left.as_dict()
        assert payload["relatedness_hits"] == 4
        assert "hit_rates" in payload


class TestInferenceResultOps:
    def test_merge_and_from_inferences(self, pipeline):
        full = pipeline.run()
        inferences = list(full)
        rebuilt = InferenceResult.from_inferences(inferences)
        assert rebuilt == full
        left = InferenceResult.from_inferences(inferences[: len(inferences) // 2])
        right = InferenceResult.from_inferences(inferences[len(inferences) // 2 :])
        left.merge(right)
        assert left == full

    def test_eq_is_order_independent(self, pipeline):
        full = pipeline.run()
        reversed_result = InferenceResult.from_inferences(
            list(reversed(list(full)))
        )
        assert reversed_result == full
        assert _rows(reversed_result) != _rows(full)  # order does differ

    def test_eq_detects_differences(self, pipeline):
        full = pipeline.run()
        inferences = list(full)
        assert InferenceResult.from_inferences(inferences[:-1]) != full
        assert full != object()

    def test_lookup_builds_its_index_on_first_use(self, pipeline):
        inferences = list(pipeline.run())
        result = InferenceResult.from_inferences(inferences)
        assert result._by_prefix is None
        first = inferences[0]
        assert result.lookup(first.prefix) is first
        assert result.lookup(Prefix.parse("203.0.113.0/24")) is None
        assert result._by_prefix is not None

    def test_lookup_after_add_sees_the_new_row(self, pipeline):
        inferences = list(pipeline.run())
        result = InferenceResult.from_inferences(inferences)
        first = inferences[0]
        assert result.lookup(first.prefix) is first
        moved = dataclasses.replace(first, category=Category.UNUSED)
        result.add(moved)  # a duplicate prefix: the last one added wins
        assert result.lookup(first.prefix) is moved
        extra = dataclasses.replace(
            first, prefix=Prefix.parse("203.0.113.0/24")
        )
        result.add(extra)
        assert result.lookup(extra.prefix) is extra
        assert len(result) == len(inferences) + 2

    def test_eq_ignores_the_lookup_index(self, pipeline):
        full = pipeline.run()
        inferences = list(full)
        looked_up = InferenceResult.from_inferences(inferences)
        looked_up.lookup(inferences[0].prefix)
        assert looked_up == full
        assert full == looked_up
        assert InferenceResult.from_inferences(inferences[:-1]) != looked_up


class TestReservePools:
    def test_exhausted_pool_draws_reserve_pools(self):
        # Shrink one region of the small world to a single /8 and demand
        # more than its 256 /16s: the builder must overflow into
        # RESERVE_POOLS instead of raising.
        base = small_world()
        regions = tuple(
            spec
            if spec.rir is not RIR.RIPE
            else dataclasses.replace(
                spec,
                # > 256 holders' worth of /16 roots at 6 leaves/holder
                leased_group4=260 * 6,
                address_pools=spec.address_pools[:1],
            )
            for spec in base.regions
        )
        scenario = dataclasses.replace(base, regions=regions)
        world = build_world(scenario)
        reserve_first_octets = {
            record.range.first >> 24
            for record in world.whois[RIR.RIPE].inetnums
            if (record.range.first >> 24) in RESERVE_POOLS
        }
        assert reserve_first_octets, "expected reserve /8s to be drawn"
        assert reserve_first_octets <= set(RESERVE_POOLS)

    def test_reserve_pools_untouched_at_small_scale(self):
        world = build_world(small_world())
        used = {
            record.range.first >> 24
            for rir in RIR
            for record in world.whois[rir].inetnums
        }
        assert not (used & set(RESERVE_POOLS))
