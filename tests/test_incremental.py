"""Unit tests for the streaming incremental-reclassification engine."""

import pytest

from repro.asdata import ASRelationships
from repro.bgp import P2C, ASPath, RoutingTable
from repro.bgp.history import AnnounceUpdate, WithdrawUpdate
from repro.bgp.updates import SequencedUpdate
from repro.core import (
    AnalysisContext,
    Category,
    IncrementalEngine,
    LeaseInferencePipeline,
    MutableRibOverlay,
    RibSnapshot,
    clone_routing_table,
    replay_into_table,
    result_digest,
)
from repro.net import AddressRange, Prefix
from repro.rir import RIR
from repro.simulation import build_world, small_world
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisCollection,
    WhoisDatabase,
)


def announce(prefix, *path):
    return AnnounceUpdate(
        timestamp=1712102400,
        prefix=Prefix.parse(prefix),
        path=ASPath.of(*path),
    )


def withdraw(prefix):
    return WithdrawUpdate(timestamp=1712102400, prefix=Prefix.parse(prefix))


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def pipeline(world):
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    pipeline.run()
    return pipeline


@pytest.fixture()
def engine(pipeline):
    return IncrementalEngine(pipeline.context)


def snapshot(routes):
    """A frozen RIB snapshot of ``{prefix text: origins}``."""
    table = RoutingTable()
    for text, origins in routes.items():
        for origin in origins:
            table.add_route(Prefix.parse(text), origin)
    return RibSnapshot.from_routing_table(table)


class TestMutableRibOverlay:
    @pytest.fixture()
    def overlay(self):
        base = snapshot({"10.0.0.0/16": {100}, "10.0.1.0/24": {200, 201}})
        return MutableRibOverlay(base)

    def test_starts_identical_to_base(self, overlay):
        assert overlay.exact_origins(Prefix.parse("10.0.1.0/24")) == {200, 201}
        assert overlay.covering_origins(Prefix.parse("10.0.2.0/24")) == {100}

    def test_announce_new_prefix(self, overlay):
        prefix = Prefix.parse("10.0.2.0/24")
        assert overlay.announce(prefix, 300) is True
        assert overlay.exact_origins(prefix) == {300}

    def test_announce_extra_origin(self, overlay):
        prefix = Prefix.parse("10.0.1.0/24")
        assert overlay.announce(prefix, 202) is True
        assert overlay.exact_origins(prefix) == {200, 201, 202}

    def test_reannounce_live_origin_is_a_noop(self, overlay):
        assert overlay.announce(Prefix.parse("10.0.1.0/24"), 200) is False

    def test_withdraw_evicts_wholly(self, overlay):
        prefix = Prefix.parse("10.0.1.0/24")
        assert overlay.withdraw(prefix) is True
        assert overlay.exact_origins(prefix) == frozenset()
        # The covering /16 is now exposed for the withdrawn prefix.
        assert overlay.covering_origins(prefix) == {100}

    def test_withdraw_absent_is_a_noop(self, overlay):
        assert overlay.withdraw(Prefix.parse("192.0.2.0/24")) is False

    def test_new_length_extends_covering_walk(self, overlay):
        # No /20 is advertised; announcing one must make it coverable
        # (least-specific cover wins, so the /16 must go first).
        supernet = Prefix.parse("10.0.0.0/20")
        overlay.announce(supernet, 400)
        assert overlay.covering_origins(Prefix.parse("10.0.1.0/24")) == {
            200,
            201,
        }
        overlay.withdraw(Prefix.parse("10.0.1.0/24"))
        overlay.withdraw(Prefix.parse("10.0.0.0/16"))
        assert overlay.covering_origins(Prefix.parse("10.0.1.0/24")) == {400}

    def test_vanished_length_shrinks_covering_walk(self, overlay):
        overlay.withdraw(Prefix.parse("10.0.0.0/16"))
        assert (
            overlay.covering_origins(Prefix.parse("10.0.2.0/24"))
            == frozenset()
        )

    def test_base_snapshot_not_mutated(self):
        base = snapshot({"10.0.0.0/16": {100}})
        overlay = MutableRibOverlay(base)
        overlay.withdraw(Prefix.parse("10.0.0.0/16"))
        assert base.exact_origins(Prefix.parse("10.0.0.0/16")) == {100}


class TestEngineBaseline:
    def test_initial_state_matches_pipeline(self, pipeline, engine):
        assert engine.digest() == result_digest(pipeline.run())

    def test_result_row_order_matches_pipeline(self, pipeline, engine):
        expected = [inference.prefix for inference in pipeline.run()]
        assert [inference.prefix for inference in engine.result()] == expected

    def test_empty_burst_is_a_noop(self, engine):
        before = engine.digest()
        report = engine.apply([])
        assert report.applied == 0
        assert report.reclassified == 0
        assert report.changed == ()
        assert engine.digest() == before

    def test_noop_updates_counted_ignored(self, engine):
        report = engine.apply([withdraw("240.0.0.0/24")])
        assert report.ignored == 1
        assert report.applied == 0
        assert report.reclassified == 0

    def test_sequenced_wrappers_unwrapped(self, engine, world):
        prefix = sorted(world.routing_table.exact_index())[0]
        message = SequencedUpdate(
            sequence=1,
            update=WithdrawUpdate(timestamp=1712102400, prefix=prefix),
        )
        report = engine.apply([message])
        assert report.applied == 1
        assert prefix in report.changed_prefixes

    def test_withdraw_then_scratch_rebuild_identical(
        self, engine, world
    ):
        prefix = sorted(world.routing_table.exact_index())[0]
        engine.apply([withdraw(str(prefix))])
        mutated = clone_routing_table(world.routing_table)
        replay_into_table(mutated, [withdraw(str(prefix))])
        scratch = LeaseInferencePipeline(
            world.whois, mutated, world.relationships, world.as2org
        ).run()
        assert engine.digest() == result_digest(scratch)

    def test_cache_stats_merge_regions(self, engine, pipeline):
        originated = next(row for row in pipeline.run() if row.leaf_origins)
        assert engine.apply([withdraw(str(originated.prefix))]).reclassified
        stats = engine.cache_stats().as_dict()
        assert stats["category_misses"] > 0
        assert set(stats["hit_rates"]) == {
            "relatedness",
            "category",
            "root_origin",
            "assigned",
        }


def two_registry_context(table):
    """RIPE and AFRINIC both register 213.210.0.0/18 and its two leaves.

    The /18 is the holder's root (AS8851 is its assigned AS); the
    /24 is a leaf originated by the unrelated AS15169 and the /23 an
    unannounced leaf, in each registry.  Both also register a second
    root, 213.211.0.0/18, whose one leaf sits between the first root's
    leaves in the two registries.
    """
    databases = {}
    for rir in (RIR.RIPE, RIR.AFRINIC):
        db = WhoisDatabase(rir)
        db.add(OrgRecord(rir=rir, org_id="ORG-GCI1", name="GCI Network"))
        db.add(AutNumRecord(rir=rir, asn=8851, org_id="ORG-GCI1"))
        for text, status, org in (
            ("213.210.0.0/18", "ALLOCATED PA", "ORG-GCI1"),
            ("213.210.33.0/24", "ASSIGNED PA", None),
            ("213.210.2.0/23", "ASSIGNED PA", None),
            ("213.211.0.0/18", "ALLOCATED PA", "ORG-GCI1"),
            ("213.211.0.0/24", "ASSIGNED PA", None),
        ):
            db.add(
                InetnumRecord(
                    rir=rir,
                    range=AddressRange.parse(text),
                    status=status,
                    org_id=org,
                    maintainers=("MNT-GCI",),
                )
            )
        databases[rir] = db
    relationships = ASRelationships()
    relationships.add(3356, 8851, P2C)
    relationships.add(3356, 15169, P2C)
    return AnalysisContext.build(
        WhoisCollection(databases), table, relationships
    )


class TestTwoRegistries:
    """Leaves found by prefix and by root, across registries."""

    @pytest.fixture()
    def table(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("213.210.0.0/18"), 8851)
        table.add_route(Prefix.parse("213.210.33.0/24"), 15169)
        return table

    @pytest.fixture()
    def context(self, table):
        return two_registry_context(table)

    def scratch_digest(self, table, bursts):
        mutated = clone_routing_table(table)
        for burst in bursts:
            replay_into_table(mutated, burst)
        return IncrementalEngine(two_registry_context(mutated)).digest()

    def test_one_prefix_reclassifies_both_registries(self, table, context):
        engine = IncrementalEngine(context)
        burst = [withdraw("213.210.33.0/24")]
        report = engine.apply(burst)
        assert report.reclassified == 2
        assert [(row.rir, str(row.prefix)) for row in report.changed] == [
            (RIR.AFRINIC, "213.210.33.0/24"),
            (RIR.RIPE, "213.210.33.0/24"),
        ]
        assert {row.category for row in report.changed} == {
            Category.AGGREGATED_CUSTOMER
        }
        assert engine.digest() == self.scratch_digest(table, [burst])

    def test_root_resolution_away_and_back(self, table, context):
        engine = IncrementalEngine(context)
        fresh = engine.digest()
        root = Prefix.parse("213.210.0.0/18")
        away = [withdraw("213.210.0.0/18"), announce("213.210.0.0/16", 64500)]
        back = [withdraw("213.210.0.0/16"), announce("213.210.0.0/18", 8851)]
        # Registries in name order, each leaf in prefix order.
        expected = [
            (rir, leaf)
            for rir in (RIR.AFRINIC, RIR.RIPE)
            for leaf in ("213.210.2.0/23", "213.210.33.0/24")
        ]
        for burst, origins in ((away, {64500}), (back, {8851})):
            report = engine.apply(burst)
            assert report.dirty_roots == (root,)
            assert [
                (row.rir, str(row.prefix)) for row in report.changed
            ] == expected
            assert {row.root_origins for row in report.changed} == {
                frozenset(origins)
            }
        assert engine.digest() == fresh
        assert engine.digest() == IncrementalEngine(context).digest()

    def test_dirty_leaf_that_does_not_move_reports_no_row(self, context):
        engine = IncrementalEngine(context)
        flap = [withdraw("213.210.33.0/24"), announce("213.210.33.0/24", 15169)]
        report = engine.apply(flap)
        assert report.applied == 2
        assert report.reclassified == 2
        assert report.changed == ()
        # Once a leaf has moved, its stored row is the one compared.
        moved = engine.apply([withdraw("213.210.33.0/24")])
        assert len(moved.changed) == 2
        again = engine.apply(
            [announce("213.210.33.0/24", 15169), withdraw("213.210.33.0/24")]
        )
        assert again.reclassified == 2
        assert again.changed == ()
        assert engine.digest() != IncrementalEngine(context).digest()


class TestTableHelpers:
    def test_clone_is_independent(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/24"), 100)
        clone = clone_routing_table(table)
        clone.add_route(Prefix.parse("10.0.1.0/24"), 200)
        assert table.num_prefixes() == 1
        assert clone.num_prefixes() == 2
        assert clone.exact_origins(Prefix.parse("10.0.0.0/24")) == {100}

    def test_clone_preserves_moas(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/24"), 100)
        table.add_route(Prefix.parse("10.0.0.0/24"), 101)
        clone = clone_routing_table(table)
        assert clone.exact_origins(Prefix.parse("10.0.0.0/24")) == {100, 101}

    def test_replay_matches_overlay_semantics(self):
        table = RoutingTable()
        table.add_route(Prefix.parse("10.0.0.0/24"), 100)
        table.add_route(Prefix.parse("10.0.0.0/24"), 101)
        replay_into_table(
            table,
            [
                withdraw("10.0.0.0/24"),  # evicts both origins
                announce("10.0.1.0/24", 3356, 200),
                SequencedUpdate(
                    sequence=9, update=announce("10.0.1.0/24", 3356, 201)
                ),
            ],
        )
        assert table.exact_origins(Prefix.parse("10.0.0.0/24")) == frozenset()
        assert table.exact_origins(Prefix.parse("10.0.1.0/24")) == {200, 201}


class TestResultDigest:
    def test_digest_ignores_row_order(self, pipeline):
        result = pipeline.run()
        rows = list(result)
        reversed_result = type(result).from_inferences(reversed(rows))
        assert result_digest(result) == result_digest(reversed_result)

    def test_digest_sees_category_changes(self, pipeline, engine, world):
        prefix = sorted(world.routing_table.exact_index())[0]
        before = engine.digest()
        report = engine.apply([withdraw(str(prefix))])
        if report.changed:
            assert engine.digest() != before
