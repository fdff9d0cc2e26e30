"""Tests for the context image and its shared-memory attachment.

Covers the flat-array radix helpers against the trie structures they
mirror; the context — built locally and attached over a segment —
against the reference semantics it must reproduce (``RoutingTable``,
``RelatednessOracle``, ``WhoisDatabase``); the byte-for-byte segment
copy and O(1) attach-by-name pickling; segment lifecycle (close /
destroy / GC finalizer / crash / full ``/dev/shm`` cleanup); and full
pipeline equivalence for the shared-memory pool under the default start
method and under forced spawn.
"""

import errno
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asdata import AS2Org, ASRelationships
from repro.bgp import P2C, P2P, RoutingTable
from repro.core import LeaseInferencePipeline
from repro.core.context import AnalysisContext
from repro.core.relatedness import RelatednessOracle
from repro.core.sharding import classify_shard_rows, plan_shards
from repro.core.shm import (
    SharedAnalysisContext,
    attached_segment_names,
    payload_pickle_bytes,
)
from repro.net import Prefix
from repro.net.radix import (
    PrefixTrie,
    flat_covered_range,
    flat_covering_index,
    pack_prefix,
    unpack_prefix,
)
from repro.rir import ALL_RIRS, RIR
from repro.simulation import build_world, small_world
from repro.whois.database import WhoisCollection
from repro.whois.objects import AutNumRecord

from .test_core_extensions import make_legacy_pipeline


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def pipeline(world):
    p = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    p.run(workers=1)
    return p


@pytest.fixture(scope="module")
def context(pipeline):
    return pipeline.context


def _probe_prefixes(context):
    """Exact, covered, covering, and absent prefixes to interrogate."""
    probes = []
    for prefix, _origins in context.rib.exact_items():
        probes.append(prefix)
        if prefix.length < 30:
            probes.append(Prefix(prefix.network, prefix.length + 2))
        if prefix.length > 2:
            probes.append(prefix.supernet(prefix.length - 2))
    probes.append(Prefix.parse("203.0.113.0/24"))  # never announced
    return probes


class TestFlatHelpers:
    def test_pack_unpack_roundtrip(self):
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.0.2.128/25",
                     "255.255.255.255/32"):
            prefix = Prefix.parse(text)
            assert unpack_prefix(pack_prefix(prefix)) == prefix

    def test_pack_orders_like_prefixes(self):
        prefixes = sorted(
            Prefix.parse(t)
            for t in ("10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16",
                      "11.0.0.0/8", "192.0.2.0/24")
        )
        packed = [pack_prefix(p) for p in prefixes]
        assert packed == sorted(packed)

    def test_flat_lookups_match_prefix_trie(self, context):
        trie = PrefixTrie()
        for prefix, _ in context.rib.exact_items():
            trie.insert(prefix, prefix)
        for probe in _probe_prefixes(context):
            assert (probe in context.rib) == (trie.exact(probe) is not None)

    def test_flat_covered_range_is_the_subtree(self, context):
        entries = sorted(
            (pack_prefix(p), p) for p, _ in context.rib.exact_items()
        )
        keys = [packed for packed, _ in entries]
        for probe in _probe_prefixes(context):
            start, stop = flat_covered_range(keys, probe)
            covered = {entries[i][1] for i in range(start, stop)}
            expected = {
                prefix for _, prefix in entries if probe.contains(prefix)
            }
            assert covered == expected

    def test_flat_covering_index_finds_least_specific(self, context):
        entries = sorted(
            (pack_prefix(p), p) for p, _ in context.rib.exact_items()
        )
        keys = [packed for packed, _ in entries]
        lengths = tuple(sorted({key & 0xFF for key in keys}))
        stored = {prefix for _, prefix in entries}
        for probe in _probe_prefixes(context):
            found = flat_covering_index(keys, lengths, probe)
            expected = None
            for length in sorted(lengths):
                if length > probe.length:
                    break
                candidate = probe.supernet(length)
                if candidate in stored:
                    expected = candidate
                    break
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert unpack_prefix(keys[found]) == expected


class TestFlatRib:
    def test_matches_rib_snapshot_everywhere(self, world, context):
        """The image-backed RIB, local and attached over a segment,
        answers like the routing table it was built from."""
        table = world.routing_table
        with SharedAnalysisContext.from_context(context) as shared:
            assert len(shared.rib) == len(context.rib) == len(
                table.exact_index()
            )
            for probe in _probe_prefixes(context):
                for rib in (context.rib, shared.rib):
                    assert rib.exact_origins(probe) == table.exact_origins(
                        probe
                    )
                    assert rib.covering_origins(
                        probe
                    ) == table.covering_origins(probe)
                    assert (probe in rib) == (
                        probe in table.exact_index()
                    )


# -- the context against the reference semantics ---------------------------

#: Nested prefixes under 10.0.0.0/8, so covers and covered-only probes
#: are common.
_prefixes = st.builds(
    lambda length, high, low: Prefix(
        ((10 << 24) | (high << 20) | (low << 12))
        & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF),
        length,
    ),
    st.sampled_from([8, 12, 16, 20, 24]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
_asns = st.integers(min_value=1, max_value=12)
_orgs = st.sampled_from(["ORG-A", "ORG-B", "ORG-É", "org-a", ""])


@st.composite
def _substrates(draw):
    """A routing table, relationships, AS2org and registry ASNs."""
    table = RoutingTable()
    routes = draw(st.lists(st.tuples(_prefixes, _asns), max_size=20))
    for prefix, origin in routes:
        table.add_route(prefix, origin)
    stored = sorted({prefix for prefix, _ in routes})
    for prefix in stored:
        fate = draw(st.sampled_from(["keep", "keep", "withdraw", "empty"]))
        if fate == "withdraw":
            table.withdraw(prefix)
        elif fate == "empty":
            # Still stored in the table's prefix map, with no origins.
            table._trie.insert(prefix, frozenset())
    relationships = ASRelationships()
    for left, right, code in draw(
        st.lists(st.tuples(_asns, _asns, st.sampled_from([P2C, P2P])),
                 max_size=10)
    ):
        if left != right:
            relationships.add(left, right, code)
    as2org = AS2Org()
    for asn, org in draw(st.lists(st.tuples(_asns, _orgs), max_size=8)):
        if org:
            as2org.add_org(org)
            as2org.map_asn(asn, org)
    whois = WhoisCollection()
    for rir, asn, org in draw(
        st.lists(st.tuples(st.sampled_from(ALL_RIRS), _asns, _orgs),
                 max_size=12)
    ):
        whois[rir].add(AutNumRecord(rir=rir, asn=asn, org_id=org or None))
    probes = set(stored)
    for prefix in stored:
        probes.add(Prefix(prefix.network, 28))  # covered only
    probes.add(Prefix.parse("8.0.0.0/6"))  # covers everything, stored never
    probes.add(Prefix.parse("192.0.2.0/24"))  # absent
    return table, relationships, as2org, whois, sorted(probes)


class TestReferenceSemantics:
    """Built locally or attached over a segment, the context answers
    like the live structures it was built from."""

    @settings(max_examples=60, deadline=None)
    @given(_substrates())
    def test_context_answers_like_the_references(self, substrates):
        table, relationships, as2org, whois, probes = substrates
        local = AnalysisContext.build(whois, table, relationships, as2org)
        oracle = RelatednessOracle(relationships, as2org)
        with SharedAnalysisContext.from_context(local) as shared:
            attached = pickle.loads(pickle.dumps(shared))
            try:
                for context in (local, shared, attached):
                    _assert_reference_semantics(
                        context, table, oracle, whois, probes
                    )
            finally:
                attached.close()
        assert attached_segment_names() == []

    def test_exact_items_match_routing_table(self, world, context):
        assert dict(context.rib.exact_items()) == {
            prefix: frozenset(origins)
            for prefix, origins in world.routing_table.exact_index().items()
        }


def _assert_reference_semantics(context, table, oracle, whois, probes):
    for rib in (context.rib, pickle.loads(pickle.dumps(context.rib))):
        for probe in probes:
            assert rib.exact_origins(probe) == table.exact_origins(probe)
            assert rib.covering_origins(probe) == table.covering_origins(probe)
    asns = range(0, 15)
    for left in asns:
        family = context.related_to(left)
        for right in asns:
            related = oracle.related(left, right)
            assert (right in family) == related
            assert context.any_related((left,), frozenset((right,))) == related
    rights = frozenset(asns[1::3])
    expected = next(
        (
            (left, min(r for r in rights if oracle.related(left, r)))
            for left in asns
            if oracle.any_related((left,), rights)
        ),
        None,
    )
    assert context.related_pair(asns, rights) == expected
    for rir in ALL_RIRS:
        for org in ("ORG-A", "ORG-B", "ORG-É", "org-a", "ORG-NONE"):
            assert context.assigned_asns(rir, org) == frozenset(
                whois[rir].asns_of_org(org)
            )
        assert context.assigned_asns(rir, None) == frozenset()
        assert context.assigned_asns(rir, "") == frozenset()


class TestSharedAnalysisContext:
    def test_duck_type_equivalence(self, world, context):
        shared = SharedAnalysisContext.from_context(context)
        try:
            assert shared.rirs == context.rirs
            assert shared.max_leaf_length == context.max_leaf_length
            assert shared.stats == context.stats
            assert shared.total_leaves() == context.total_leaves()
            asns = sorted(world.relationships.asns())
            for asn in asns[:50] + [999_999]:
                assert shared.related_to(asn) == context.related_to(asn)
            for rir in context.rirs:
                keys = context.leaf_keys.get(rir, ())
                assert list(shared.leaf_keys.get(rir, ())) == list(keys)
                orgs = world.whois[rir].orgs
                assert orgs
                for org in sorted(orgs):
                    assert shared.assigned_asns(rir, org) == (
                        context.assigned_asns(rir, org)
                    )
                    assert context.assigned_asns(rir, org) == frozenset(
                        world.whois[rir].asns_of_org(org)
                    )
                assert shared.assigned_asns(rir, "no-such-org") == frozenset()
                assert shared.assigned_asns(rir, None) == frozenset()
        finally:
            shared.destroy()

    def test_segment_holds_the_local_image(self, context):
        """The segment is a byte copy of the image: nothing re-encoded."""
        with SharedAnalysisContext.from_context(context) as shared:
            assert bytes(shared.image) == bytes(context.image)
            assert shared.segment_bytes >= len(context.image)
            clone = pickle.loads(pickle.dumps(shared))
            try:
                assert bytes(clone.image) == bytes(context.image)
                assert clone.total_leaves() == context.total_leaves()
                for rir in context.rirs:
                    assert list(clone.leaf_keys[rir]) == list(
                        context.leaf_keys[rir]
                    )
            finally:
                clone.close()

    def test_leaves_raises_like_stripped_context(self, context):
        shared = SharedAnalysisContext.from_context(context)
        try:
            with pytest.raises(RuntimeError):
                shared.leaves(RIR.RIPE)
        finally:
            shared.destroy()

    def test_classify_rows_identical(self, context):
        rir_order = tuple(
            rir for rir in context.rirs if context.leaf_keys.get(rir)
        )
        shards = plan_shards(
            [len(context.leaf_keys[rir]) for rir in rir_order], 16
        )
        shared = SharedAnalysisContext.from_context(context)
        try:
            for shard in shards:
                base = classify_shard_rows(
                    (context, True, rir_order), shard
                )
                flat = classify_shard_rows((shared, True, rir_order), shard)
                assert flat == base
        finally:
            shared.destroy()

    def test_pickle_is_o1_descriptor(self, context):
        shared = SharedAnalysisContext.from_context(context)
        try:
            full = len(context.image)
            o1 = payload_pickle_bytes(shared)
            assert o1 < full / 4
            assert o1 < 16 * 1024  # descriptor metadata, not tables
        finally:
            shared.destroy()

    def test_pickle_round_trip_attaches_by_name(self, context):
        shared = SharedAnalysisContext.from_context(context)
        try:
            clone = pickle.loads(pickle.dumps(shared))
            try:
                assert clone.segment_name == shared.segment_name
                assert clone.total_leaves() == context.total_leaves()
                probe = next(iter(context.rib.exact_items()))[0]
                assert clone.rib.exact_origins(
                    probe
                ) == context.rib.exact_origins(probe)
            finally:
                clone.close()
        finally:
            shared.destroy()


class TestSegmentLifecycle:
    def test_destroy_unlinks_and_is_idempotent(self, context):
        shared = SharedAnalysisContext.from_context(context)
        name = shared.segment_name
        assert name in attached_segment_names()
        shared.destroy()
        assert name not in attached_segment_names()
        shared.destroy()  # second call is a no-op, not an error

    def test_attached_copy_close_keeps_segment_linked(self, context):
        shared = SharedAnalysisContext.from_context(context)
        try:
            clone = pickle.loads(pickle.dumps(shared))
            clone.close()
            assert shared.segment_name in attached_segment_names()
        finally:
            shared.destroy()
        assert attached_segment_names() == []

    def test_gc_finalizer_unlinks_owner_segment(self, context):
        shared = SharedAnalysisContext.from_context(context)
        name = shared.segment_name
        del shared
        gc.collect()
        assert name not in attached_segment_names()

    @pytest.mark.parametrize("engine", ["lease", "legacy"])
    def test_worker_crash_leaves_no_segment(self, world, monkeypatch, engine):
        """A dying pool must not leak /dev/shm segments: each pipeline
        destroys the segment on leaving the block around ``run_sharded``."""
        if engine == "lease":
            import repro.core.pipeline as module

            runner = "classify_shard_rows"
            crashing = LeaseInferencePipeline(
                world.whois, world.routing_table, world.relationships,
                world.as2org,
            )
            run_kwargs = {"workers": 2, "shard_size": 16}
        else:
            import repro.core.legacy as module

            runner = "_legacy_shard"
            crashing = make_legacy_pipeline()
            run_kwargs = {"workers": 2, "shard_size": 1}
        monkeypatch.setattr(module, runner, _raise_in_worker)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            crashing.run(**run_kwargs)
        assert attached_segment_names() == []

    @pytest.mark.parametrize("failing", ["posix_fallocate", "attach"])
    def test_full_dev_shm_fails_cleanly(self, world, monkeypatch, failing):
        """A tmpfs with no room left raises ENOSPC instead of SIGBUS on
        the first write, and the half-made segment is unlinked — also
        when attaching to the filled segment fails after the copy."""
        import repro.core.shm as shm_module

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        if failing == "posix_fallocate":
            monkeypatch.setattr(shm_module.os, failing, no_space)
        else:
            monkeypatch.setattr(
                shm_module.SharedAnalysisContext, "__init__", no_space
            )
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        with pytest.raises(OSError) as raised:
            pipeline.run(workers=2, shard_size=16)
        assert raised.value.errno == errno.ENOSPC
        if failing == "posix_fallocate":
            assert "repro_ctx_" in str(raised.value)
        assert attached_segment_names() == []

    @pytest.mark.parametrize("code", [errno.EINVAL, errno.EOPNOTSUPP],
                             ids=["EINVAL", "EOPNOTSUPP"])
    def test_fallocate_unsupported_keeps_segment(self, world, monkeypatch,
                                                 code):
        """A descriptor that cannot reserve pages is no full disk: the
        pool runs on the unreserved segment and matches serial."""
        import repro.core.shm as shm_module

        def unsupported(*args):
            raise OSError(code, "not supported")

        monkeypatch.setattr(shm_module.os, "posix_fallocate", unsupported,
                            raising=False)
        p = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        serial = _rows(p.run(workers=1))
        assert _rows(p.run(workers=2, shard_size=16)) == serial
        assert attached_segment_names() == []

    def test_full_dev_shm_keeps_errno(self, monkeypatch):
        """Any other reservation error keeps its own errno."""
        import repro.core.shm as shm_module

        def io_error(*args):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(shm_module.os, "posix_fallocate", io_error,
                            raising=False)
        with pytest.raises(OSError) as raised:
            shm_module._create_segment(4096)
        assert raised.value.errno == errno.EIO
        assert "4096 bytes" in str(raised.value)
        assert attached_segment_names() == []

    def test_empty_context_packs_into_minimal_segment(self):
        context = AnalysisContext.build(
            WhoisCollection(), RoutingTable(), ASRelationships()
        )
        shared = SharedAnalysisContext.from_context(context)
        try:
            assert shared.total_leaves() == 0
            assert len(shared.rib) == 0
        finally:
            shared.destroy()
        assert attached_segment_names() == []


def _raise_in_worker(payload, shard):
    raise RuntimeError("injected worker failure")


class TestPipelineModes:
    """Every pool ships the shared-memory context; ``shm`` runs it with
    the platform's default start method, ``spawn`` forces spawn."""

    @pytest.fixture(scope="class")
    def serial_rows(self, world):
        p = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        return _rows(p.run(workers=1))

    @pytest.mark.parametrize("start", ["shm", "spawn"])
    def test_mode_matches_serial(self, request, world, serial_rows, start):
        if start == "spawn":
            request.getfixturevalue("force_spawn")
        p = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        result = p.run(workers=2, shard_size=16)
        assert _rows(result) == serial_rows
        assert p.shm_stats is not None
        assert p.shm_stats["payload_bytes"] < 16 * 1024
        assert p.shm_stats["segment_bytes"] > 0
        assert attached_segment_names() == []


def _rows(result):
    return [
        (inf.rir, inf.prefix, inf.category, inf.leaf_origins,
         inf.root_origins, inf.root_assigned_asns)
        for inf in result
    ]
