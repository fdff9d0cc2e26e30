"""Tests for the analysis context's byte image.

Covers the flat-array radix helpers against the trie structures they
mirror, and the image-backed context against the reference semantics
it must reproduce (``RoutingTable``, ``RelatednessOracle``,
``WhoisDatabase``) — on the small world and on Hypothesis-drawn
substrates with absent, covered-only and stored-but-emptied prefixes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asdata import AS2Org, ASRelationships
from repro.bgp import P2C, P2P, RoutingTable
from repro.core import LeaseInferencePipeline
from repro.core.context import AnalysisContext
from repro.core.relatedness import RelatednessOracle
from repro.net import Prefix
from repro.net.radix import (
    PrefixTrie,
    flat_covered_range,
    flat_covering_index,
    pack_prefix,
    unpack_prefix,
)
from repro.rir import ALL_RIRS
from repro.simulation import build_world, small_world
from repro.whois.database import WhoisCollection
from repro.whois.objects import AutNumRecord


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


@pytest.fixture(scope="module")
def pipeline(world):
    p = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    p.run()
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
        """The image-backed RIB answers like the routing table it was
        built from."""
        table = world.routing_table
        rib = context.rib
        assert len(rib) == len(table.exact_index())
        for probe in _probe_prefixes(context):
            assert rib.exact_origins(probe) == table.exact_origins(probe)
            assert rib.covering_origins(probe) == table.covering_origins(
                probe
            )
            assert (probe in rib) == (probe in table.exact_index())


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
    """The context answers like the live structures it was built from."""

    @settings(max_examples=60, deadline=None)
    @given(_substrates())
    def test_context_answers_like_the_references(self, substrates):
        table, relationships, as2org, whois, probes = substrates
        context = AnalysisContext.build(whois, table, relationships, as2org)
        oracle = RelatednessOracle(relationships, as2org)
        _assert_reference_semantics(context, table, oracle, whois, probes)

    def test_exact_items_match_routing_table(self, world, context):
        assert dict(context.rib.exact_items()) == {
            prefix: frozenset(origins)
            for prefix, origins in world.routing_table.exact_index().items()
        }


def _assert_reference_semantics(context, table, oracle, whois, probes):
    rib = context.rib
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
