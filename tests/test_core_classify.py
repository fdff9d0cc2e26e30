"""Unit tests for the §5.2 classifier and the relatedness oracle."""

import pytest

from repro.asdata import AS2Org, ASRelationships
from repro.bgp import P2C, P2P, RoutingTable
from repro.core import Category, RelatednessOracle, classify_leaf
from repro.core.classify import LeafClassifier
from repro.core.context import AnalysisContext
from repro.net import Prefix
from repro.rir import RIR
from repro.whois import AutNumRecord, WhoisCollection

ROOT = Prefix.parse("62.0.0.0/16")
LEAF = Prefix.parse("62.0.1.0/24")


@pytest.fixture
def oracle():
    rels = ASRelationships()
    rels.add(100, 200, P2C)  # 100 provides 200
    rels.add(100, 300, P2P)
    as2org = AS2Org()
    as2org.add_org("ORG-A")
    as2org.map_asn(100, "ORG-A")
    as2org.map_asn(150, "ORG-A")  # subsidiary sharing the org
    return RelatednessOracle(rels, as2org)


class TestRelatednessOracle:
    def test_identity(self, oracle):
        assert oracle.related(42, 42)

    def test_direct_relationship(self, oracle):
        assert oracle.related(100, 200)
        assert oracle.related(200, 100)
        assert oracle.related(100, 300)

    def test_same_org(self, oracle):
        assert oracle.related(100, 150)

    def test_unrelated(self, oracle):
        assert not oracle.related(200, 300)

    def test_without_as2org(self):
        rels = ASRelationships()
        rels.add(1, 2, P2C)
        oracle = RelatednessOracle(rels)
        assert oracle.related(1, 2)
        assert not oracle.related(1, 3)

    def test_any_related(self, oracle):
        assert oracle.any_related({200, 999}, {100})
        assert not oracle.any_related({999}, {100})
        assert not oracle.any_related(set(), {100})


def classify(leaf_origins, root_origins, root_assigned, oracle):
    """``classify_leaf``'s verdict, which the fast engine's
    ``LeafClassifier`` must give too: for it the origins become routes of
    a leaf and its root, and the assigned ASes aut-nums of the root's
    organisation."""
    whois = WhoisCollection()
    for asn in root_assigned:
        whois[RIR.RIPE].add(
            AutNumRecord(rir=RIR.RIPE, asn=asn, org_id="ORG-ROOT")
        )
    table = RoutingTable()
    for origin in leaf_origins:
        table.add_route(LEAF, origin)
    for origin in root_origins:
        table.add_route(ROOT, origin)
    context = AnalysisContext.build(
        whois, table, oracle.relationships, oracle.as2org
    )
    fast = LeafClassifier(context, RIR.RIPE).classify(LEAF, ROOT, "ORG-ROOT")
    category = classify_leaf(leaf_origins, root_origins, root_assigned, oracle)
    assert fast[0] is category
    return category


class TestClassifyLeaf:
    """The decision table of §5.2, one test per branch, through both
    engines."""

    def test_group1_unused(self, oracle):
        category = classify(frozenset(), frozenset(), {100}, oracle)
        assert category is Category.UNUSED
        assert category.group == 1
        assert not category.is_leased

    def test_group2_aggregated_customer(self, oracle):
        category = classify(frozenset(), {100}, {100}, oracle)
        assert category is Category.AGGREGATED_CUSTOMER
        assert category.group == 2

    def test_group3_isp_customer_via_relationship(self, oracle):
        # Leaf originated by 200, root AS 100 (its provider), root absent
        # from BGP.
        category = classify({200}, frozenset(), {100}, oracle)
        assert category is Category.ISP_CUSTOMER
        assert category.group == 3

    def test_group3_leased_when_unrelated(self, oracle):
        category = classify({999}, frozenset(), {100}, oracle)
        assert category is Category.LEASED_GROUP3
        assert category.is_leased and category.group == 3

    def test_group3_leased_when_no_root_asns(self, oracle):
        category = classify({999}, frozenset(), frozenset(), oracle)
        assert category is Category.LEASED_GROUP3

    def test_group4_delegated_via_assigned_asn(self, oracle):
        category = classify({200}, {777}, {100}, oracle)
        assert category is Category.DELEGATED_CUSTOMER
        assert category.group == 4

    def test_group4_delegated_via_root_bgp_origin(self, oracle):
        # Leaf origin related to the root's BGP origin, not its assigned AS.
        category = classify({200}, {100}, frozenset(), oracle)
        assert category is Category.DELEGATED_CUSTOMER

    def test_group4_delegated_same_origin(self, oracle):
        # Root originated by the same AS as the leaf (self-delegation).
        category = classify({42}, {42}, frozenset(), oracle)
        assert category is Category.DELEGATED_CUSTOMER

    def test_group4_leased_when_unrelated(self, oracle):
        category = classify({999}, {100}, {100}, oracle)
        assert category is Category.LEASED_GROUP4
        assert category.is_leased and category.group == 4

    def test_subsidiary_absorbed_by_as2org(self, oracle):
        # Leaf origin 150 shares an organisation with root AS 100: the
        # AS2org component prevents the Vodafone-style false positive.
        category = classify({150}, frozenset(), {100}, oracle)
        assert category is Category.ISP_CUSTOMER

    def test_subsidiary_without_as2org_is_false_positive(self):
        rels = ASRelationships()
        rels.add(100, 200, P2C)
        oracle = RelatednessOracle(rels, as2org=None)
        category = classify({150}, frozenset(), {100}, oracle)
        assert category is Category.LEASED_GROUP3

    def test_labels(self):
        assert Category.LEASED_GROUP3.label == "Leased"
        assert Category.LEASED_GROUP4.label == "Leased"
        assert Category.UNUSED.label == "Unused"
