"""Unit tests for AS relationships, AS2org, and the hijacker list."""

import random

import pytest

from repro.asdata import AS2Org, ASRelationships, SerialHijackerList
from repro.bgp import ASTopology, P2C, P2P


class TestASRelationships:
    @pytest.fixture
    def rels(self):
        dataset = ASRelationships()
        dataset.add(1, 3, P2C)
        dataset.add(1, 2, P2P)
        dataset.add(3, 6, P2C)
        return dataset

    def test_relationship_orientation(self, rels):
        assert rels.relationship(1, 3) == P2C  # 1 provides 3
        assert rels.relationship(3, 1) == 1  # 3 is a customer of 1
        assert rels.relationship(1, 2) == P2P
        assert rels.relationship(2, 1) == P2P

    def test_unrelated(self, rels):
        assert rels.relationship(1, 6) is None
        assert not rels.are_related(1, 6)

    def test_are_related_symmetric(self, rels):
        assert rels.are_related(1, 3) and rels.are_related(3, 1)

    def test_neighbors(self, rels):
        assert rels.neighbors(1) == {2, 3}

    def test_role_queries(self, rels):
        assert rels.providers(3) == {1}
        assert rels.customers(1) == {3}
        assert rels.peers(1) == {2}

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError):
            ASRelationships().add(1, 2, 5)

    def test_self_rejected(self):
        with pytest.raises(ValueError):
            ASRelationships().add(1, 1, P2P)

    def test_text_round_trip(self, rels):
        reloaded = ASRelationships.from_text(rels.to_text())
        assert list(reloaded.edges()) == list(rels.edges())
        assert reloaded.num_edges() == 3

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError):
            ASRelationships.from_text("1|2\n")

    def test_from_topology(self):
        topo = ASTopology()
        topo.add_p2c(1, 3)
        topo.add_p2p(1, 2)
        rels = ASRelationships.from_topology(topo)
        assert rels.relationship(1, 3) == P2C
        assert rels.relationship(1, 2) == P2P
        # A random 2,999-AS provider tree keeps every one of its edges.
        tree = ASTopology()
        rng = random.Random(6)
        for asn in range(2, 3_000):
            tree.add_p2c(rng.randrange(1, asn), asn)
        assert ASRelationships.from_topology(tree).num_edges() == 2_998

    def test_from_topology_exclusions(self):
        topo = ASTopology()
        topo.add_p2c(1, 3)
        topo.add_p2c(1, 4)
        rels = ASRelationships.from_topology(topo, exclude=[(3, 1)])
        assert not rels.are_related(1, 3)  # hidden link (paper §7)
        assert rels.are_related(1, 4)


class TestAS2Org:
    @pytest.fixture
    def dataset(self):
        dataset = AS2Org()
        dataset.add_org("ORG-VOD", "Vodafone Group")
        dataset.map_asn(1273, "ORG-VOD")
        dataset.map_asn(3209, "ORG-VOD")
        dataset.add_org("ORG-IIJ", "Internet Initiative Japan")
        dataset.map_asn(2497, "ORG-IIJ")
        return dataset

    def test_org_of(self, dataset):
        assert dataset.org_of(1273) == "ORG-VOD"
        assert dataset.org_of(9999) is None

    def test_same_org(self, dataset):
        assert dataset.same_org(1273, 3209)
        assert not dataset.same_org(1273, 2497)

    def test_unmapped_never_same_org(self, dataset):
        assert not dataset.same_org(9998, 9999)

    def test_members(self, dataset):
        assert dataset.members("ORG-VOD") == {1273, 3209}

    def test_remove_asn(self, dataset):
        dataset.remove_asn(3209)
        assert dataset.org_of(3209) is None
        assert not dataset.same_org(1273, 3209)

    def test_remap_moves_membership(self, dataset):
        dataset.map_asn(3209, "ORG-IIJ")
        assert dataset.members("ORG-VOD") == {1273}
        assert 3209 in dataset.members("ORG-IIJ")

    def test_jsonl_round_trip(self, dataset):
        reloaded = AS2Org.from_jsonl(dataset.to_jsonl())
        assert reloaded.asns() == dataset.asns()
        assert reloaded.org_of(2497) == "ORG-IIJ"
        assert reloaded.org_name("ORG-VOD") == "Vodafone Group"

    def test_jsonl_ignores_unknown_types(self):
        text = (
            '{"type": "Link", "x": 1}\n'
            '{"type": "ASN", "asn": "7", "organizationId": "O"}\n'
        )
        dataset = AS2Org.from_jsonl(text)
        assert dataset.org_of(7) == "O"

    def test_len(self, dataset):
        assert len(dataset) == 3


class TestSerialHijackerList:
    def test_membership(self):
        hijackers = SerialHijackerList([64500, 64501])
        assert 64500 in hijackers
        assert 64999 not in hijackers
        assert len(hijackers) == 2

    def test_text_round_trip(self):
        hijackers = SerialHijackerList([3, 1, 2])
        reloaded = SerialHijackerList.from_text(hijackers.to_text())
        assert list(reloaded) == [1, 2, 3]

    def test_as_prefix_tolerated(self):
        hijackers = SerialHijackerList.from_text("AS64500\n64501\n# note\n")
        assert hijackers.asns() == {64500, 64501}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SerialHijackerList([-1])
