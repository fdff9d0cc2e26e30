"""Tests for the RFC 3912 WHOIS server and client."""

import pytest

from repro.net import AddressRange
from repro.rir import RIR
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisCollection,
    WhoisDatabase,
)
from repro.whois.server import WhoisServer, whois_query


@pytest.fixture(scope="module")
def collection():
    db = WhoisDatabase(RIR.RIPE)
    db.add(OrgRecord(rir=RIR.RIPE, org_id="ORG-GCI1-RIPE", name="GCI Network"))
    db.add(
        AutNumRecord(
            rir=RIR.RIPE, asn=8851, org_id="ORG-GCI1-RIPE", as_name="GCI-AS"
        )
    )
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("213.210.0.0/18"),
            status="ALLOCATED PA",
            org_id="ORG-GCI1-RIPE",
            maintainers=("MNT-GCICOM",),
            net_name="GCI-NET",
        )
    )
    db.add(
        InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("213.210.33.0/24"),
            status="ASSIGNED PA",
            maintainers=("IPXO-MNT",),
            net_name="IPXO-LEASED",
        )
    )
    return WhoisCollection({RIR.RIPE: db})


@pytest.fixture(scope="module")
def server(collection):
    with WhoisServer(collection) as srv:
        yield srv


class TestAnswerLogic:
    def test_address_finds_most_specific(self, server):
        response = server.answer("213.210.33.7")
        assert "IPXO-LEASED" in response
        assert "ASSIGNED PA" in response

    def test_prefix_query(self, server):
        response = server.answer("213.210.0.0/18")
        assert "GCI-NET" in response
        assert "organisation:" in response
        assert "GCI Network" in response

    def test_covering_chain_shown(self, server):
        response = server.answer("213.210.33.0/24")
        assert "Less specific registrations" in response
        assert "213.210.0.0/18" in response

    def test_asn_query(self, server):
        response = server.answer("AS8851")
        assert "aut-num:" in response
        assert "GCI-AS" in response
        assert "GCI Network" in response

    def test_org_query(self, server):
        response = server.answer("ORG-GCI1-RIPE")
        assert "org-name:" in response

    def test_miss(self, server):
        assert "no entries found" in server.answer("8.8.8.8")
        assert "no entries found" in server.answer("AS99999")
        assert "no entries found" in server.answer("ORG-NOPE")
        assert "no entries found" in server.answer("")

    @pytest.mark.parametrize("query", ["AS99999999999", "AS\u00b2"])
    def test_bad_asn_query_is_a_miss(self, server, query):
        assert "%ERROR:101: no entries found" in server.answer(query)

    def test_response_ends_with_blank_line(self, server):
        assert server.answer("AS8851").endswith("\n\n")


class TestOverTheWire:
    def test_tcp_round_trip(self, server):
        host, port = server.address
        response = whois_query(host, port, "213.210.33.1")
        assert "IPXO-LEASED" in response

    def test_multiple_sequential_clients(self, server):
        host, port = server.address
        for query in ("AS8851", "213.210.0.1", "nonsense"):
            response = whois_query(host, port, query)
            assert response.strip()

    def test_garbage_bytes_handled(self, server):
        import socket

        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"\xff\xfe garbage \xff\r\n")
            data = conn.recv(4096)
        assert b"no entries found" in data
