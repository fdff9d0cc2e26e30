"""Unit tests for WhoisDatabase and WhoisCollection."""

import pytest

from repro.net import AddressRange
from repro.rir import ALL_RIRS, RIR
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisCollection,
    WhoisDatabase,
)

RIPE_DUMP = """\
organisation:   ORG-GCI1-RIPE
org-name:       GCI Network
mnt-by:         MNT-GCICOM
source:         RIPE

aut-num:        AS8851
as-name:        GCI-AS
org:            ORG-GCI1-RIPE
source:         RIPE

inetnum:        213.210.0.0 - 213.210.63.255
netname:        GCI-NET
org:            ORG-GCI1-RIPE
status:         ALLOCATED PA
mnt-by:         MNT-GCICOM
source:         RIPE

inetnum:        213.210.33.0 - 213.210.33.255
netname:        IPXO-LEASE
status:         ASSIGNED PA
mnt-by:         IPXO-MNT
source:         RIPE

mntner:         IPXO-MNT
source:         RIPE
"""


@pytest.fixture
def ripe_db():
    return WhoisDatabase.from_text(RIR.RIPE, RIPE_DUMP)


class TestLoading:
    def test_counts(self, ripe_db):
        assert len(ripe_db.inetnums) == 2
        assert len(ripe_db.autnums) == 1
        assert len(ripe_db.orgs) == 1
        assert len(ripe_db.mntners) == 1
        assert len(ripe_db) == 5

    def test_maintainer_index(self, ripe_db):
        leased = ripe_db.inetnums_by_maintainer("IPXO-MNT")
        assert len(leased) == 1
        assert leased[0].range == AddressRange.parse("213.210.33.0/24")

    def test_org_index(self, ripe_db):
        blocks = ripe_db.inetnums_by_org("ORG-GCI1-RIPE")
        assert len(blocks) == 1

    def test_asn_lookup(self, ripe_db):
        assert ripe_db.autnum(8851).as_name == "GCI-AS"
        assert ripe_db.autnum(99999) is None

    def test_asns_of_org(self, ripe_db):
        assert ripe_db.asns_of_org("ORG-GCI1-RIPE") == [8851]
        assert ripe_db.asns_of_org("ORG-NONE") == []

    def test_orgs_named_casefold(self, ripe_db):
        assert ripe_db.orgs_named("gci  network")[0].org_id == "ORG-GCI1-RIPE"
        assert ripe_db.orgs_named("Nobody Inc") == []

    def test_maintainer_handles(self, ripe_db):
        assert set(ripe_db.maintainer_handles()) == {"MNT-GCICOM", "IPXO-MNT"}


def _answers(database, org_ids, asns, handles, names):
    """Every secondary-index answer of *database* for the given keys."""
    return {
        "by_maintainer": {h: database.inetnums_by_maintainer(h) for h in handles},
        "by_org": {o: database.inetnums_by_org(o) for o in org_ids},
        "autnums_by_org": {o: database.autnums_by_org(o) for o in org_ids},
        "asns_of_org": {o: database.asns_of_org(o) for o in org_ids},
        "autnum": {asn: database.autnum(asn) for asn in asns},
        "orgs_named": {n: database.orgs_named(n) for n in names},
        "handles": sorted(database.maintainer_handles()),
    }


RENAMED = OrgRecord(RIR.RIPE, "ORG-GCI1-RIPE", "GCI Communications")


class TestLazyIndexes:
    """Secondary indexes are built on the first query, dropped by ``add``."""

    def test_loading_builds_no_index(self, ripe_db):
        assert ripe_db._indexes is None
        ripe_db.org("ORG-GCI1-RIPE")
        assert ripe_db._indexes is None
        ripe_db.autnum(8851)
        assert ripe_db._indexes is not None
        ripe_db.add(RENAMED)
        assert ripe_db._indexes is None

    @pytest.mark.parametrize("query_first", [False, True])
    def test_replaced_org_leaves_the_name_index(self, ripe_db, query_first):
        if query_first:
            assert ripe_db.orgs_named("GCI Network")
        ripe_db.add(RENAMED)
        assert ripe_db.org("ORG-GCI1-RIPE") is RENAMED
        assert ripe_db.orgs_named("GCI Network") == []
        assert ripe_db.orgs_named("gci communications") == [RENAMED]

    def test_adds_after_first_query_match_a_fresh_build(self, ripe_db):
        later = [
            InetnumRecord(
                RIR.RIPE,
                AddressRange.parse("213.210.34.0/24"),
                "ASSIGNED PA",
                "ORG-GCI1-RIPE",
                ("IPXO-MNT", "NEW-MNT"),
            ),
            AutNumRecord(RIR.RIPE, 8851, "ORG-NEW", as_name="MOVED"),
            AutNumRecord(RIR.RIPE, 64500, "ORG-GCI1-RIPE"),
            OrgRecord(RIR.RIPE, "ORG-NEW", "GCI  network"),
            RENAMED,
        ]
        keys = (
            ["ORG-GCI1-RIPE", "ORG-NEW", "ORG-NONE"],
            [8851, 64500, 1],
            ["MNT-GCICOM", "IPXO-MNT", "NEW-MNT", "NONE-MNT"],
            ["GCI Network", "gci communications", "nobody"],
        )
        _answers(ripe_db, *keys)  # builds the indexes
        ripe_db.add_all(later)
        fresh = WhoisDatabase.from_text(RIR.RIPE, RIPE_DUMP)
        fresh.add_all(later)
        assert fresh._indexes is None
        assert _answers(ripe_db, *keys) == _answers(fresh, *keys)
        assert ripe_db.autnum(8851).as_name == "MOVED"
        assert [org.org_id for org in fresh.orgs_named("gci network")] == [
            "ORG-NEW"
        ]


class TestRoundTrip:
    @pytest.mark.parametrize("rir", ALL_RIRS)
    def test_serialize_reload_preserves_counts(self, rir):
        database = WhoisDatabase(rir)
        database.add(
            OrgRecord(rir=rir, org_id="ORG-1", name="Example Org", country="US")
        )
        database.add(
            AutNumRecord(rir=rir, asn=65001, org_id="ORG-1", as_name="EX-AS")
        )
        database.add(
            InetnumRecord(
                rir=rir,
                range=AddressRange.parse("192.0.2.0/24"),
                status=_portable_status(rir),
                org_id="ORG-1",
                maintainers=(
                    ("ORG-1",)
                    if rir in (RIR.ARIN, RIR.LACNIC)
                    else ("EX-MNT",)
                ),
                net_name="EX-NET",
            )
        )
        reloaded = WhoisDatabase.from_text(rir, database.to_text())
        assert len(reloaded.inetnums) == 1
        assert len(reloaded.autnums) == 1
        assert len(reloaded.orgs) == 1
        assert reloaded.inetnums[0].range == AddressRange.parse("192.0.2.0/24")
        assert reloaded.autnums[0].asn == 65001

    def test_arin_round_trip_parent(self):
        database = WhoisDatabase(RIR.ARIN)
        database.add(
            InetnumRecord(
                rir=RIR.ARIN,
                range=AddressRange.parse("198.51.100.0/24"),
                status="Reassignment",
                org_id="CUST",
                handle="NET-198-51-100-0-1",
                parent_handle="NET-198-51-0-0-1",
            )
        )
        reloaded = WhoisDatabase.from_text(RIR.ARIN, database.to_text())
        assert reloaded.inetnums[0].parent_handle == "NET-198-51-0-0-1"

    def test_lacnic_round_trip_owner_names(self):
        database = WhoisDatabase(RIR.LACNIC)
        database.add(
            OrgRecord(rir=RIR.LACNIC, org_id="BR-X", name="Empresa X", country="BR")
        )
        database.add(
            InetnumRecord(
                rir=RIR.LACNIC,
                range=AddressRange.parse("200.0.0.0/16"),
                status="allocated",
                org_id="BR-X",
                maintainers=("BR-X",),
            )
        )
        reloaded = WhoisDatabase.from_text(RIR.LACNIC, database.to_text())
        assert reloaded.orgs["BR-X"].name == "Empresa X"


class TestCollection:
    def test_has_all_rirs(self):
        collection = WhoisCollection()
        assert len(list(collection)) == 5
        for rir in ALL_RIRS:
            assert collection[rir].rir is rir

    def test_total_inetnums(self, ripe_db):
        collection = WhoisCollection({RIR.RIPE: ripe_db})
        assert collection.total_inetnums() == 2

    def test_add_record_type_error(self):
        with pytest.raises(TypeError):
            WhoisDatabase(RIR.RIPE).add("not a record")


def _portable_status(rir: RIR) -> str:
    return {
        RIR.RIPE: "ALLOCATED PA",
        RIR.AFRINIC: "ALLOCATED PA",
        RIR.APNIC: "ALLOCATED PORTABLE",
        RIR.ARIN: "Direct Allocation",
        RIR.LACNIC: "allocated",
    }[rir]


class TestStreamingLoad:
    @pytest.mark.parametrize("rir", ALL_RIRS)
    def test_from_file_matches_from_text(self, rir, tmp_path):
        database = WhoisDatabase(rir)
        database.add(
            OrgRecord(rir=rir, org_id="ORG-1", name="Example Org")
        )
        database.add(AutNumRecord(rir=rir, asn=65010, org_id="ORG-1"))
        database.add(
            InetnumRecord(
                rir=rir,
                range=AddressRange.parse("198.51.100.0/24"),
                status=_portable_status(rir),
                org_id="ORG-1",
                maintainers=("ORG-1",),
            )
        )
        path = tmp_path / f"{rir.value}.db"
        path.write_text(database.to_text())
        streamed = WhoisDatabase.from_file(rir, path)
        in_memory = WhoisDatabase.from_text(rir, path.read_text())
        assert len(streamed.inetnums) == len(in_memory.inetnums)
        assert streamed.autnums[0].asn == 65010
        assert streamed.orgs.keys() == in_memory.orgs.keys()
