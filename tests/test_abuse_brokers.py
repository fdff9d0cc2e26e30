"""Unit tests for the ASN-DROP list and broker matching."""

import pytest

from repro.abuse import AsnDropEntry, AsnDropList, DropArchive
from repro.brokers import (
    BrokerRegistry,
    RegisteredBroker,
    match_brokers,
    normalize_company_name,
)
from repro.rir import RIR
from repro.whois import OrgRecord, WhoisDatabase


class TestAsnDropList:
    def test_membership(self):
        drop = AsnDropList.from_asns([64500])
        assert 64500 in drop and 64501 not in drop

    def test_json_round_trip(self):
        drop = AsnDropList(
            [AsnDropEntry(asn=64500, asname="EVIL-AS", rir="ripe", cc="XX")]
        )
        reloaded = AsnDropList.from_json(drop.to_json())
        assert list(reloaded)[0] == list(drop)[0]

    def test_json_skips_metadata_records(self):
        text = '{"asn": 1}\n{"type": "metadata", "timestamp": 0}\n'
        assert len(AsnDropList.from_json(text)) == 1

    def test_negative_asn_rejected(self):
        with pytest.raises(ValueError):
            AsnDropEntry(asn=-5)


class TestDropArchive:
    @pytest.fixture
    def archive(self):
        archive = DropArchive()
        archive.add_month("2024-02", AsnDropList.from_asns([1, 2]))
        archive.add_month("2024-03", AsnDropList.from_asns([2, 3]))
        return archive

    def test_month_lookup(self, archive):
        assert 1 in archive.month("2024-02")
        assert archive.month("2024-04") is None

    def test_union(self, archive):
        assert archive.union().asns() == {1, 2, 3}

    def test_ever_listed(self, archive):
        assert archive.ever_listed(3)
        assert not archive.ever_listed(9)

    def test_months_sorted(self, archive):
        archive.add_month("2024-01", AsnDropList())
        assert archive.months() == ["2024-01", "2024-02", "2024-03"]

    def test_bad_month_rejected(self):
        with pytest.raises(ValueError):
            DropArchive().add_month("Feb-2024", AsnDropList())
        with pytest.raises(ValueError):
            DropArchive().add_month("2024-13", AsnDropList())


class TestNameNormalization:
    @pytest.mark.parametrize(
        "left,right",
        [
            ("IPXO LTD", "IPXO L.T.D."),
            ("Prefix Broker B.V.", "Prefix Broker BV"),
            ("Cyber Assets FZCO", "cyber assets"),
            ("Hilco Streambank, LLC", "Hilco Streambank"),
            ("Example Co. Ltd.", "EXAMPLE"),
        ],
    )
    def test_equivalent_spellings(self, left, right):
        assert normalize_company_name(left) == normalize_company_name(right)

    def test_distinct_names_stay_distinct(self):
        assert normalize_company_name("IPXO") != normalize_company_name(
            "IPv4.Global"
        )

    def test_suffix_only_name_not_emptied(self):
        assert normalize_company_name("LTD") == "ltd"


class TestBrokerRegistry:
    def test_counts_by_rir(self):
        registry = BrokerRegistry(
            [
                RegisteredBroker(RIR.RIPE, "IPXO LTD"),
                RegisteredBroker(RIR.RIPE, "Prefix Broker BV"),
                RegisteredBroker(RIR.ARIN, "Hilco Streambank"),
            ]
        )
        assert len(registry) == 3
        assert len(registry.brokers(RIR.RIPE)) == 2
        assert registry.brokers(RIR.APNIC) == []

    def test_csv_round_trip(self):
        registry = BrokerRegistry(
            [RegisteredBroker(RIR.RIPE, "IPXO LTD")]
        )
        reloaded = BrokerRegistry.from_csv(registry.to_csv())
        assert reloaded.brokers(RIR.RIPE)[0].name == "IPXO LTD"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RegisteredBroker(RIR.RIPE, "   ")


class TestBrokerMatching:
    @pytest.fixture
    def database(self):
        database = WhoisDatabase(RIR.RIPE)
        database.add(
            OrgRecord(
                rir=RIR.RIPE,
                org_id="ORG-IPXO-RIPE",
                name="IPXO L.T.D.",
                maintainers=("IPXO-MNT",),
            )
        )
        database.add(
            OrgRecord(
                rir=RIR.RIPE,
                org_id="ORG-PB-RIPE",
                name="Prefix Broker B.V.",
                maintainers=("PB-MNT",),
            )
        )
        database.add(
            OrgRecord(
                rir=RIR.RIPE,
                org_id="ORG-RES-RIPE",
                name="Resilans AB",
                maintainers=("RES-MNT",),
            )
        )
        return database

    def test_exact_match_after_normalization(self, database):
        report = match_brokers(
            [RegisteredBroker(RIR.RIPE, "IPXO LTD")], database
        )
        assert report.exact_count == 1
        assert report.matched_org_ids() == ["ORG-IPXO-RIPE"]

    def test_fuzzy_match_typo(self, database):
        report = match_brokers(
            [RegisteredBroker(RIR.RIPE, "Prefix Brokers BV")], database
        )
        assert report.fuzzy_count == 1
        assert report.matches[0].org.org_id == "ORG-PB-RIPE"
        assert report.matches[0].score >= 0.88

    def test_unmatched_broker(self, database):
        report = match_brokers(
            [RegisteredBroker(RIR.RIPE, "Totally Absent Broker GmbH")],
            database,
        )
        assert report.matches == []
        assert len(report.unmatched) == 1

    def test_maintainer_handles_deduplicated(self, database):
        report = match_brokers(
            [
                RegisteredBroker(RIR.RIPE, "IPXO LTD"),
                RegisteredBroker(RIR.RIPE, "IPXO"),
            ],
            database,
        )
        assert report.maintainer_handles() == ["IPXO-MNT"]

    def test_mixed_report(self, database):
        report = match_brokers(
            [
                RegisteredBroker(RIR.RIPE, "IPXO LTD"),
                RegisteredBroker(RIR.RIPE, "Resilans A.B."),
                RegisteredBroker(RIR.RIPE, "Ghost Broker Inc"),
            ],
            database,
        )
        assert report.exact_count == 2
        assert len(report.unmatched) == 1


from hypothesis import given
from hypothesis import strategies as st


class TestNormalizationProperties:
    names = st.text(
        alphabet="abcdefghij XYZ.&-'",
        min_size=1,
        max_size=40,
    )

    @given(names)
    def test_idempotent(self, name):
        once = normalize_company_name(name)
        assert normalize_company_name(once) == once

    @given(names)
    def test_case_insensitive(self, name):
        assert normalize_company_name(name.upper()) == (
            normalize_company_name(name.lower())
        )

    @given(names)
    def test_suffix_invariant(self, name):
        base = normalize_company_name(name)
        if base:  # adding a legal suffix never changes the canonical form
            assert normalize_company_name(f"{name} Ltd") == base
            assert normalize_company_name(f"{name} L.T.D.") == base
