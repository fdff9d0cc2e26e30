"""Tests for IPSet algebra and the W-series WHOIS diagnostics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnostics import (
    DiagnosticContext,
    DiagnosticsConfig,
    DiagnosticsEngine,
    Severity,
)
from repro.net import MAX_IPV4, AddressRange, IPSet, Prefix
from repro.net.ipset import _normalize
from repro.rir import RIR
from repro.simulation import build_world, small_world
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    OrgRecord,
    WhoisDatabase,
)


#: The structural registry rules, one code per defect class.
WHOIS_CODES = ("W101", "W102", "W103", "W104", "W105", "W106")


def lint(database):
    """Run the W-series rules over one regional database."""
    engine = DiagnosticsEngine(
        config=DiagnosticsConfig.build(select=WHOIS_CODES)
    )
    return engine.run(DiagnosticContext.whois_only(database)).findings


def ipset(*texts):
    return IPSet(Prefix.parse(t) for t in texts)


class TestIPSetBasics:
    def test_len_and_bool(self):
        assert len(ipset("10.0.0.0/24")) == 256
        assert not IPSet()
        assert ipset("10.0.0.0/32")

    def test_merging_adjacent(self):
        merged = ipset("10.0.0.0/25", "10.0.0.128/25")
        assert merged == ipset("10.0.0.0/24")
        assert len(merged.ranges()) == 1

    def test_contains_address_and_prefix(self):
        s = ipset("10.0.0.0/24")
        assert Prefix.parse("10.0.0.128/25") in s
        assert Prefix.parse("10.0.1.0/25") not in s
        assert 0x0A000001 in s

    def test_accepts_ranges(self):
        s = IPSet([AddressRange.parse("10.0.0.0 - 10.0.2.255")])
        assert len(s) == 768

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            IPSet(["10.0.0.0/24"])

    def test_prefixes_decomposition(self):
        s = IPSet([AddressRange.parse("10.0.0.0 - 10.0.2.255")])
        assert [str(p) for p in s.prefixes()] == [
            "10.0.0.0/23",
            "10.0.2.0/24",
        ]


class TestIPSetAlgebra:
    def test_union(self):
        assert ipset("10.0.0.0/25") | ipset("10.0.0.128/25") == ipset(
            "10.0.0.0/24"
        )

    def test_intersection(self):
        result = ipset("10.0.0.0/16") & ipset("10.0.5.0/24", "11.0.0.0/8")
        assert result == ipset("10.0.5.0/24")

    def test_difference(self):
        result = ipset("10.0.0.0/24") - ipset("10.0.0.64/26")
        assert len(result) == 192
        assert Prefix.parse("10.0.0.64/26") not in result
        assert 0x0A000000 in result

    def test_disjoint_and_subset(self):
        assert ipset("10.0.0.0/24").isdisjoint(ipset("10.0.1.0/24"))
        assert ipset("10.0.0.0/25").issubset(ipset("10.0.0.0/24"))
        assert not ipset("10.0.0.0/23").issubset(ipset("10.0.0.0/24"))

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            _normalize([(5, 4)])
        with pytest.raises(ValueError):
            _normalize([(0, MAX_IPV4 + 1)])


prefix_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 12) - 1).map(
        lambda block: Prefix((10 << 24) | (block << 12), 20)
    ),
    max_size=12,
)


class TestIPSetProperties:
    @given(prefix_lists, prefix_lists)
    @settings(max_examples=80)
    def test_algebra_matches_python_sets(self, left_list, right_list):
        # Model: sets of /20 block indexes.
        left_model = {p.network for p in left_list}
        right_model = {p.network for p in right_list}
        left, right = IPSet(left_list), IPSet(right_list)
        assert len(left | right) == len(left_model | right_model) * 4096
        assert len(left & right) == len(left_model & right_model) * 4096
        assert len(left - right) == len(left_model - right_model) * 4096

    @given(prefix_lists)
    def test_union_idempotent(self, prefixes):
        s = IPSet(prefixes)
        assert s | s == s
        assert s - s == IPSet()
        assert (s & s) == s


class TestWhoisLint:
    def test_clean_generated_world_is_mostly_clean(self):
        world = build_world(small_world())
        for database in world.whois:
            findings = lint(database)
            errors = [f for f in findings if f.severity is Severity.ERROR]
            assert errors == []
            # Orphan warnings only for legacy-induced /22 leftovers etc.
            for finding in findings:
                assert finding.code in ("W104", "W101", "W105")

    def test_unknown_status_flagged(self):
        database = WhoisDatabase(RIR.RIPE)
        database.add(
            InetnumRecord(
                rir=RIR.RIPE,
                range=AddressRange.parse("10.0.0.0/24"),
                status="TOTALLY ODD",
            )
        )
        assert any(f.code == "W101" for f in lint(database))

    def test_dangling_org_flagged(self):
        database = WhoisDatabase(RIR.RIPE)
        database.add(
            InetnumRecord(
                rir=RIR.RIPE,
                range=AddressRange.parse("10.0.0.0/16"),
                status="ALLOCATED PA",
                org_id="ORG-MISSING",
            )
        )
        database.add(
            AutNumRecord(rir=RIR.RIPE, asn=1, org_id="ORG-MISSING")
        )
        dangling = [f for f in lint(database) if f.code in ("W102", "W103")]
        assert sorted(f.code for f in dangling) == ["W102", "W103"]
        assert all(f.severity is Severity.ERROR for f in dangling)

    def test_orphan_nonportable_flagged(self):
        database = WhoisDatabase(RIR.RIPE)
        database.add(
            InetnumRecord(
                rir=RIR.RIPE,
                range=AddressRange.parse("10.0.5.0/24"),
                status="ASSIGNED PA",
            )
        )
        assert any(f.code == "W104" for f in lint(database))

    def test_duplicate_range_flagged(self):
        database = WhoisDatabase(RIR.RIPE)
        for _n in range(2):
            database.add(
                InetnumRecord(
                    rir=RIR.RIPE,
                    range=AddressRange.parse("10.0.0.0/16"),
                    status="ALLOCATED PA",
                )
            )
        assert sum(1 for f in lint(database) if f.code == "W105") == 1

    def test_duplicate_message_names_range_and_holders(self):
        # A finding must carry enough subject detail to act on: the
        # offending range and both registrants.
        database = WhoisDatabase(RIR.RIPE)
        for org in ("ORG-FIRST", "ORG-SECOND"):
            database.add(
                InetnumRecord(
                    rir=RIR.RIPE,
                    range=AddressRange.parse("10.0.0.0/16"),
                    status="ALLOCATED PA",
                    org_id=org,
                )
            )
            database.add(
                OrgRecord(rir=RIR.RIPE, org_id=org, name=org.title())
            )
        duplicates = [f for f in lint(database) if f.code == "W105"]
        assert len(duplicates) == 1
        finding = duplicates[0]
        assert "10.0.0.0 - 10.0.255.255" in finding.message
        assert "ORG-FIRST" in finding.message
        assert "ORG-SECOND" in finding.message

    def test_inverted_range_reported_as_error(self):
        # Parsers reject inverted ranges, but records built
        # programmatically can bypass validation; the rules must not
        # assume well-formedness.
        bad_range = AddressRange.__new__(AddressRange)
        object.__setattr__(bad_range, "first", 0x0A0000FF)
        object.__setattr__(bad_range, "last", 0x0A000000)
        database = WhoisDatabase(RIR.RIPE)
        database.add(
            InetnumRecord(
                rir=RIR.RIPE, range=bad_range, status="ALLOCATED PA"
            )
        )
        inverted = [f for f in lint(database) if f.code == "W106"]
        assert len(inverted) == 1
        assert inverted[0].severity is Severity.ERROR
        assert "10.0.0.255" in inverted[0].message
