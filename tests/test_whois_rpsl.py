"""Unit tests for RPSL parsing, serialization, and normalization."""

import pytest

from repro.net import AddressRange
from repro.rir import RIR
from repro.whois import (
    AutNumRecord,
    InetnumRecord,
    MntnerRecord,
    OrgRecord,
    Portability,
    parse_rpsl,
    serialize_object,
    serialize_objects,
)
from repro.whois.rpsl import (
    autnum_to_rpsl,
    inetnum_to_rpsl,
    normalize_rpsl_object,
    org_to_rpsl,
)

SAMPLE_DUMP = """\
% This is a sample of the RIPE database.
# comment line

inetnum:        213.210.0.0 - 213.210.63.255
netname:        GCI-NET
country:        SE
org:            ORG-GCI1-RIPE
status:         ALLOCATED PA
mnt-by:         MNT-GCICOM
source:         RIPE

inetnum:        213.210.33.0 - 213.210.33.255
netname:        IPXO-LEASE
descr:          Leased block, multi-line
                description continues here
status:         ASSIGNED PA
mnt-by:         IPXO-MNT
source:         RIPE

aut-num:        AS8851
as-name:        GCI-AS
org:            ORG-GCI1-RIPE
mnt-by:         MNT-GCICOM
source:         RIPE

organisation:   ORG-GCI1-RIPE
org-name:       GCI Network
country:        SE
mnt-by:         MNT-GCICOM
mnt-ref:        MNT-GCICOM
source:         RIPE

mntner:         IPXO-MNT
admin-c:        IPXO1-RIPE
source:         RIPE
"""


#: 2,000 seven-attribute inetnum objects, as one bulk dump.
BULK_DUMP = "".join(
    f"inetnum:        10.{a}.{b}.0 - 10.{a}.{b}.255\n"
    f"netname:        NET-{a}-{b}\n"
    "country:        DE\n"
    f"org:            ORG-{a}-RIPE\n"
    "status:         ASSIGNED PA\n"
    f"mnt-by:         M{a}-MNT\n"
    "source:         RIPE\n\n"
    for a in range(40)
    for b in range(50)
)


class TestParser:
    def test_object_count(self):
        for text, count in ((SAMPLE_DUMP, 5), (BULK_DUMP, 2_000)):
            assert len(list(parse_rpsl(text))) == count

    def test_classes(self):
        classes = [obj.object_class for obj in parse_rpsl(SAMPLE_DUMP)]
        assert classes == [
            "inetnum",
            "inetnum",
            "aut-num",
            "organisation",
            "mntner",
        ]

    def test_primary_keys(self):
        objects = list(parse_rpsl(SAMPLE_DUMP))
        assert objects[0].primary_key == "213.210.0.0 - 213.210.63.255"
        assert objects[2].primary_key == "AS8851"

    def test_comments_skipped(self):
        objects = list(parse_rpsl("% note\ninetnum: 10.0.0.0/24\n"))
        assert len(objects) == 1

    def test_continuation_lines_joined(self):
        objects = list(parse_rpsl(SAMPLE_DUMP))
        descr = objects[1].first("descr")
        assert descr == "Leased block, multi-line description continues here"

    def test_plus_continuation(self):
        text = "inetnum: 10.0.0.0/24\ndescr: line one\n+ line two\n"
        obj = next(parse_rpsl(text))
        assert obj.first("descr") == "line one line two"

    def test_repeated_attributes_preserved(self):
        text = "inetnum: 10.0.0.0/24\nmnt-by: A-MNT\nmnt-by: B-MNT\n"
        obj = next(parse_rpsl(text))
        assert obj.all("mnt-by") == ["A-MNT", "B-MNT"]

    def test_attribute_names_case_insensitive(self):
        obj = next(parse_rpsl("INETNUM: 10.0.0.0/24\nStatus: LEGACY\n"))
        assert obj.object_class == "inetnum"
        assert obj.first("status") == "LEGACY"

    def test_malformed_line_skipped(self):
        obj = next(parse_rpsl("inetnum: 10.0.0.0/24\ngarbage line\n"))
        assert len(obj) == 1

    def test_empty_input(self):
        assert list(parse_rpsl("")) == []

    def test_no_trailing_blank_line(self):
        objects = list(parse_rpsl("mntner: X-MNT"))
        assert objects[0].primary_key == "X-MNT"


class TestSerializer:
    def test_round_trip(self):
        objects = list(parse_rpsl(SAMPLE_DUMP))
        text = serialize_objects(objects)
        reparsed = list(parse_rpsl(text))
        assert [o.attributes for o in reparsed] == [
            o.attributes for o in objects
        ]

    def test_alignment(self):
        obj = next(parse_rpsl("mntner: X-MNT\n"))
        assert serialize_object(obj) == "mntner:         X-MNT"

    def test_empty_list(self):
        assert serialize_objects([]) == ""


class TestNormalization:
    @pytest.fixture
    def records(self):
        return [
            normalize_rpsl_object(RIR.RIPE, obj)
            for obj in parse_rpsl(SAMPLE_DUMP)
        ]

    def test_inetnum(self, records):
        record = records[0]
        assert isinstance(record, InetnumRecord)
        assert record.range == AddressRange.parse("213.210.0.0/18")
        assert record.portability is Portability.PORTABLE
        assert record.maintainers == ("MNT-GCICOM",)

    def test_assigned_pa_non_portable(self, records):
        record = records[1]
        assert record.portability is Portability.NON_PORTABLE

    def test_autnum(self, records):
        record = records[2]
        assert isinstance(record, AutNumRecord)
        assert record.asn == 8851
        assert record.org_id == "ORG-GCI1-RIPE"

    def test_org_merges_mnt_by_and_mnt_ref(self, records):
        record = records[3]
        assert isinstance(record, OrgRecord)
        assert record.maintainers == ("MNT-GCICOM",)  # deduplicated
        assert record.name == "GCI Network"

    def test_mntner(self, records):
        record = records[4]
        assert isinstance(record, MntnerRecord)
        assert record.handle == "IPXO-MNT"

    def test_irrelevant_class_returns_none(self):
        obj = next(parse_rpsl("route: 10.0.0.0/8\norigin: AS1\n"))
        assert normalize_rpsl_object(RIR.RIPE, obj) is None

    def test_inet6num_ignored(self):
        obj = next(parse_rpsl("inet6num: 2001:db8::/32\n"))
        assert normalize_rpsl_object(RIR.RIPE, obj) is None

    def test_comma_separated_maintainers(self):
        obj = next(
            parse_rpsl(
                "inetnum: 10.0.0.0/24\nstatus: ASSIGNED PA\n"
                "mnt-by: A-MNT, B-MNT\n"
            )
        )
        record = normalize_rpsl_object(RIR.RIPE, obj)
        assert record.maintainers == ("A-MNT", "B-MNT")


class TestRecordRendering:
    def test_inetnum_round_trip(self):
        record = InetnumRecord(
            rir=RIR.RIPE,
            range=AddressRange.parse("10.0.0.0/24"),
            status="ASSIGNED PA",
            org_id="ORG-X-RIPE",
            maintainers=("X-MNT",),
            net_name="X-NET",
            country="DE",
        )
        reparsed = normalize_rpsl_object(
            RIR.RIPE, next(parse_rpsl(serialize_object(inetnum_to_rpsl(record))))
        )
        assert reparsed.range == record.range
        assert reparsed.status == record.status
        assert reparsed.maintainers == record.maintainers

    def test_autnum_round_trip(self):
        record = AutNumRecord(
            rir=RIR.RIPE, asn=65000, org_id="ORG-X-RIPE", as_name="X-AS"
        )
        reparsed = normalize_rpsl_object(
            RIR.RIPE, next(parse_rpsl(serialize_object(autnum_to_rpsl(record))))
        )
        assert reparsed.asn == 65000
        assert reparsed.org_id == "ORG-X-RIPE"

    def test_org_round_trip(self):
        record = OrgRecord(
            rir=RIR.RIPE, org_id="ORG-X-RIPE", name="X Corp", country="DE"
        )
        reparsed = normalize_rpsl_object(
            RIR.RIPE, next(parse_rpsl(serialize_object(org_to_rpsl(record))))
        )
        assert reparsed.name == "X Corp"
