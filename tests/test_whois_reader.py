"""The one WHOIS reader: located errors, shared values, the object path."""

import hashlib
import re

import pytest

from repro.rir import RIR
from repro.simulation import bench_world, build_world
from repro.whois.arin import normalize_arin_object, parse_arin
from repro.whois.database import WhoisDatabase
from repro.whois.lacnic import (
    normalize_lacnic_object,
    parse_lacnic,
    synthesize_owner_orgs,
)
from repro.whois.reader import WhoisError, paragraphs, read_records
from repro.whois.rpsl import normalize_rpsl_object, parse_rpsl


def object_path(rir, text):
    """The records of *text* via :class:`RpslObject` and ``normalize_*``."""
    if rir is RIR.ARIN:
        records = [normalize_arin_object(obj) for obj in parse_arin(text)]
    elif rir is RIR.LACNIC:
        objects = list(parse_lacnic(text))
        records = [normalize_lacnic_object(obj) for obj in objects]
        records += synthesize_owner_orgs(objects)
    else:
        records = [normalize_rpsl_object(rir, obj) for obj in parse_rpsl(text)]
    return [record for record in records if record is not None]


def loaded(database):
    return (
        database.inetnums
        + database.autnums
        + list(database.orgs.values())
        + list(database.mntners.values())
    )


class TestParagraphs:
    def test_first_line_numbers(self):
        text = "% header\n\ninetnum: 10.0.0.0/24\nstatus: X\n\n\naut-num: AS1\n"
        starts = [start for start, _attrs in paragraphs(text.splitlines())]
        assert starts == [3, 7]

    def test_file_lines_keep_their_newlines_out(self):
        lines = ["inetnum: 10.0.0.0/24\n", "netname: A\n", "+ B\n", "\n"]
        [(_start, attributes)] = paragraphs(lines)
        assert attributes == [("inetnum", "10.0.0.0/24"), ("netname", "A B")]

    def test_comment_inside_object_does_not_end_it(self):
        [(_start, attributes)] = paragraphs(
            ["inetnum: 10.0.0.0/24", "% note: x", "status: X"]
        )
        assert [name for name, _value in attributes] == ["inetnum", "status"]


class TestLocatedErrors:
    def test_continuation_before_any_attribute_raises(self):
        text = "inetnum: 10.0.0.0/24\n\n  stray continuation\n"
        with pytest.raises(WhoisError, match="^line 3: continuation"):
            list(read_records(RIR.RIPE, text.splitlines()))

    def test_plus_continuation_before_any_attribute_raises(self):
        with pytest.raises(WhoisError, match="^line 1: continuation"):
            WhoisDatabase.from_text(RIR.RIPE, "+ stray\ninetnum: 10.0.0.0/24\n")

    def test_colon_less_line_still_skipped(self):
        database = WhoisDatabase.from_text(
            RIR.RIPE, "garbage line\ninetnum: 10.0.0.0/24\nstatus: X\n"
        )
        assert len(database.inetnums) == 1

    def test_inverted_range_names_its_object(self):
        text = (
            "% RIPE dump\n\ninetnum: 10.0.0.0 - 10.0.0.255\nstatus: X\n\n"
            "inetnum: 10.0.0.0 - 9.0.0.0\nstatus: X\n"
        )
        with pytest.raises(
            WhoisError, match="^line 6: inverted range: 10.0.0.0 - 9.0.0.0$"
        ):
            WhoisDatabase.from_text(RIR.RIPE, text)

    def test_bad_asn(self):
        with pytest.raises(WhoisError, match="^line 2: malformed ASN"):
            WhoisDatabase.from_text(RIR.APNIC, "\naut-num: ASX\n")

    def test_arin_bad_net_range_names_the_net_handle(self):
        text = "OrgID: O-1\nOrgName: O\n\nNetHandle: NET-1\nNetRange: 1.2.3\n"
        with pytest.raises(WhoisError, match="^line 4: not a dotted-quad"):
            WhoisDatabase.from_text(RIR.ARIN, text)

    def test_lacnic_bad_asn(self):
        with pytest.raises(WhoisError, match="^line 1: ASN out of range"):
            WhoisDatabase.from_text(RIR.LACNIC, "aut-num: AS99999999999\n")

    def test_error_is_a_value_error(self):
        assert issubclass(WhoisError, ValueError)

    def test_from_file_names_path_and_line(self, tmp_path):
        path = tmp_path / "ripe.db"
        path.write_text("inetnum: 10.0.0.0/24\n\ninetnum: 10.0.0.0 - 9.0.0.0\n")
        located = re.escape(f"{path}: line 3: inverted")
        with pytest.raises(WhoisError, match=f"^{located}"):
            WhoisDatabase.from_file(RIR.RIPE, path)

    def test_from_file_names_an_undecodable_line(self, tmp_path):
        path = tmp_path / "ripe.db"
        path.write_bytes(
            b"inetnum: 10.0.0.0/24\n" * 2000 + b"netname: \xff\xfe\n"
        )
        with pytest.raises(WhoisError, match=re.escape(f"{path}: line 2001: ")):
            WhoisDatabase.from_file(RIR.RIPE, path)


class TestSharedValues:
    TEXT = (
        "inetnum: 62.0.0.0 - 62.0.0.255\nstatus: ASSIGNED PA\norg: ORG-A\n"
        "mnt-by: A-MNT\ncountry: DE\n\n"
        "inetnum: 62.0.1.0 - 62.0.1.255\nstatus: ASSIGNED PA\norg: ORG-A\n"
        "mnt-by: A-MNT\ncountry: DE\n\n"
        "aut-num: AS5\norg: ORG-A\nmnt-by: A-MNT\n"
    )

    def test_one_load_shares_repeated_values(self):
        first, second, autnum = read_records(
            RIR.RIPE, self.TEXT.splitlines()
        )
        for name in ("status", "org_id", "maintainers", "country"):
            assert getattr(first, name) is getattr(second, name), name
        assert autnum.maintainers is first.maintainers
        assert autnum.org_id is first.org_id

    def test_arin_and_lacnic_share_org_tuples(self):
        arin = "NetHandle: N-1\nNetRange: 62.0.0.0/24\nOrgID: O-1\n\n" * 2
        first, second = read_records(RIR.ARIN, arin.splitlines())
        assert first.maintainers == ("O-1",)
        assert first.maintainers is second.maintainers
        lacnic = "inetnum: 62.0.0.0/24\nownerid: O-1\nowner: O\n\n" * 2
        first, second, org = read_records(RIR.LACNIC, lacnic.splitlines())
        assert first.maintainers is second.maintainers is org.maintainers
        assert first.net_name is second.net_name is org.name


class TestObjectPath:
    """The reader against the ``parse_*`` + ``normalize_*`` object path."""

    #: Digest of every record the pre-reader implementation (paragraphs
    #: turned into RpslObjects, then ``normalize_*``) loaded from each
    #: dump of the medium world, seed 5.
    FROZEN = {
        RIR.RIPE: (10019, "9a30b1ea4e7dd49a"),
        RIR.ARIN: (5615, "938de23813c960a0"),
        RIR.APNIC: (2706, "ce1fc18156f9786e"),
        RIR.AFRINIC: (894, "86debe001571ff57"),
        RIR.LACNIC: (1226, "ce1d9b53008fb8cc"),
    }

    @pytest.fixture(scope="class")
    def dumps(self):
        world = build_world(bench_world("medium", seed=5))
        return {database.rir: database.to_text() for database in world.whois}

    @pytest.mark.parametrize("rir", list(RIR), ids=lambda rir: rir.name)
    def test_medium_world(self, dumps, rir):
        text = dumps[rir]
        assert list(read_records(rir, text.splitlines())) == object_path(
            rir, text
        )
        records = loaded(WhoisDatabase.from_text(rir, text))
        digest = hashlib.sha256("\n".join(map(repr, records)).encode())
        assert (len(records), digest.hexdigest()[:16]) == self.FROZEN[rir]

    @pytest.mark.parametrize("rir", list(RIR), ids=lambda rir: rir.name)
    def test_file_and_text_agree(self, dumps, rir, tmp_path):
        path = tmp_path / f"{rir.value}.db"
        path.write_text(dumps[rir])
        assert loaded(WhoisDatabase.from_file(rir, path)) == loaded(
            WhoisDatabase.from_text(rir, dumps[rir])
        )
