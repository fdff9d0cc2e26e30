"""Corrupted text dumps fail with their typed error, naming a line.

The text-format counterpart of ``TestMalformedMrt``: every WHOIS dialect,
the serial-1 AS relationships, the AS2org JSON lines, the serial-hijacker
list, the ASN-DROP JSON lines, the historical update file and the
sequenced BGP4MP feed either parse or raise their own ``ValueError``
subclass whose message starts with the 1-based line it could not read —
never a ``KeyError``, an ``AttributeError``, a ``TypeError`` or a bare
decoder error.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abuse.dropdb import AsnDropError, AsnDropList
from repro.asdata.as2org import AS2Org, As2OrgError
from repro.asdata.hijackers import HijackerListError, SerialHijackerList
from repro.asdata.relationships import ASRelationships, RelationshipError
from repro.bgp.history import UpdateStream, UpdateStreamError
from repro.bgp.updates import SequenceError, UpdateParseError, read_updates
from repro.rir import RIR
from repro.whois.reader import WhoisError, read_records

from .test_whois_reader import object_path

RPSL = """\
% RIPE-style dump
organisation:   ORG-A1-RIPE
org-name:       Alpha Networks
mnt-by:         A-MNT, B-MNT
mnt-ref:        C-MNT
country:        DE

mntner:         A-MNT
admin-c:        AA1-RIPE
org:            ORG-A1-RIPE

aut-num:        AS64500
as-name:        ALPHA
org:            ORG-A1-RIPE
mnt-by:         A-MNT

inetnum:        62.0.0.0 - 62.0.255.255
netname:        ALPHA-NET
descr:          a description that
                continues here
+               and here
org:            ORG-A1-RIPE
status:         ALLOCATED PA
mnt-by:         A-MNT
country:        DE

route:          62.0.0.0/16
origin:         AS64500
"""

ARIN = """\
OrgID:          O-1
OrgName:        Alpha Inc
Country:        US

ASHandle:       AS64501
ASNumber:       64501
ASName:         ALPHA
OrgID:          O-1

NetHandle:      NET-63-0-0-0-1
NetRange:       63.0.0.0 - 63.0.255.255
NetType:        Direct Allocation
OrgID:          O-1
Parent:         NET-63-0-0-0-0
"""

LACNIC = """\
inetnum:        177.0.0.0/16
status:         allocated
owner:          Alpha SA
ownerid:        BR-ALPHA-LACNIC
country:        BR

aut-num:        AS64502
owner:          Alpha SA
ownerid:        BR-ALPHA-LACNIC
"""

RELATIONSHIPS = "# serial-1\n1|2|-1\n2|3|0\n3|4|-1\n"

AS2ORG = (
    '{"name": "Alpha", "organizationId": "A-ARIN", "type": "Organization"}\n'
    '{"asn": "64500", "organizationId": "A-ARIN", "type": "ASN"}\n'
    '{"asn": 64501, "organizationId": "A-ARIN", "type": "ASN"}\n'
)

HIJACKERS = "# serial BGP hijacker ASNs\n64500\nAS64501\n\nas64502\n"

ASNDROP = (
    '{"asn": 400992, "asname": "BAD-AS", "cc": "US", "rir": "arin"}\n'
    '{"asn": "64500", "rir": "ripencc"}\n'
    '{"type": "metadata", "timestamp": 1714521600}\n'
)

UPDATES = (
    "BGP4MP|1700000000|A|198.18.0.1|64500|62.0.0.0/24|64500 64501|IGP\n"
    "BGP4MP|1700000060|W|198.18.0.1|64500|62.0.0.0/24\n"
    "\n"
    "BGP4MP|1700000120|A|198.18.0.1|64500|62.0.0.0/24|64500 64502|IGP\n"
)

FEED = (
    "BGP4MP|1700000000|A|198.18.0.1|64500|62.0.0.0/24|64500 64501|IGP|7\n"
    "BGP4MP|1700000001|W|198.18.0.1|64500|62.0.1.0/24|8\n"
    "\n"
    "BGP4MP|1700000002|A|198.18.0.2|64510|62.0.0.0/23|64510 64502|EGP|12\n"
)

#: Characters the grammars give meaning to, drawn more often than chance.
_SIGNIFICANT = st.sampled_from(list(":|,.-+%# \t\n{}[]\"0123456789ASxX"))


@st.composite
def corrupted(draw, text):
    """*text* with a few characters overwritten, then cut at a random
    length."""
    chars = list(text)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(chars) - 1))
        chars[position] = draw(_SIGNIFICANT | st.characters())
    return "".join(chars[: draw(st.integers(min_value=0, max_value=len(chars)))])


def _assert_names_line(exc, text):
    match = re.match(r"line (\d+): ", str(exc))
    assert match, str(exc)
    assert 1 <= int(match.group(1)) <= len(text.splitlines())


def _parses_or_names_line(parse, error, text):
    """*parse* succeeds or raises *error* naming a line of *text*."""
    try:
        parse(text)
    except error as exc:
        _assert_names_line(exc, text)


class TestMalformedWhois:
    @pytest.mark.parametrize(
        "rir, dump",
        [(RIR.RIPE, RPSL), (RIR.ARIN, ARIN), (RIR.LACNIC, LACNIC)],
        ids=["rpsl", "arin", "lacnic"],
    )
    def test_samples_parse(self, rir, dump):
        assert list(read_records(rir, dump.splitlines()))

    @settings(max_examples=300, deadline=None)
    @given(corrupted(RPSL))
    def test_rpsl(self, text):
        self._check(RIR.RIPE, text)

    @settings(max_examples=300, deadline=None)
    @given(corrupted(ARIN))
    def test_arin(self, text):
        self._check(RIR.ARIN, text)

    @settings(max_examples=300, deadline=None)
    @given(corrupted(LACNIC))
    def test_lacnic(self, text):
        self._check(RIR.LACNIC, text)

    @staticmethod
    def _check(rir, text):
        """Parses or names a line; what parses matches the object path."""
        try:
            records = list(read_records(rir, text.splitlines()))
        except WhoisError as exc:
            _assert_names_line(exc, text)
            return
        assert records == object_path(rir, text)


class TestMalformedRelationships:
    @settings(max_examples=300, deadline=None)
    @given(corrupted(RELATIONSHIPS))
    def test_serial1(self, text):
        _parses_or_names_line(ASRelationships.from_text, RelationshipError, text)


class TestMalformedAs2Org:
    @settings(max_examples=300, deadline=None)
    @given(corrupted(AS2ORG))
    def test_jsonl(self, text):
        _parses_or_names_line(AS2Org.from_jsonl, As2OrgError, text)


class TestMalformedHijackers:
    def test_sample_parses(self):
        assert SerialHijackerList.from_text(HIJACKERS).asns() == {
            64500, 64501, 64502
        }

    @pytest.mark.parametrize("line", ["AS", "64500x", "-7", "AS-1", "1.5"])
    def test_bad_line_is_named(self, line):
        with pytest.raises(HijackerListError, match="^line 3: "):
            SerialHijackerList.from_text(f"# header\n64500\n{line}\n")

    @settings(max_examples=300, deadline=None)
    @given(corrupted(HIJACKERS))
    def test_text(self, text):
        _parses_or_names_line(
            SerialHijackerList.from_text, HijackerListError, text
        )


class TestMalformedAsnDrop:
    def test_sample_parses(self):
        assert AsnDropList.from_json(ASNDROP).asns() == {400992, 64500}

    @pytest.mark.parametrize("line", [
        "{nope", "[1]", "7", '{"asn": null}', '{"asn": 1.5}',
        '{"asn": true}', '{"asn": "x"}', '{"asn": -1}', '{"asn": 1, "cc": 2}',
    ])
    def test_bad_line_is_named(self, line):
        with pytest.raises(AsnDropError, match="^line 2: "):
            AsnDropList.from_json(f'{{"asn": 1}}\n{line}\n')

    @settings(max_examples=300, deadline=None)
    @given(corrupted(ASNDROP))
    def test_jsonl(self, text):
        _parses_or_names_line(AsnDropList.from_json, AsnDropError, text)


class TestMalformedUpdates:
    def test_samples_parse(self):
        assert len(UpdateStream.from_text(UPDATES)) == 3
        assert [m.sequence for m in read_updates(FEED)] == [7, 8, 12]

    def test_sequence_error_names_the_line(self):
        text = FEED + FEED.splitlines()[0] + "\n"
        with pytest.raises(SequenceError, match="^line 5: sequence 7 after 12"):
            list(read_updates(text))

    @settings(max_examples=300, deadline=None)
    @given(corrupted(UPDATES))
    def test_update_file(self, text):
        _parses_or_names_line(UpdateStream.from_text, UpdateStreamError, text)

    @settings(max_examples=300, deadline=None)
    @given(corrupted(FEED))
    def test_sequenced_feed(self, text):
        _parses_or_names_line(
            lambda feed: list(read_updates(feed)),
            (UpdateParseError, SequenceError),
            text,
        )
