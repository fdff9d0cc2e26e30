"""Tests for the MRT binary format and BGP update streams."""

import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    AnnounceUpdate,
    ASPath,
    MrtError,
    RibEntry,
    RoutingTable,
    UpdateStream,
    WithdrawUpdate,
    format_update,
    parse_update_line,
    read_mrt,
    write_mrt,
)
from repro.bgp.mrt import read_mrt_updates, write_mrt_updates
from repro.net import Prefix


def make_entries():
    return [
        RibEntry(
            prefix=Prefix.parse("213.210.33.0/24"),
            path=ASPath.parse("3356 8851 15169"),
            peer_asn=3356,
            peer_address="198.32.160.1",
            timestamp=1712102400,
        ),
        RibEntry(
            prefix=Prefix.parse("213.210.33.0/24"),
            path=ASPath.parse("1299 15169"),
            peer_asn=1299,
            peer_address="198.32.160.2",
            timestamp=1712102400,
        ),
        RibEntry(
            prefix=Prefix.parse("10.0.0.0/8"),
            path=ASPath.parse("3356 64500"),
            peer_asn=3356,
            peer_address="198.32.160.1",
            timestamp=1712102400,
        ),
    ]


class TestMrtRoundTrip:
    def test_round_trip_preserves_routes(self):
        entries = make_entries()
        decoded = list(read_mrt(write_mrt(entries)))
        assert sorted(decoded, key=lambda e: (e.prefix, e.peer_asn)) == sorted(
            entries, key=lambda e: (e.prefix, e.peer_asn)
        )

    def test_peer_table_deduplicated(self):
        data = write_mrt(make_entries())
        # Exactly one PEER_INDEX_TABLE with two peers: parse the header of
        # the first record and check the peer count field.
        _ts, mrt_type, subtype, length = struct.unpack_from(">IHHI", data, 0)
        assert (mrt_type, subtype) == (13, 1)
        body = data[12 : 12 + length]
        (_collector, name_len) = struct.unpack_from(">IH", body, 0)
        (peer_count,) = struct.unpack_from(">H", body, 6 + name_len)
        assert peer_count == 2

    def test_view_name_round_trip(self):
        data = write_mrt(make_entries(), view_name="rrc00")
        assert b"rrc00" in data
        assert len(list(read_mrt(data))) == 3

    def test_multiple_entries_share_prefix_record(self):
        data = write_mrt(make_entries())
        # 1 peer index + 2 RIB records (two distinct prefixes).
        records = 0
        offset = 0
        while offset < len(data):
            _ts, _type, _sub, length = struct.unpack_from(">IHHI", data, offset)
            offset += 12 + length
            records += 1
        assert records == 3

    def test_empty(self):
        data = write_mrt([])
        assert list(read_mrt(data)) == []

    def test_zero_length_prefix(self):
        entry = RibEntry(
            prefix=Prefix.parse("0.0.0.0/0"),
            path=ASPath.parse("1 2"),
            peer_asn=1,
            peer_address="10.0.0.1",
        )
        decoded = list(read_mrt(write_mrt([entry])))
        assert decoded[0].prefix == Prefix.parse("0.0.0.0/0")

    def test_unknown_record_types_skipped(self):
        entries = make_entries()[:1]
        data = write_mrt(entries)
        foreign = struct.pack(">IHHI", 0, 16, 4, 3) + b"\x00\x01\x02"
        decoded = list(read_mrt(foreign + data))
        assert len(decoded) == 1

    def test_truncated_header_raises(self):
        with pytest.raises(MrtError):
            list(read_mrt(b"\x00\x01\x02"))

    def test_truncated_body_raises(self):
        data = write_mrt(make_entries())
        with pytest.raises(MrtError):
            list(read_mrt(data[:-4]))

    def test_routing_table_from_mrt(self):
        table = RoutingTable.from_entries(read_mrt(write_mrt(make_entries())))
        assert table.exact_origins(Prefix.parse("213.210.33.0/24")) == {15169}
        assert table.exact_origins(Prefix.parse("10.0.0.0/8")) == {64500}


class TestUpdateFormat:
    def test_announce_round_trip(self):
        update = AnnounceUpdate(
            timestamp=100,
            prefix=Prefix.parse("10.0.0.0/24"),
            path=ASPath.parse("1 2 3"),
            peer_asn=1,
            peer_address="10.9.9.9",
        )
        assert parse_update_line(format_update(update)) == update

    def test_withdraw_round_trip(self):
        update = WithdrawUpdate(
            timestamp=200,
            prefix=Prefix.parse("10.0.0.0/24"),
            peer_asn=1,
            peer_address="10.9.9.9",
        )
        assert parse_update_line(format_update(update)) == update

    @pytest.mark.parametrize(
        "line",
        [
            "garbage",
            "BGP4MP|1|X|1.2.3.4|1|10.0.0.0/8",
            "BGP4MP|1|A|1.2.3.4|1|10.0.0.0/8",  # announce without path
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ValueError):
            parse_update_line(line)


class TestUpdateStream:
    @pytest.fixture
    def stream(self):
        prefix = Prefix.parse("213.210.33.0/24")
        return UpdateStream(
            [
                AnnounceUpdate(100, prefix, ASPath.parse("1 834"), 1, "p1"),
                WithdrawUpdate(200, prefix, 1, "p1"),
                AnnounceUpdate(300, prefix, ASPath.parse("1 8100"), 1, "p1"),
                AnnounceUpdate(
                    150,
                    Prefix.parse("10.0.0.0/8"),
                    ASPath.parse("1 64500"),
                    1,
                    "p1",
                ),
            ]
        )

    def test_sorted_by_time(self, stream):
        times = [u.timestamp for u in stream]
        assert times == sorted(times)

    def test_table_at_before_withdraw(self, stream):
        table = stream.table_at(150)
        assert table.exact_origins(Prefix.parse("213.210.33.0/24")) == {834}

    def test_table_at_during_gap(self, stream):
        table = stream.table_at(250)
        assert (
            table.exact_origins(Prefix.parse("213.210.33.0/24")) == frozenset()
        )
        assert table.exact_origins(Prefix.parse("10.0.0.0/8")) == {64500}

    def test_table_at_after_relase(self, stream):
        table = stream.table_at(1000)
        assert table.exact_origins(Prefix.parse("213.210.33.0/24")) == {8100}

    def test_implicit_replacement(self):
        prefix = Prefix.parse("10.0.0.0/24")
        stream = UpdateStream(
            [
                AnnounceUpdate(1, prefix, ASPath.parse("1 100"), 1, "p1"),
                AnnounceUpdate(2, prefix, ASPath.parse("1 200"), 1, "p1"),
            ]
        )
        assert stream.table_at(5).exact_origins(prefix) == {200}

    def test_origin_history_feeds_timeline(self, stream):
        from repro.core import build_timeline
        from repro.rpki import RpkiArchive

        prefix = Prefix.parse("213.210.33.0/24")
        history = stream.origin_history(prefix)
        assert history.origins_at(120) == {834}
        assert history.origins_at(220) == frozenset()
        assert history.origins_at(320) == {8100}
        timeline = build_timeline(prefix, history, RpkiArchive())
        assert timeline.lease_count() == 2

    def test_text_round_trip(self, stream):
        reloaded = UpdateStream.from_text(stream.to_text())
        assert list(reloaded) == list(stream)

    def test_add_keeps_order(self, stream):
        stream.add(
            AnnounceUpdate(
                175, Prefix.parse("10.1.0.0/16"), ASPath.parse("9"), 9, "p9"
            )
        )
        times = [u.timestamp for u in stream]
        assert times == sorted(times)

    def test_prefixes(self, stream):
        assert stream.prefixes() == {
            Prefix.parse("213.210.33.0/24"),
            Prefix.parse("10.0.0.0/8"),
        }

    def test_withdraw_without_announce_is_noop(self):
        prefix = Prefix.parse("10.0.0.0/24")
        stream = UpdateStream([WithdrawUpdate(1, prefix, 1, "p1")])
        assert stream.table_at(10).num_prefixes() == 0


class TestBgp4mpUpdates:
    def make_stream(self):
        prefix = Prefix.parse("213.210.33.0/24")
        return UpdateStream(
            [
                AnnounceUpdate(
                    100, prefix, ASPath.parse("3356 834"), 3356, "10.0.0.1"
                ),
                WithdrawUpdate(200, prefix, 3356, "10.0.0.1"),
                AnnounceUpdate(
                    300,
                    Prefix.parse("10.0.0.0/8"),
                    ASPath.parse("3356 64500"),
                    3356,
                    "10.0.0.1",
                ),
            ]
        )

    def test_round_trip(self):
        from repro.bgp.mrt import read_mrt_updates, write_mrt_updates

        stream = self.make_stream()
        reloaded = read_mrt_updates(write_mrt_updates(stream))
        assert list(reloaded) == list(stream)

    def test_replay_after_round_trip(self):
        from repro.bgp.mrt import read_mrt_updates, write_mrt_updates

        stream = self.make_stream()
        reloaded = read_mrt_updates(write_mrt_updates(stream))
        table = reloaded.table_at(400)
        assert table.exact_origins(Prefix.parse("10.0.0.0/8")) == {64500}
        assert (
            table.exact_origins(Prefix.parse("213.210.33.0/24"))
            == frozenset()
        )

    def test_bgp_marker_present(self):
        from repro.bgp.mrt import write_mrt_updates

        data = write_mrt_updates(self.make_stream())
        assert b"\xff" * 16 in data  # the BGP message marker

    def test_foreign_records_skipped(self):
        import struct

        from repro.bgp.mrt import read_mrt_updates, write_mrt_updates

        data = write_mrt_updates(self.make_stream())
        foreign = struct.pack(">IHHI", 0, 13, 1, 2) + b"\x00\x00"
        reloaded = read_mrt_updates(foreign + data)
        assert len(reloaded) == 3

    def test_truncated_raises(self):
        from repro.bgp.mrt import MrtError, read_mrt_updates, write_mrt_updates

        data = write_mrt_updates(self.make_stream())
        with pytest.raises(MrtError):
            read_mrt_updates(data[:-3])

    def test_empty_stream(self):
        from repro.bgp.mrt import read_mrt_updates, write_mrt_updates

        assert len(read_mrt_updates(write_mrt_updates(UpdateStream()))) == 0


@st.composite
def corrupted(draw, dump):
    """*dump* with a few bytes overwritten, then cut at a random length."""
    raw = bytearray(dump)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[position] = draw(st.integers(min_value=0, max_value=255))
    return bytes(raw[: draw(st.integers(min_value=0, max_value=len(raw)))])


def _decodes_or_names_offset(decode, blob):
    """Decoding either succeeds or raises MrtError naming a byte offset."""
    try:
        decode(blob)
    except MrtError as exc:
        assert re.search(r"byte offset \d+", str(exc)), str(exc)


class TestMalformedMrt:
    """Corrupted dumps fail with the typed error, never a raw decoder one."""

    RIB = write_mrt(make_entries())
    UPDATES = write_mrt_updates(TestBgp4mpUpdates().make_stream())

    @settings(max_examples=400, deadline=None)
    @given(corrupted(RIB))
    def test_rib_dump(self, blob):
        _decodes_or_names_offset(lambda data: list(read_mrt(data)), blob)

    @settings(max_examples=400, deadline=None)
    @given(corrupted(UPDATES))
    def test_update_dump(self, blob):
        _decodes_or_names_offset(read_mrt_updates, blob)

    def test_error_names_the_failing_record(self):
        second = self.RIB.index(struct.pack(">HH", 13, 2))  # first RIB record
        header_start = second - 4
        with pytest.raises(MrtError, match=f"byte offset {header_start}"):
            list(read_mrt(self.RIB[: header_start + 14]))
