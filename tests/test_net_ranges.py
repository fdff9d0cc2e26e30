"""Unit tests for repro.net.ranges."""

import random

import pytest

from repro.net import (
    AddressError,
    AddressRange,
    Prefix,
    address_to_int,
    prefixes_to_ranges,
    range_to_prefixes,
)


def random_ranges(count, seed):
    """*count* seeded ranges of up to 64k addresses, clipped at the top."""
    rng = random.Random(seed)
    ranges = []
    for _index in range(count):
        first = rng.getrandbits(32)
        ranges.append((first, min(0xFFFFFFFF, first + rng.getrandbits(16))))
    return ranges


class TestAddressRangeParsing:
    def test_parse_dashed(self):
        rng = AddressRange.parse("213.210.0.0 - 213.210.63.255")
        assert rng.num_addresses == 1 << 14

    def test_parse_cidr(self):
        rng = AddressRange.parse("10.0.0.0/24")
        assert rng.num_addresses == 256

    def test_parse_inverted_rejected(self):
        with pytest.raises(AddressError):
            AddressRange.parse("10.0.1.0 - 10.0.0.0")

    def test_str_round_trip(self):
        rng = AddressRange.parse("192.0.2.0 - 192.0.2.255")
        assert AddressRange.parse(str(rng)) == rng

    def test_from_prefix(self):
        prefix = Prefix.parse("198.51.100.0/24")
        rng = AddressRange.from_prefix(prefix)
        assert rng.first == prefix.first_address
        assert rng.last == prefix.last_address


class TestRangeSetOperations:
    def test_contains(self):
        outer = AddressRange.parse("10.0.0.0/16")
        inner = AddressRange.parse("10.0.5.0/24")
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_overlaps_partial(self):
        left = AddressRange.parse("10.0.0.0 - 10.0.0.127")
        right = AddressRange.parse("10.0.0.64 - 10.0.0.255")
        assert left.overlaps(right)
        assert right.overlaps(left)

    def test_overlaps_disjoint(self):
        left = AddressRange.parse("10.0.0.0/25")
        right = AddressRange.parse("10.0.0.128/25")
        assert not left.overlaps(right)


class TestRangeToCidr:
    def test_aligned_range_is_single_prefix(self):
        rng = AddressRange.parse("10.0.0.0 - 10.0.63.255")
        assert [str(p) for p in rng.to_prefixes()] == ["10.0.0.0/18"]
        assert rng.is_cidr_aligned()

    def test_unaligned_range_decomposes_minimally(self):
        prefixes = list(
            range_to_prefixes(
                address_to_int("10.0.0.0"), address_to_int("10.0.2.255")
            )
        )
        assert [str(p) for p in prefixes] == ["10.0.0.0/23", "10.0.2.0/24"]

    def test_single_address(self):
        value = address_to_int("192.0.2.1")
        assert [str(p) for p in range_to_prefixes(value, value)] == [
            "192.0.2.1/32"
        ]

    def test_offset_start(self):
        prefixes = list(
            range_to_prefixes(
                address_to_int("10.0.0.1"), address_to_int("10.0.0.8")
            )
        )
        # 1 + 2 + 4 + 1 addresses: /32 /31 /30 /32
        assert [str(p) for p in prefixes] == [
            "10.0.0.1/32",
            "10.0.0.2/31",
            "10.0.0.4/30",
            "10.0.0.8/32",
        ]

    def test_full_space(self):
        prefixes = list(range_to_prefixes(0, (1 << 32) - 1))
        assert [str(p) for p in prefixes] == ["0.0.0.0/0"]

    def test_decomposition_is_exact_cover(self):
        unaligned = (
            address_to_int("172.16.3.7"),
            address_to_int("172.16.200.250"),
        )
        for first, last in [unaligned] + random_ranges(2_000, seed=3):
            prefixes = list(range_to_prefixes(first, last))
            total = sum(p.num_addresses for p in prefixes)
            assert total == last - first + 1
            assert prefixes[0].first_address == first
            assert prefixes[-1].last_address == last
            # No two adjacent prefixes may be mergeable (minimality) and
            # they must be contiguous.
            for left, right in zip(prefixes, prefixes[1:]):
                assert left.last_address + 1 == right.first_address


class TestPrefixesToRanges:
    def test_empty(self):
        assert prefixes_to_ranges([]) == []

    def test_adjacent_merge(self):
        ranges = prefixes_to_ranges(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.1.0/24")]
        )
        assert len(ranges) == 1
        assert ranges[0].num_addresses == 512

    def test_overlapping_merge(self):
        ranges = prefixes_to_ranges(
            [Prefix.parse("10.0.0.0/16"), Prefix.parse("10.0.5.0/24")]
        )
        assert len(ranges) == 1
        assert ranges[0] == AddressRange.parse("10.0.0.0/16")

    def test_disjoint_stay_separate(self):
        ranges = prefixes_to_ranges(
            [Prefix.parse("10.0.0.0/24"), Prefix.parse("10.0.2.0/24")]
        )
        assert len(ranges) == 2

    def test_unsorted_input(self):
        ranges = prefixes_to_ranges(
            [Prefix.parse("10.0.2.0/24"), Prefix.parse("10.0.0.0/24")]
        )
        assert [r.first for r in ranges] == sorted(r.first for r in ranges)
