"""Property-based tests (hypothesis) for the network primitives.

These pin the algebraic invariants the whole pipeline rests on:
range→CIDR decomposition is an exact minimal cover, the prefix map
agrees with a brute-force model, and prefix geometry is self-consistent.
"""

import ipaddress

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.net import (
    MAX_IPV4,
    AddressRange,
    Prefix,
    PrefixTrie,
    address_to_int,
    int_to_address,
    prefixes_to_ranges,
    range_to_prefixes,
)

addresses = st.integers(min_value=0, max_value=MAX_IPV4)
lengths = st.integers(min_value=0, max_value=32)


@st.composite
def prefixes(draw, min_length=0, max_length=32):
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    address = draw(addresses)
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
    return Prefix(address & mask, length)


class TestAddressProperties:
    @given(addresses)
    def test_int_text_round_trip(self, value):
        assert address_to_int(int_to_address(value)) == value

    @given(addresses)
    def test_matches_stdlib(self, value):
        assert int_to_address(value) == str(ipaddress.IPv4Address(value))


class TestPrefixProperties:
    @given(prefixes())
    def test_parse_str_round_trip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes())
    def test_stdlib_round_trip(self, prefix):
        assert Prefix.from_ipaddress(prefix.to_ipaddress()) == prefix

    @given(prefixes(min_length=1))
    def test_supernet_contains(self, prefix):
        assert prefix.supernet().contains(prefix)

    @given(prefixes(max_length=31))
    def test_subnets_partition(self, prefix):
        halves = list(prefix.subnets())
        assert len(halves) == 2
        assert halves[0].last_address + 1 == halves[1].first_address
        assert halves[0].first_address == prefix.first_address
        assert halves[1].last_address == prefix.last_address

    @given(prefixes(), prefixes())
    def test_contains_iff_range_nesting(self, outer, inner):
        by_range = (
            outer.first_address <= inner.first_address
            and inner.last_address <= outer.last_address
        )
        assert outer.contains(inner) == by_range

    @given(prefixes(), prefixes())
    def test_overlap_symmetric(self, left, right):
        assert left.overlaps(right) == right.overlaps(left)


class TestRangeDecompositionProperties:
    @given(addresses, addresses)
    @settings(max_examples=200)
    def test_exact_contiguous_cover(self, a, b):
        first, last = min(a, b), max(a, b)
        cover = list(range_to_prefixes(first, last))
        assert cover[0].first_address == first
        assert cover[-1].last_address == last
        for left, right in zip(cover, cover[1:]):
            assert left.last_address + 1 == right.first_address
        assert sum(p.num_addresses for p in cover) == last - first + 1

    @given(addresses, addresses)
    def test_matches_stdlib_summarization(self, a, b):
        first, last = min(a, b), max(a, b)
        ours = [p.to_ipaddress() for p in range_to_prefixes(first, last)]
        stdlib = list(
            ipaddress.summarize_address_range(
                ipaddress.IPv4Address(first), ipaddress.IPv4Address(last)
            )
        )
        assert ours == stdlib

    @given(st.lists(prefixes(min_length=8), max_size=20))
    def test_ranges_cover_all_inputs(self, input_prefixes):
        ranges = prefixes_to_ranges(input_prefixes)
        for prefix in input_prefixes:
            assert any(
                r.contains(AddressRange.from_prefix(prefix)) for r in ranges
            )
        # Merged ranges are disjoint and non-adjacent.
        for left, right in zip(ranges, ranges[1:]):
            assert left.last + 1 < right.first


class TestTrieProperties:
    @given(st.lists(st.tuples(prefixes(), st.integers()), max_size=40))
    def test_exact_agrees_with_dict(self, items):
        trie = PrefixTrie()
        model = {}
        for prefix, value in items:
            trie.insert(prefix, value)
            model[prefix] = value
        assert len(trie) == len(model)
        for prefix, value in model.items():
            assert trie.exact(prefix) == value

    @given(
        st.lists(prefixes(), min_size=1, max_size=30, unique=True),
        prefixes(),
    )
    def test_covering_agrees_with_bruteforce(self, stored, probe):
        trie = PrefixTrie()
        for index, prefix in enumerate(stored):
            trie.insert(prefix, index)
        expected = sorted(
            (p for p in stored if p.contains(probe)),
            key=lambda p: p.length,
        )
        got = [p for p, _v in trie.covering(probe)]
        assert got == expected

    @given(st.lists(prefixes(), min_size=1, max_size=30, unique=True))
    def test_roots_and_leaves_bruteforce(self, stored):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, None)
        expected_roots = {
            p
            for p in stored
            if not any(q != p and q.contains(p) for q in stored)
        }
        expected_leaves = {
            p
            for p in stored
            if not any(q != p and p.contains(q) for q in stored)
        }
        assert {p for p, _v in trie.roots()} == expected_roots
        assert {p for p, _v in trie.leaves()} == expected_leaves

    @given(st.lists(prefixes(), max_size=30, unique=True), prefixes())
    def test_covered_agrees_with_bruteforce(self, stored, probe):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, None)
        expected = {p for p in stored if probe.contains(p)}
        assert {p for p, _v in trie.covered(probe)} == expected


@st.composite
def nested_prefixes(draw, max_length=12):
    """Prefixes in a small universe (/12 granularity) so many of them nest."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    address = draw(st.integers(min_value=0, max_value=(1 << 12) - 1)) << 20
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
    return Prefix(address & mask, length)


def _oracle_answers(model, probe):
    """Every query answer of a PrefixTrie holding *model*, by brute force."""
    stored = sorted(model)

    def entry(prefix):
        return (prefix, model[prefix])

    covering = sorted((p for p in stored if p.contains(probe)),
                      key=lambda p: p.length)
    strict = [p for p in covering if p != probe]
    below = [p for p in stored if probe.contains(p) and p != probe]
    return {
        "covering": [entry(p) for p in covering],
        "longest_match": entry(covering[-1]) if covering else None,
        "least_specific_match": entry(covering[0]) if covering else None,
        "parent": entry(strict[-1]) if strict else None,
        "covered": [entry(p) for p in stored if probe.contains(p)],
        "children_of": [
            entry(p) for p in below
            if not any(q != p and q.contains(p) for q in below)
        ],
        "roots": [
            entry(p) for p in stored
            if not any(q != p and q.contains(p) for q in stored)
        ],
        "leaves": [
            entry(p) for p in stored
            if not any(q != p and p.contains(q) for q in stored)
        ],
        "items": [entry(p) for p in stored],
        "exact": model.get(probe),
        "contains": probe in model,
        "len": len(model),
    }


def _trie_answers(trie, probe):
    return {
        "covering": trie.covering(probe),
        "longest_match": trie.longest_match(probe),
        "least_specific_match": trie.least_specific_match(probe),
        "parent": trie.parent(probe),
        "covered": list(trie.covered(probe)),
        "children_of": trie.children_of(probe),
        "roots": trie.roots(),
        "leaves": trie.leaves(),
        "items": list(trie.items()),
        "exact": trie.exact(probe),
        "contains": probe in trie,
        "len": len(trie),
    }


class TestPrefixMapAgainstDictOracle:
    """Mutations interleaved with every query, checked after each step.

    Each step queries the ordered views, so the sorted-key cache is live
    when the next insert or remove lands: a stale cache shows up as a
    wrong ``items``/``covered``/``roots`` answer.
    """

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "remove-stored"]),
                nested_prefixes(),
                st.integers(min_value=0, max_value=63),
                nested_prefixes(max_length=16),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_mutations_match_oracle(self, steps):
        trie = PrefixTrie()
        model = {}
        for number, (kind, prefix, pick, probe) in enumerate(steps):
            if kind == "remove-stored" and model:
                prefix = sorted(model)[pick % len(model)]
            if kind == "insert":
                trie.insert(prefix, number)
                model[prefix] = number
            else:
                assert trie.remove(prefix) == (prefix in model)
                model.pop(prefix, None)
            for query in (probe, prefix):
                assert _trie_answers(trie, query) == _oracle_answers(
                    model, query
                )


class PrefixTrieModel(RuleBasedStateMachine):
    """A ``PrefixTrie`` driven side by side with a dict of ``Prefix`` keys.

    The trie keeps only packed keys and rebuilds each prefix it returns,
    so every view must hand back prefixes equal to (and hashing like)
    the model's, in ``Prefix`` order where the view is ordered.
    """

    def __init__(self):
        super().__init__()
        self.trie = PrefixTrie()
        self.model = {}
        self.step = 0

    def _value(self):
        self.step += 1
        return self.step

    @rule(prefix=nested_prefixes())
    def insert(self, prefix):
        value = self._value()
        self.trie.insert(prefix, value)
        self.model[prefix] = value

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0))
    def replace(self, pick):
        prefix = sorted(self.model)[pick % len(self.model)]
        value = self._value()
        self.trie.insert(prefix, value)
        self.model[prefix] = value
        assert len(self.trie) == len(self.model)

    @rule(prefix=nested_prefixes())
    def remove(self, prefix):
        assert self.trie.remove(prefix) == (prefix in self.model)
        self.model.pop(prefix, None)

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0))
    def remove_stored(self, pick):
        prefix = sorted(self.model)[pick % len(self.model)]
        assert self.trie.remove(prefix)
        del self.model[prefix]

    @rule(probe=nested_prefixes(max_length=16))
    def views_match(self, probe):
        expected = _oracle_answers(self.model, probe)
        assert _trie_answers(self.trie, probe) == expected
        assert self.trie.get(probe, "absent") == self.model.get(probe, "absent")
        hit = expected["longest_match"]
        assert self.trie.longest_match_value(probe) == (hit and hit[1])
        hit = expected["least_specific_match"]
        assert self.trie.least_specific_value(probe) == (hit and hit[1])

    @invariant()
    def ordered_views_match(self):
        stored = sorted(self.model)
        keys = list(self.trie.keys())
        assert keys == stored
        assert all(type(key) is Prefix for key in keys)
        assert [hash(key) for key in keys] == [hash(key) for key in stored]
        assert [str(key) for key in keys] == [str(key) for key in stored]
        assert self.trie.to_dict() == self.model
        clone = self.trie.copy()
        assert clone.to_dict() == self.model
        assert clone.lengths() == self.trie.lengths()


PrefixTrieModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestPrefixTrieModel = PrefixTrieModel.TestCase
