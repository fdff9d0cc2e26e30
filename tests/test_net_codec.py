"""The IPv4 text codec against a frozen copy of the regex codec it replaced.

On ASCII text the split-based ``address_to_int`` and ``Prefix.parse``
must accept exactly what the regex versions accepted, with the same
value; ``int_to_address`` must print the same text.  Outside ASCII the
old codec read any script's digits (``\\d`` and ``int``); the new one
takes ASCII digits only.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import MAX_IPV4, AddressError, Prefix, address_to_int, int_to_address

# -- the codec as it was, kept verbatim as the parity oracle ---------------
_OLD_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


def old_address_to_int(text):
    match = _OLD_DOTTED_QUAD.match(text.strip())
    if match is None:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def old_int_to_address(value):
    if not 0 <= value <= MAX_IPV4:
        raise AddressError(f"address integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def old_prefix_parse(text):
    text = text.strip()
    if "/" in text:
        addr_text, _, len_text = text.partition("/")
        try:
            length = int(len_text)
        except ValueError:
            raise AddressError(f"bad prefix length in {text!r}") from None
    else:
        addr_text, length = text, 32
    network = old_address_to_int(addr_text)
    if not 0 <= length <= 32:
        raise AddressError(f"prefix length out of range: {length}")
    mask = (MAX_IPV4 << (32 - length)) & MAX_IPV4 if length else 0
    if network & ~mask:
        raise AddressError("host bits set")
    return network, length


# -- helpers ---------------------------------------------------------------
def outcome(parse, text):
    """``("ok", value)`` or ``("error", None)`` for an AddressError."""
    try:
        return "ok", parse(text)
    except AddressError:
        return "error", None


def new_prefix_parse(text):
    prefix = Prefix.parse(text)
    return prefix.network, prefix.length


#: ASCII pieces that sit on the edges of the old regex and of ``int``.
TRICKY = [
    "0", "00", "000", "0000", "1", "01", "001", "0001", "9", "255", "256",
    "0255", "999", "1000", "+1", "-1", "-0", "1_0", "_1", "1_", " ", "\t",
    "\n", "\r", "\x0b", "\x0c", "\x1c", ".", "..", "/", "//", "a", "0x1",
    "1e2", "", "32", "33", "08", "+8", " 8", "8 ",
]
pieces = st.one_of(
    st.sampled_from(TRICKY),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=4),
)
#: Dotted-quad-shaped ASCII text built from the pieces above.
ascii_quads = st.builds(
    lambda parts, gaps: "".join(
        part + gap for part, gap in zip(parts, gaps)
    ),
    st.lists(pieces, min_size=1, max_size=6),
    st.lists(st.sampled_from([".", ".", ".", "", " ", "/"]), min_size=6,
             max_size=6),
)
lengths_text = st.one_of(
    st.integers(min_value=-2, max_value=40).map(str), pieces
)
octets = st.integers(min_value=0, max_value=255)


# -- parity ----------------------------------------------------------------
class TestAddressParity:
    @settings(max_examples=1500, deadline=None)
    @given(ascii_quads)
    def test_same_verdict_on_ascii_text(self, text):
        assert outcome(address_to_int, text) == outcome(
            old_address_to_int, text
        )

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=20))
    def test_same_verdict_on_any_ascii_text(self, text):
        assert outcome(address_to_int, text) == outcome(
            old_address_to_int, text
        )

    @given(st.integers(min_value=-(1 << 33), max_value=1 << 33))
    def test_same_text_for_every_integer(self, value):
        assert outcome(int_to_address, value) == outcome(
            old_int_to_address, value
        )

    @pytest.mark.parametrize(
        "text",
        [
            " 10.0.0.1", "10.0.0.1 ", "\t10.0.0.1\n", "10. 0.0.1", "10.0.0.1.",
            "010.000.00.1", "0010.0.0.1", "10.0.0.0256", "1000.0.0.0",
            "+10.0.0.1", "10.+0.0.1", "1_0.0.0.1", "10.0_0.0.1", "10.0.0.-0",
            "255.255.255.255", "256.255.255.255", "10..0.1", "10.0.0",
        ],
    )
    def test_same_verdict_on_the_edges(self, text):
        assert outcome(address_to_int, text) == outcome(
            old_address_to_int, text
        )


class TestPrefixParity:
    @settings(max_examples=1500, deadline=None)
    @given(octets, octets, octets, octets, lengths_text,
           st.sampled_from(["", " ", "\t", "\n"]))
    def test_same_verdict_on_ascii_text(self, a, b, c, d, length, pad):
        text = f"{pad}{a}.{b}.{c}.{d}/{length}{pad}"
        assert outcome(new_prefix_parse, text) == outcome(
            old_prefix_parse, text
        )

    @settings(max_examples=500, deadline=None)
    @given(ascii_quads)
    def test_same_verdict_on_quad_shaped_text(self, text):
        assert outcome(new_prefix_parse, text) == outcome(
            old_prefix_parse, text
        )

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=MAX_IPV4),
           st.integers(min_value=0, max_value=32))
    def test_host_bits_at_every_length(self, network, length):
        text = f"{old_int_to_address(network)}/{length}"
        assert outcome(new_prefix_parse, text) == outcome(
            old_prefix_parse, text
        )

    @pytest.mark.parametrize("length", range(33))
    def test_each_host_bit_at_every_length(self, length):
        network = MAX_IPV4 ^ (MAX_IPV4 >> length)  # every network bit set
        assert Prefix(network, length).length == length
        for bit in range(32 - length):
            with pytest.raises(AddressError, match="host bits"):
                Prefix(network | (1 << bit), length)

    @pytest.mark.parametrize("length", [-1, 33, 64])
    def test_length_out_of_range(self, length):
        with pytest.raises(AddressError, match="prefix length out of range"):
            Prefix(0, length)


# -- the non-ASCII fix -----------------------------------------------------
class TestAsciiDigitsOnly:
    @pytest.mark.parametrize(
        "text",
        [
            "١٠.0.0.0",  # Arabic-Indic digits
            "10.０.0.0",  # fullwidth zero
            "10.0.0.۱",  # extended Arabic-Indic one
            "१.2.3.4",  # Devanagari one
            "10.0.0.²",  # superscript two (isdigit, not a decimal)
        ],
    )
    def test_other_scripts_digits_rejected(self, text):
        with pytest.raises(AddressError):
            address_to_int(text)
        with pytest.raises(AddressError):
            Prefix.parse(f"{text}/32")

    @pytest.mark.parametrize("length", ["٨", "８", "3٢"])
    def test_other_scripts_lengths_rejected(self, length):
        with pytest.raises(AddressError, match="bad prefix length"):
            Prefix.parse(f"10.0.0.0/{length}")

    def test_the_reported_case(self):
        assert old_prefix_parse("١٠.0.0.0/8") == (0x0A000000, 8)
        with pytest.raises(AddressError):
            Prefix.parse("١٠.0.0.0/8")
