"""Deterministic company-name generation and messy-spelling variants.

The broker-matching evaluation (§6.2) depends on realistic name noise:
legal-suffix variations (LTD vs L.T.D.), abbreviations, and fictitious
business names.  The generator produces stable names from a seeded RNG
and can derive the imperfect spellings a broker list would carry.
"""

from __future__ import annotations

import difflib
import random
from typing import List, Set

__all__ = ["NameForge"]

_SYLLABLES = [
    "net", "tele", "data", "link", "wave", "core", "peer", "route", "host",
    "cloud", "fiber", "giga", "terra", "nova", "alto", "vertex", "prime",
    "apex", "omni", "sono", "luma", "zen", "arc", "volt", "hex", "mira",
    "bel", "cor", "dux", "ek", "fen", "gor", "hul", "iv", "jar", "kel",
    "lor", "mak", "nim", "oz", "pil", "quor", "rud", "sel", "tov", "ul",
    "vex", "wix", "yar", "zul", "bran", "crest", "dell", "ford", "glen",
    "hart", "isle", "knoll", "lake", "mead", "north", "oak",
]
_SECOND = [
    "com", "networks", "systems", "online", "connect", "digital",
    "telecom", "internet", "solutions", "group", "media", "labs",
]
_SUFFIXES = ["Ltd", "LLC", "Inc", "GmbH", "B.V.", "AB", "SA", "Pte. Ltd.",
             "S.R.L.", "Kft", "FZCO", "PLC"]


class NameForge:
    """Seeded generator of unique company names and their noisy variants."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: Set[str] = set()
        #: Stems bucketed by first syllable — the fuzzy-distinctness check
        #: only needs to compare within a bucket, keeping generation O(1)ish.
        self._stem_buckets: dict = {}

    def company(self, with_suffix: bool = True) -> str:
        """A fresh, unique company name like ``Novacom Networks Ltd``.

        Name *stems* are globally unique and kept fuzzily distinct so the
        §5.3 broker matching cannot accidentally join two unrelated
        companies — real company names collide far less than random
        syllables would.
        """
        for _attempt in range(5000):
            first = self._rng.choice(_SYLLABLES)
            stem = (
                first.capitalize()
                + self._rng.choice(_SYLLABLES)
                + self._rng.choice(_SYLLABLES)
            )
            core = f"{stem} {self._rng.choice(_SECOND).capitalize()}"
            if core in self._used or self._too_similar(first, stem):
                continue
            self._used.add(core)
            self._stem_buckets.setdefault(first, []).append(stem.lower())
            if with_suffix:
                return f"{core} {self._rng.choice(_SUFFIXES)}"
            return core
        raise RuntimeError("name space exhausted")  # pragma: no cover

    def _too_similar(self, first: str, stem: str) -> bool:
        """True when another stem with the same leading syllable is close.

        Stems starting with different syllables already differ enough for
        the matcher's threshold, so only the shared-prefix bucket needs a
        real similarity check.  ``real_quick_ratio`` and ``quick_ratio``
        are upper bounds on ``ratio``, so the cheap checks only skip
        stems that could not reach the threshold anyway.
        """
        stem = stem.lower()
        matcher = difflib.SequenceMatcher()
        matcher.set_seq2(stem)
        for used in self._stem_buckets.get(first, ()):
            matcher.set_seq1(used)
            if matcher.real_quick_ratio() < 0.8 or matcher.quick_ratio() < 0.8:
                continue
            if matcher.ratio() >= 0.8:
                return True
        return False

    def messy_variant(self, name: str) -> str:
        """A plausible alternative spelling of *name*.

        Applies one of the §6.2 inconsistency classes: dotted or swapped
        legal suffix, upper-casing, or suffix removal.  The variant still
        normalizes to the same canonical form in most cases — matching the
        paper's 39-of-115 manual matches.
        """
        choice = self._rng.randrange(4)
        if choice == 0:
            return _dotted_suffix(name)
        if choice == 1:
            return name.upper()
        if choice == 2:
            return _swap_suffix(name, self._rng)
        return _strip_suffix(name)


def _strip_suffix(name: str) -> str:
    tokens = name.split()
    if len(tokens) > 1:
        return " ".join(tokens[:-1])
    return name


def _swap_suffix(name: str, rng: random.Random) -> str:
    return f"{_strip_suffix(name)} {rng.choice(_SUFFIXES)}"


def _dotted_suffix(name: str) -> str:
    tokens = name.split()
    last = tokens[-1].replace(".", "")
    if last.isalpha() and len(last) <= 4:
        tokens[-1] = ".".join(last) + "."
        return " ".join(tokens)
    return name


def org_handle(rir_tag: str, index: int) -> str:
    """A registry-style organisation handle, e.g. ``ORG-RIPE-0042``."""
    return f"ORG-{rir_tag}-{index:04d}"


def maintainer_handle(name: str, index: int) -> str:
    """A maintainer handle derived from a company name."""
    stem = "".join(ch for ch in name.upper() if ch.isalpha())[:8]
    return f"{stem or 'MNT'}{index:03d}-MNT"
