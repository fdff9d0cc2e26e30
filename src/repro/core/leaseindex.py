"""``LeaseIndex``: one pipeline run frozen into a queryable snapshot.

The batch pipeline answers "how much space is leased?"; the serving
layer answers "is *this* prefix leased, by whom, and why?" at
interactive rates.  :meth:`LeaseIndex.build` turns one
:class:`~repro.core.context.AnalysisContext` plus its
:class:`~repro.core.results.InferenceResult` into an immutable snapshot:

* a :class:`~repro.net.PrefixTrie` of every classified leaf for
  exact / longest-prefix / covering-chain lookups (the same
  :func:`~repro.net.resolve_covering_chain` semantics as the RFC 3912
  WHOIS server),
* inverted indexes by origin ASN, holder organisation, RIR, and
  category, and
* a per-leaf **evidence** payload — group, leaf/root BGP origins, the
  root organisation's assigned ASNs, and the relatedness verdict — so
  every answer is explainable without re-running the classifier.

Each leaf is stored as a :data:`Row`: its :class:`Category` and its
answer encoded once, at build time, as canonical JSON
(``json.dumps(payload, sort_keys=True)``).  Tallies and covering chains
read the category; the serving layer splices the stored bytes into its
responses with :func:`encode_object` / :func:`encode_array` instead of
re-encoding dicts per request.  The lookups (:meth:`LeaseIndex.resolve`,
:meth:`LeaseIndex.by_asn`, ...) return a response's top-level keys
already encoded (:data:`Fields`); only :meth:`LeaseIndex.exact` decodes
a stored answer back into a dict, for in-process callers.

The snapshot holds no reference to the context or the datasets it was
built from; :mod:`repro.serve.reload` publishes whole instances
atomically.

The module lives in ``core`` (it is pure data over core results and
``net`` tries) so that both of its consumers — the ``serve`` layer and
the ``temporal`` time-travel index, which may never import ``serve`` —
can share one snapshot type.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, cast

from ..net import AddressError, Prefix, PrefixTrie, resolve_covering_chain
from ..net.gcpause import gc_paused
from .classify import Category
from .context import AnalysisContext
from .results import InferenceResult, LeafInference

__all__ = [
    "DeltaLeaseIndex",
    "Fields",
    "LeaseIndex",
    "MAX_LISTING",
    "encode_array",
    "encode_fields",
    "encode_object",
    "encode_value",
    "parse_asn_text",
]

#: Listing endpoints (ASN / org) cap their prefix lists at this many
#: entries and set ``"truncated": true`` — a bounded response no matter
#: how large the snapshot grows.
MAX_LISTING = 1000

Payload = Dict[str, object]

#: One indexed leaf: its category and its answer as canonical JSON.
Row = Tuple[Category, bytes]

#: A JSON object's top-level keys, each mapped to its encoded value.
Fields = Dict[str, bytes]

_ENCODER = json.JSONEncoder(sort_keys=True)
_encode_key = json.encoder.encode_basestring_ascii


def encode_value(value: object) -> bytes:
    """*value* as ``json.dumps(value, sort_keys=True)`` bytes."""
    return _ENCODER.encode(value).encode("ascii")


def encode_fields(payload: Mapping[str, object]) -> Fields:
    """*payload*'s top-level values, each encoded."""
    return {key: encode_value(value) for key, value in payload.items()}


def encode_object(fields: Mapping[str, bytes]) -> bytes:
    """The object whose keys map to the pre-encoded *fields* values.

    Byte-identical to ``json.dumps(d, sort_keys=True)`` for the dict
    ``d`` the values decode to (default separators, ASCII escapes).
    """
    return b"{" + b", ".join(
        _encode_key(key).encode("ascii") + b": " + fields[key]
        for key in sorted(fields)
    ) + b"}"


def encode_array(items: Iterable[bytes]) -> bytes:
    """The array of the pre-encoded *items*, as ``json.dumps`` writes it."""
    return b"[" + b", ".join(items) + b"]"


def parse_asn_text(text: str) -> Optional[int]:
    """Parse ``"64500"`` or ``"AS64500"``; None when malformed."""
    text = text.strip()
    if text.upper().startswith("AS"):
        text = text[2:]
    if not (text.isascii() and text.isdigit()):
        return None
    return int(text)


def _row(context: AnalysisContext, inference: LeafInference) -> Row:
    """*inference*'s answer plus its relatedness verdict, encoded once."""
    payload = inference.to_payload()
    evidence = payload["evidence"]
    assert isinstance(evidence, dict)
    evidence["relatedness"] = _relatedness_verdict(context, inference)
    return inference.category, encode_value(payload)


def _relatedness_verdict(
    context: AnalysisContext, inference: LeafInference
) -> Optional[str]:
    """The human-readable §5.2 relatedness outcome behind the category."""
    category = inference.category.name
    if category == "UNUSED":
        return "not applicable: neither leaf nor root is originated"
    if category == "AGGREGATED_CUSTOMER":
        return "not applicable: leaf not originated, covered by the root"
    if category == "ISP_CUSTOMER":
        pair = context.related_pair(
            inference.leaf_origins, inference.root_assigned_asns
        )
        if pair is not None:
            return f"leaf origin AS{pair[0]} related to root-assigned AS{pair[1]}"
        return "related (pair unavailable)"  # pragma: no cover - defensive
    if category == "LEASED_GROUP3":
        return "no leaf origin related to the root organisation's assigned ASNs"
    targets = inference.root_assigned_asns | inference.root_origins
    if category == "DELEGATED_CUSTOMER":
        pair = context.related_pair(inference.leaf_origins, targets)
        if pair is not None:
            return f"leaf origin AS{pair[0]} related to root-side AS{pair[1]}"
        return "related (pair unavailable)"  # pragma: no cover - defensive
    return (
        "no leaf origin related to the root's assigned or originating ASNs"
    )


class LeaseIndex:
    """An immutable, queryable snapshot of one classification run."""

    def __init__(
        self,
        trie: PrefixTrie[Row],
        by_origin: Dict[int, Tuple[Prefix, ...]],
        by_org: Dict[str, Tuple[Prefix, ...]],
        by_rir: Dict[str, int],
        by_category: Dict[str, int],
        leased: int,
    ) -> None:
        self._trie = trie
        self._by_origin = by_origin
        self._by_org = by_org
        self._by_rir = by_rir
        self._by_category = by_category
        self._leased = leased

    @classmethod
    @gc_paused
    def build(
        cls, context: AnalysisContext, result: InferenceResult
    ) -> "LeaseIndex":
        """Freeze *result* (classified with *context*) into a snapshot.

        Evidence — including the relatedness verdict, which needs the
        context's business-family sets — is computed and encoded here,
        once; the finished index no longer references the context.
        """
        trie: PrefixTrie[Row] = PrefixTrie()
        by_origin: Dict[int, List[Prefix]] = {}
        by_org: Dict[str, List[Prefix]] = {}
        by_rir: Dict[str, int] = {}
        by_category: Dict[str, int] = {}
        leased = 0
        for inference in result:
            trie.insert(inference.prefix, _row(context, inference))
            for asn in inference.leaf_origins:
                by_origin.setdefault(asn, []).append(inference.prefix)
            if inference.holder_org_id:
                by_org.setdefault(
                    inference.holder_org_id.lower(), []
                ).append(inference.prefix)
            by_rir[inference.rir.name] = by_rir.get(inference.rir.name, 0) + 1
            code = inference.category.name
            by_category[code] = by_category.get(code, 0) + 1
            if inference.is_leased:
                leased += 1
        return cls(
            trie=trie,
            by_origin={
                asn: tuple(sorted(prefixes))
                for asn, prefixes in by_origin.items()
            },
            by_org={
                org: tuple(sorted(prefixes))
                for org, prefixes in by_org.items()
            },
            by_rir=by_rir,
            by_category=by_category,
            leased=leased,
        )

    # -- size -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._trie)

    # -- prefix lookups ---------------------------------------------------
    def row(self, prefix: Prefix) -> Optional[Row]:
        """The stored row of the leaf at exactly *prefix*, or None."""
        return self._patched(prefix, self._trie.exact(prefix))

    def exact(self, prefix: Prefix) -> Optional[Payload]:
        """The classified leaf stored at exactly *prefix*, or None."""
        row = self.row(prefix)
        return None if row is None else cast(Payload, json.loads(row[1]))

    def _patched(self, prefix: Prefix, row: Optional[Row]) -> Optional[Row]:
        """The row to surface for *prefix* (delta overlays override).

        The base index surfaces trie rows as stored; a delta layer
        substitutes its patched rows here so every lookup path — exact,
        resolve, listings — sees one consistent view without copying
        the trie.
        """
        return row

    def resolve(self, prefix: Prefix) -> Optional[Fields]:
        """Exact-or-longest-prefix answer with the covering chain.

        Returns ``None`` when no classified leaf covers *prefix*;
        otherwise the fields naming the match kind (``exact`` or
        ``longest-prefix``), the matched leaf's full answer, and the
        covering chain least-specific first.
        """
        best, chain = resolve_covering_chain(self._trie, prefix)
        if best is None:
            return None
        match_prefix, stored = best
        answer = self._patched(match_prefix, stored)
        assert answer is not None  # the trie held a row for it
        covering = []
        for chain_prefix, chain_row in chain:
            entry = self._patched(chain_prefix, chain_row)
            if entry is not None:
                covering.append({
                    "prefix": str(chain_prefix),
                    "category": entry[0].label,
                    "leased": entry[0].is_leased,
                })
        return {
            "query": encode_value(str(prefix)),
            "match": encode_value(
                "exact" if match_prefix == prefix else "longest-prefix"
            ),
            "matched_prefix": encode_value(str(match_prefix)),
            "answer": answer[1],
            "covering": encode_value(covering),
        }

    def resolve_text(self, text: str) -> Tuple[int, Fields]:
        """Resolve a textual CIDR query into ``(status, fields)``.

        Status is HTTP-shaped: 200 with the answer, 400 for a malformed
        query, 404 when nothing covers it.
        """
        try:
            prefix = Prefix.parse(text)
        except AddressError:
            return 400, {"error": encode_value(f"bad prefix: {text!r}")}
        resolved = self.resolve(prefix)
        if resolved is None:
            return 404, {
                "error": encode_value("no classified prefix covers the query"),
                "query": encode_value(str(prefix)),
            }
        return 200, resolved

    # -- inverted lookups -------------------------------------------------
    def by_asn(
        self, asn: int, limit: Optional[int] = None
    ) -> Optional[Fields]:
        """Every leaf originated by *asn*, with category tallies."""
        prefixes = self._by_origin.get(asn)
        if not prefixes:
            return None
        return self._listing({"asn": asn}, prefixes, limit)

    def by_org(
        self, handle: str, limit: Optional[int] = None
    ) -> Optional[Fields]:
        """Every leaf whose *holder* (root organisation) is *handle*."""
        prefixes = self._by_org.get(handle.strip().lower())
        if not prefixes:
            return None
        return self._listing({"org": handle.strip(), "role": "holder"},
                             prefixes, limit)

    def _listing(
        self,
        head: Payload,
        prefixes: Tuple[Prefix, ...],
        limit: Optional[int] = None,
    ) -> Fields:
        cap = MAX_LISTING if limit is None else min(limit, MAX_LISTING)
        categories: Dict[str, int] = {}
        leased = 0
        answers: List[bytes] = []
        for prefix in prefixes:
            row = self.row(prefix)
            assert row is not None  # inverted indexes mirror the trie
            category, answer = row
            categories[category.name] = categories.get(category.name, 0) + 1
            if category.is_leased:
                leased += 1
            if len(answers) < cap:
                answers.append(answer)
        fields = encode_fields(head)
        fields.update(
            total=encode_value(len(prefixes)),
            leased=encode_value(leased),
            categories=encode_value(categories),
            truncated=encode_value(len(prefixes) > cap),
            answers=encode_array(answers),
        )
        return fields

    # -- snapshot-wide views ----------------------------------------------
    def stats(self) -> Payload:
        """Aggregate counts for ``/v1/stats`` (JSON-ready)."""
        return {
            "leaves": len(self._trie),
            "leased": self._leased,
            "by_rir": dict(sorted(self._by_rir.items())),
            "by_category": dict(sorted(self._by_category.items())),
            "origins": len(self._by_origin),
            "orgs": len(self._by_org),
        }

    def prefixes(self) -> List[Prefix]:
        """Every classified leaf prefix, sorted."""
        return sorted(self._trie.keys())

    # -- delta-layer accessors ---------------------------------------------
    # Read-only copies of the state a delta generation recomputes, so
    # tests can compare generations without reaching into internals.
    def origin_rows(self) -> Dict[int, Tuple[Prefix, ...]]:
        """A copy of the full by-origin inverted index."""
        return dict(self._by_origin)

    def category_tallies(self) -> Dict[str, int]:
        """A copy of the per-category leaf counts."""
        return dict(self._by_category)

    @property
    def leased_count(self) -> int:
        """How many indexed leaves are classified as leased."""
        return self._leased

    # -- delta generations -------------------------------------------------
    def _delta_base(self) -> "LeaseIndex":
        """The index whose trie a delta layer should share (self here)."""
        return self

    def _delta_overrides(self) -> Dict[Prefix, Row]:
        """Prior row overrides to carry forward (none here)."""
        return {}

    def with_updates(
        self, context: AnalysisContext, changes: Iterable[LeafInference]
    ) -> "DeltaLeaseIndex":
        """A new generation patching *changes* over this snapshot.

        O(changes), not O(snapshot): the leaf trie is **shared** with
        this index and only the changed leaves' rows, the affected
        inverted-index rows, and the category/leased tallies are
        recomputed.  Applying updates to an already-patched generation
        flattens onto the original base index, so override chains never
        grow deeper than one level.

        Streaming churn moves BGP evidence, never the WHOIS-derived
        leaf set — a change naming an unindexed prefix raises
        :class:`KeyError` rather than silently growing the snapshot.
        """
        overrides = dict(self._delta_overrides())
        by_origin = dict(self._by_origin)
        by_category = dict(self._by_category)
        leased = self._leased
        for inference in changes:
            old = self.row(inference.prefix)
            if old is None:
                raise KeyError(
                    f"update for unindexed leaf {inference.prefix}; delta "
                    "generations cannot add leaves — rebuild the snapshot"
                )
            old_category, old_answer = old
            old_code = old_category.name
            new_code = inference.category.name
            if old_code != new_code:
                remaining = by_category.get(old_code, 0) - 1
                if remaining:
                    by_category[old_code] = remaining
                else:
                    by_category.pop(old_code, None)
                by_category[new_code] = by_category.get(new_code, 0) + 1
            leased += int(inference.is_leased) - int(old_category.is_leased)
            old_origins = frozenset(
                json.loads(old_answer)["evidence"]["leaf_origins"]
            )
            for asn in old_origins - inference.leaf_origins:
                pruned = tuple(
                    entry
                    for entry in by_origin[asn]
                    if entry != inference.prefix
                )
                if pruned:
                    by_origin[asn] = pruned
                else:
                    del by_origin[asn]
            for asn in inference.leaf_origins - old_origins:
                by_origin[asn] = tuple(
                    sorted(by_origin.get(asn, ()) + (inference.prefix,))
                )
            overrides[inference.prefix] = _row(context, inference)
        return DeltaLeaseIndex(
            base=self._delta_base(),
            overrides=overrides,
            by_origin=by_origin,
            by_category=by_category,
            leased=leased,
        )


class DeltaLeaseIndex(LeaseIndex):
    """One delta generation: a base snapshot plus patched leaf rows.

    Shares the base index's trie and the static inverted indexes (RIR
    and holder organisation never move under BGP churn); carries its own
    by-origin index, tallies, and a flat row-override map consulted by
    every lookup through :meth:`LeaseIndex._patched`.
    """

    def __init__(
        self,
        base: LeaseIndex,
        overrides: Dict[Prefix, Row],
        by_origin: Dict[int, Tuple[Prefix, ...]],
        by_category: Dict[str, int],
        leased: int,
    ) -> None:
        super().__init__(
            trie=base._trie,
            by_origin=by_origin,
            by_org=base._by_org,
            by_rir=base._by_rir,
            by_category=by_category,
            leased=leased,
        )
        self._base = base
        self._overrides = overrides

    def _delta_base(self) -> LeaseIndex:
        return self._base

    def _delta_overrides(self) -> Dict[Prefix, Row]:
        return self._overrides

    def _patched(self, prefix: Prefix, row: Optional[Row]) -> Optional[Row]:
        override = self._overrides.get(prefix)
        return row if override is None else override
