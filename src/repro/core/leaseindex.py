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

The snapshot holds no reference to the context or the datasets it was
built from; hot-reload (:mod:`repro.serve.reload`) swaps whole
instances atomically.

The module lives in ``core`` (it is pure data over core results and
``net`` tries) so that both of its consumers — the ``serve`` layer and
the ``temporal`` time-travel index, which may never import ``serve`` —
can share one snapshot type.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, cast

from ..net import AddressError, Prefix, PrefixTrie, resolve_covering_chain
from ..net.gcpause import gc_paused
from .context import AnalysisContext
from .results import InferenceResult, LeafInference

__all__ = ["DeltaLeaseIndex", "LeaseIndex", "MAX_LISTING", "parse_asn_text"]

#: Listing endpoints (ASN / org) cap their prefix lists at this many
#: entries and set ``"truncated": true`` — a bounded response no matter
#: how large the snapshot grows.
MAX_LISTING = 1000

Payload = Dict[str, object]


def parse_asn_text(text: str) -> Optional[int]:
    """Parse ``"64500"`` or ``"AS64500"``; None when malformed."""
    text = text.strip()
    if text.upper().startswith("AS"):
        text = text[2:]
    if not text.isdigit():
        return None
    return int(text)


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
        trie: PrefixTrie[Payload],
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
        context's business-family sets — is computed here, once; the
        finished index no longer references the context.
        """
        trie: PrefixTrie[Payload] = PrefixTrie()
        by_origin: Dict[int, List[Prefix]] = {}
        by_org: Dict[str, List[Prefix]] = {}
        by_rir: Dict[str, int] = {}
        by_category: Dict[str, int] = {}
        leased = 0
        for inference in result:
            payload = inference.to_payload()
            evidence = payload["evidence"]
            assert isinstance(evidence, dict)
            evidence["relatedness"] = _relatedness_verdict(context, inference)
            trie.insert(inference.prefix, payload)
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
    def exact(self, prefix: Prefix) -> Optional[Payload]:
        """The classified leaf stored at exactly *prefix*, or None."""
        return self._patched(prefix, self._trie.exact(prefix))

    def _patched(
        self, prefix: Prefix, payload: Optional[Payload]
    ) -> Optional[Payload]:
        """The payload to surface for *prefix* (delta overlays override).

        The base index surfaces trie payloads as stored; a delta layer
        substitutes its patched payloads here so every lookup path —
        exact, resolve, listings — sees one consistent view without
        copying the trie.
        """
        return payload

    def resolve(self, prefix: Prefix) -> Optional[Payload]:
        """Exact-or-longest-prefix answer with the covering chain.

        Returns ``None`` when no classified leaf covers *prefix*;
        otherwise a payload naming the match kind (``exact`` or
        ``longest-prefix``), the matched leaf's full answer, and the
        covering chain least-specific first.
        """
        best, chain = resolve_covering_chain(self._trie, prefix)
        if best is None:
            return None
        match_prefix, answer = best
        patched = self._patched(match_prefix, answer)
        assert patched is not None  # the trie held a payload for it
        return {
            "query": str(prefix),
            "match": "exact" if match_prefix == prefix else "longest-prefix",
            "matched_prefix": str(match_prefix),
            "answer": patched,
            "covering": [
                {
                    "prefix": str(chain_prefix),
                    "category": entry["category"],
                    "leased": entry["leased"],
                }
                for chain_prefix, chain_payload in chain
                for entry in (self._patched(chain_prefix, chain_payload),)
                if entry is not None
            ],
        }

    def resolve_text(self, text: str) -> Tuple[int, Payload]:
        """Resolve a textual CIDR query into ``(status, payload)``.

        Status is HTTP-shaped: 200 with the answer, 400 for a malformed
        query, 404 when nothing covers it.
        """
        try:
            prefix = Prefix.parse(text)
        except AddressError:
            return 400, {"error": f"bad prefix: {text!r}"}
        resolved = self.resolve(prefix)
        if resolved is None:
            return 404, {
                "error": "no classified prefix covers the query",
                "query": str(prefix),
            }
        return 200, resolved

    # -- inverted lookups -------------------------------------------------
    def by_asn(
        self, asn: int, limit: Optional[int] = None
    ) -> Optional[Payload]:
        """Every leaf originated by *asn*, with category tallies."""
        prefixes = self._by_origin.get(asn)
        if not prefixes:
            return None
        return self._listing({"asn": asn}, prefixes, limit)

    def by_org(
        self, handle: str, limit: Optional[int] = None
    ) -> Optional[Payload]:
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
    ) -> Payload:
        cap = MAX_LISTING if limit is None else min(limit, MAX_LISTING)
        categories: Dict[str, int] = {}
        leased = 0
        answers: List[Payload] = []
        for prefix in prefixes:
            payload = self.exact(prefix)
            assert payload is not None  # inverted indexes mirror the trie
            category = str(payload["category_code"])
            categories[category] = categories.get(category, 0) + 1
            if payload["leased"]:
                leased += 1
            if len(answers) < cap:
                answers.append(payload)
        result = dict(head)
        result.update(
            {
                "total": len(prefixes),
                "leased": leased,
                "categories": categories,
                "truncated": len(prefixes) > cap,
                "answers": answers,
            }
        )
        return result

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
    # Read-only views over the inverted indexes, for machinery that
    # derives new generations from this one (the temporal index) without
    # reaching into name-mangled internals.
    def origin_prefixes(self, asn: int) -> Tuple[Prefix, ...]:
        """The by-origin inverted-index row for *asn* (empty when absent)."""
        return self._by_origin.get(asn, ())

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
    def delta_base(self) -> "LeaseIndex":
        """The index whose trie delta layers share (public view)."""
        return self._delta_base()

    def payload_overrides(self) -> Dict[Prefix, Payload]:
        """A copy of the payload overrides patched over the base trie.

        Empty for a base index; a delta generation returns its full
        (flattened) override map.  The temporal index replays these when
        materializing historical epochs from a checkpoint.
        """
        return dict(self._delta_overrides())

    def _delta_base(self) -> "LeaseIndex":
        """The index whose trie a delta layer should share (self here)."""
        return self

    def _delta_overrides(self) -> Dict[Prefix, Payload]:
        """Prior payload overrides to carry forward (none here)."""
        return {}

    def with_updates(
        self, context: AnalysisContext, changes: Iterable[LeafInference]
    ) -> "DeltaLeaseIndex":
        """A new generation patching *changes* over this snapshot.

        O(changes), not O(snapshot): the leaf trie is **shared** with
        this index and only the changed leaves' payloads, the affected
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
            old = self.exact(inference.prefix)
            if old is None:
                raise KeyError(
                    f"update for unindexed leaf {inference.prefix}; delta "
                    "generations cannot add leaves — rebuild the snapshot"
                )
            payload = inference.to_payload()
            evidence = payload["evidence"]
            assert isinstance(evidence, dict)
            evidence["relatedness"] = _relatedness_verdict(context, inference)
            old_code = str(old["category_code"])
            new_code = inference.category.name
            if old_code != new_code:
                remaining = by_category.get(old_code, 0) - 1
                if remaining:
                    by_category[old_code] = remaining
                else:
                    by_category.pop(old_code, None)
                by_category[new_code] = by_category.get(new_code, 0) + 1
            leased += int(inference.is_leased) - int(bool(old["leased"]))
            old_evidence = old["evidence"]
            assert isinstance(old_evidence, dict)
            old_origins = frozenset(
                cast(Iterable[int], old_evidence["leaf_origins"])
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
            overrides[inference.prefix] = payload
        return DeltaLeaseIndex(
            base=self._delta_base(),
            overrides=overrides,
            by_origin=by_origin,
            by_category=by_category,
            leased=leased,
        )


class DeltaLeaseIndex(LeaseIndex):
    """One delta generation: a base snapshot plus patched leaf payloads.

    Shares the base index's trie and the static inverted indexes (RIR
    and holder organisation never move under BGP churn); carries its own
    by-origin index, tallies, and a flat payload-override map consulted
    by every lookup through :meth:`LeaseIndex._patched`.
    """

    def __init__(
        self,
        base: LeaseIndex,
        overrides: Dict[Prefix, Payload],
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

    def _delta_overrides(self) -> Dict[Prefix, Payload]:
        return self._overrides

    def _patched(
        self, prefix: Prefix, payload: Optional[Payload]
    ) -> Optional[Payload]:
        override = self._overrides.get(prefix)
        return payload if override is None else override
