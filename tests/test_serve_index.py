"""Tests for repro.core.leaseindex: the queryable LeaseIndex snapshot."""

import json

import pytest

from repro.core import LeaseInferencePipeline
from repro.core.leaseindex import MAX_LISTING, encode_object, parse_asn_text
from repro.net import Prefix
from repro.serve import LeaseIndex
from repro.simulation import build_world, small_world


@pytest.fixture(scope="module")
def pipeline():
    world = build_world(small_world())
    return LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )


@pytest.fixture(scope="module")
def result(pipeline):
    return pipeline.run()


@pytest.fixture(scope="module")
def index(pipeline, result):
    return LeaseIndex.build(pipeline.context, result)


def decoded(fields):
    """A lookup's encoded fields as the dict they spell (None stays None)."""
    return None if fields is None else json.loads(encode_object(fields))


def holders(result):
    """Every holder organisation handle in *result*, sorted, lowercased."""
    return sorted(
        {i.holder_org_id.lower() for i in result if i.holder_org_id}
    )


class TestParseAsn:
    def test_plain_digits(self):
        assert parse_asn_text("64500") == 64500

    def test_as_prefix_any_case(self):
        assert parse_asn_text("AS64500") == 64500
        assert parse_asn_text("as64500") == 64500

    def test_malformed(self):
        assert parse_asn_text("AS") is None
        assert parse_asn_text("64500x") is None
        assert parse_asn_text("") is None


class TestPrefixLookups:
    def test_len_matches_result(self, index, result):
        assert len(index) == len(list(result))

    def test_exact_hit(self, index):
        prefix = index.prefixes()[0]
        payload = index.exact(prefix)
        assert payload is not None
        assert payload["prefix"] == str(prefix)

    def test_exact_miss(self, index):
        assert index.exact(Prefix.parse("240.0.0.0/24")) is None

    def test_resolve_exact(self, index):
        prefix = index.prefixes()[0]
        resolved = decoded(index.resolve(prefix))
        assert resolved["match"] == "exact"
        assert resolved["matched_prefix"] == str(prefix)
        assert resolved["covering"][-1]["prefix"] == str(prefix)

    def test_resolve_longest_prefix(self, index):
        leaf = next(p for p in index.prefixes() if p.length < 30)
        sub = Prefix(leaf.network, leaf.length + 2)
        resolved = decoded(index.resolve(sub))
        assert resolved["match"] == "longest-prefix"
        assert resolved["matched_prefix"] == str(leaf)
        assert resolved["query"] == str(sub)

    def test_resolve_miss(self, index):
        assert index.resolve(Prefix.parse("240.0.0.0/24")) is None

    def test_covering_chain_least_specific_first(self, index):
        prefix = index.prefixes()[0]
        chain = decoded(index.resolve(prefix))["covering"]
        lengths = [int(entry["prefix"].split("/")[1]) for entry in chain]
        assert lengths == sorted(lengths)

    def test_resolve_text_statuses(self, index):
        prefix = index.prefixes()[0]
        assert index.resolve_text(str(prefix))[0] == 200
        assert index.resolve_text("240.0.0.0/24")[0] == 404
        assert index.resolve_text("not-a-prefix")[0] == 400
        assert "error" in index.resolve_text("not-a-prefix")[1]


class TestInvertedLookups:
    def test_by_asn_lists_all_its_leaves(self, index, result):
        asn = min(index.origin_rows())
        listing = decoded(index.by_asn(asn))
        expected = [
            inference
            for inference in result
            if asn in inference.leaf_origins
        ]
        assert listing["total"] == len(expected)
        assert len(listing["answers"]) == len(expected)

    def test_by_asn_miss(self, index):
        assert index.by_asn(4_199_999_999) is None

    def test_by_org_case_insensitive(self, index, result):
        inference = next(i for i in result if i.holder_org_id)
        handle = inference.holder_org_id
        assert index.by_org(handle) is not None
        assert index.by_org(handle.lower()) is not None
        assert (
            index.by_org(handle)["total"]
            == index.by_org(handle.upper())["total"]
        )

    def test_by_org_miss(self, index):
        assert index.by_org("ORG-DOES-NOT-EXIST") is None

    def test_listing_truncation(self, index, result, monkeypatch):
        org = max(
            holders(result), key=lambda o: decoded(index.by_org(o))["total"]
        )
        full = decoded(index.by_org(org))
        assert full["total"] >= 2, "small world should repeat holders"
        assert full["truncated"] is False
        monkeypatch.setattr("repro.core.leaseindex.MAX_LISTING", 1)
        cut = decoded(index.by_org(org))
        assert cut["truncated"] is True
        assert len(cut["answers"]) == 1
        assert cut["total"] == full["total"]

    def test_listing_category_tallies(self, index, result):
        listing = decoded(index.by_org(holders(result)[0]))
        assert sum(listing["categories"].values()) == listing["total"]

    def test_max_listing_default(self):
        assert MAX_LISTING == 1000


class TestStats:
    def test_counts_are_consistent(self, index, result):
        stats = index.stats()
        inferences = list(result)
        assert stats["leaves"] == len(inferences)
        assert stats["leased"] == sum(1 for i in inferences if i.is_leased)
        assert sum(stats["by_rir"].values()) == len(inferences)
        assert sum(stats["by_category"].values()) == len(inferences)
        assert stats["origins"] == len(
            {asn for i in inferences for asn in i.leaf_origins}
        )
        assert stats["orgs"] == len(holders(inferences))


class TestBatchReplay:
    """The API must answer exactly what the batch classification said."""

    def test_every_leaf_answer_matches_batch(self, index, result):
        for inference in result:
            payload = index.exact(inference.prefix)
            assert payload is not None, inference.prefix
            assert payload["category_code"] == inference.category.name
            assert payload["category"] == inference.category.label
            assert payload["group"] == inference.category.group
            assert payload["leased"] == inference.is_leased
            assert payload["rir"] == inference.rir.name
            evidence = payload["evidence"]
            assert evidence["leaf_origins"] == sorted(inference.leaf_origins)
            assert evidence["root_origins"] == sorted(inference.root_origins)
            assert evidence["root_assigned_asns"] == sorted(
                inference.root_assigned_asns
            )

    def test_every_leaf_has_relatedness_verdict(self, index, result):
        for inference in result:
            verdict = index.exact(inference.prefix)["evidence"]["relatedness"]
            assert isinstance(verdict, str) and verdict

    def test_leased_verdicts_name_the_failure(self, index, result):
        for inference in result:
            if not inference.is_leased:
                continue
            verdict = index.exact(inference.prefix)["evidence"]["relatedness"]
            assert "no leaf origin related" in verdict

    def test_related_categories_name_the_pair(self, index, result):
        for inference in result:
            if inference.category.name not in (
                "ISP_CUSTOMER",
                "DELEGATED_CUSTOMER",
            ):
                continue
            verdict = index.exact(inference.prefix)["evidence"]["relatedness"]
            assert "related to" in verdict
            assert "AS" in verdict


class TestDeltaGenerations:
    """O(changes) delta layers must answer exactly like a full rebuild."""

    @pytest.fixture(scope="class")
    def state(self):
        from dataclasses import replace

        from repro.core import IncrementalEngine
        from repro.serve import DeltaLeaseIndex
        from repro.simulation import simulate_update_bursts

        world = build_world(small_world())
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        result = pipeline.run()
        base = LeaseIndex.build(pipeline.context, result)
        engine = IncrementalEngine(pipeline.context)
        feed = simulate_update_bursts(world, 2, 24, 424242)
        deltas = []
        current = base
        for burst in feed:
            report = engine.apply(burst)
            assert report.changed, "seed 424242 must move at least one leaf"
            current = current.with_updates(pipeline.context, report.changed)
            assert isinstance(current, DeltaLeaseIndex)
            deltas.append(current)
        full = LeaseIndex.build(pipeline.context, engine.result())
        return {
            "context": pipeline.context,
            "result": result,
            "base": base,
            "deltas": deltas,
            "full": full,
            "replace": replace,
        }

    def test_stats_match_full_rebuild(self, state):
        assert state["deltas"][-1].stats() == state["full"].stats()

    def test_every_exact_payload_matches(self, state):
        delta, full = state["deltas"][-1], state["full"]
        assert delta.prefixes() == full.prefixes()
        for prefix in full.prefixes():
            assert delta.exact(prefix) == full.exact(prefix), prefix

    def test_resolve_matches_including_covering_chain(self, state):
        delta, full = state["deltas"][-1], state["full"]
        for prefix in full.prefixes()[:20]:
            assert delta.resolve(prefix) == full.resolve(prefix), prefix
            sub = Prefix(prefix.network, min(prefix.length + 2, 32))
            assert delta.resolve(sub) == full.resolve(sub), sub

    def test_by_asn_matches(self, state):
        delta, full = state["deltas"][-1], state["full"]
        assert delta.origin_rows().keys() == full.origin_rows().keys()
        for asn in sorted(full.origin_rows()):
            assert delta.by_asn(asn) == full.by_asn(asn), asn

    def test_by_org_unaffected_by_churn(self, state):
        delta, base = state["deltas"][-1], state["base"]
        assert delta.stats()["orgs"] == base.stats()["orgs"]
        for org in holders(state["result"]):
            assert delta.by_org(org)["total"] == base.by_org(org)["total"]

    def test_generations_flatten_onto_the_original_base(self, state):
        # Chained with_updates never stacks lookup layers: both delta
        # generations patch directly over the built snapshot.
        base = state["base"]
        for delta in state["deltas"]:
            assert delta._delta_base() is base

    def test_churn_cannot_add_leaves(self, state, result):
        # BGP churn moves origins around; it never creates WHOIS-derived
        # leaves.  Patching an unindexed leaf must refuse loudly.
        fake = state["replace"](
            next(iter(result)), prefix=Prefix.parse("240.0.0.0/24")
        )
        with pytest.raises(KeyError, match="rebuild the snapshot"):
            state["deltas"][-1].with_updates(state["context"], [fake])
