"""Served bodies are byte-identical to the dict-rendered answers.

The index stores each leaf's answer as canonical JSON bytes and the
server splices them into responses.  :class:`DictOracle` keeps the
rendering the server used before that: one payload dict per leaf
(``to_payload`` plus the relatedness verdict), response dicts built
around it, and ``json.dumps(response, sort_keys=True)`` per request.
Every lookup endpoint must serve exactly the oracle's bytes — live, on
a delta generation after churn, and at a historical ``?at=`` epoch.
"""

import http.client
import json
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalEngine, LeaseInferencePipeline
from repro.core.leaseindex import (
    MAX_LISTING,
    _relatedness_verdict,
    encode_array,
    encode_object,
    encode_value,
)
from repro.net import AddressError, Prefix, PrefixTrie, resolve_covering_chain
from repro.serve import LeaseIndex, LeaseQueryServer, SnapshotManager
from repro.simulation import (
    build_world,
    evolve_world,
    simulate_update_bursts,
    small_world,
)
from repro.temporal import build_temporal_product


def dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class DictOracle:
    """Answers rendered from per-leaf payload dicts, as before."""

    def __init__(self, context, inferences) -> None:
        self.payloads: Dict[Prefix, dict] = {}
        self.trie: PrefixTrie = PrefixTrie()
        self.by_origin: Dict[int, list] = {}
        self.by_org: Dict[str, list] = {}
        for inference in inferences:
            payload = inference.to_payload()
            payload["evidence"]["relatedness"] = _relatedness_verdict(
                context, inference
            )
            self.payloads[inference.prefix] = payload
            self.trie.insert(inference.prefix, payload)
            for asn in inference.leaf_origins:
                self.by_origin.setdefault(asn, []).append(inference.prefix)
            if inference.holder_org_id:
                self.by_org.setdefault(
                    inference.holder_org_id.lower(), []
                ).append(inference.prefix)

    def prefix(self, text: str, generation: int) -> tuple:
        try:
            prefix = Prefix.parse(text)
        except AddressError:
            return 400, {"error": f"bad prefix: {text!r}",
                         "generation": generation}
        best, chain = resolve_covering_chain(self.trie, prefix)
        if best is None:
            return 404, {"error": "no classified prefix covers the query",
                         "query": str(prefix), "generation": generation}
        match_prefix, answer = best
        return 200, {
            "query": str(prefix),
            "match": "exact" if match_prefix == prefix else "longest-prefix",
            "matched_prefix": str(match_prefix),
            "answer": answer,
            "covering": [
                {"prefix": str(p), "category": entry["category"],
                 "leased": entry["leased"]}
                for p, entry in chain
            ],
            "generation": generation,
        }

    def listing(self, head: dict, prefixes, limit: Optional[int]) -> dict:
        cap = MAX_LISTING if limit is None else min(limit, MAX_LISTING)
        categories: Dict[str, int] = {}
        leased = 0
        answers = []
        for prefix in sorted(prefixes):
            payload = self.payloads[prefix]
            code = payload["category_code"]
            categories[code] = categories.get(code, 0) + 1
            leased += bool(payload["leased"])
            if len(answers) < cap:
                answers.append(payload)
        return dict(head, total=len(prefixes), leased=leased,
                    categories=categories, truncated=len(prefixes) > cap,
                    answers=answers)

    def asn(self, asn: int, generation: int, limit=None) -> tuple:
        listing = self.listing({"asn": asn}, self.by_origin[asn], limit)
        listing["generation"] = generation
        return 200, listing

    def org(self, handle: str, generation: int, limit=None) -> tuple:
        listing = self.listing({"org": handle, "role": "holder"},
                               self.by_org[handle.lower()], limit)
        listing["generation"] = generation
        return 200, listing


class Client:
    """One keep-alive connection returning raw ``(status, body)``."""

    def __init__(self, server) -> None:
        self.conn = http.client.HTTPConnection(*server.address, timeout=10)

    def get(self, target: str) -> tuple:
        self.conn.request("GET", target)
        response = self.conn.getresponse()
        return response.status, response.read()

    def post(self, target: str, body: bytes) -> tuple:
        self.conn.request("POST", target, body=body)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@pytest.fixture(scope="module")
def world_state():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    return world, pipeline.context, result


@pytest.fixture(scope="module")
def live(world_state):
    _world, context, result = world_state
    return LeaseIndex.build(context, result), DictOracle(context, result)


@pytest.fixture()
def client(live):
    with LeaseQueryServer(SnapshotManager(live[0])) as server:
        connection = Client(server)
        yield connection
        connection.close()


def _assert_listings(client, oracle, generation):
    """Every ASN and org listing, with and without ``limit``."""
    for limit in (None, 1, 2):
        query = "" if limit is None else f"?limit={limit}"
        for asn in sorted(oracle.by_origin):
            expected_status, expected = oracle.asn(asn, generation, limit)
            status, body = client.get(f"/v1/asn/AS{asn}{query}")
            assert status == expected_status
            assert body == dumps(expected), asn
        for org in sorted(oracle.by_org):
            handle = org.upper()
            expected_status, expected = oracle.org(handle, generation, limit)
            status, body = client.get(f"/v1/org/{handle}{query}")
            assert status == expected_status
            assert body == dumps(expected), org


class TestEncoding:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.text(),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text()
            | st.floats(allow_nan=False),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(), children, max_size=4),
            max_leaves=12,
        ),
        max_size=6,
    ))
    def test_spliced_object_equals_dumps(self, payload):
        fields = {key: encode_value(value) for key, value in payload.items()}
        assert encode_object(fields) == dumps(payload)

    @given(st.lists(st.integers() | st.text(), max_size=6))
    def test_spliced_array_equals_dumps(self, items):
        assert encode_array(encode_value(i) for i in items) == dumps(items)


class TestLiveIndex:
    def test_exact_equals_the_payload_dict(self, live):
        index, oracle = live
        assert index.prefixes() == sorted(oracle.payloads)
        for prefix, payload in oracle.payloads.items():
            assert index.exact(prefix) == payload, prefix

    def test_every_leaf_and_a_longest_prefix_miss(self, live, client):
        index, oracle = live
        targets = [str(prefix) for prefix in index.prefixes()]
        leaf = next(p for p in index.prefixes() if p.length < 30)
        targets += [
            f"{Prefix(leaf.network, leaf.length + 2)}",  # longest-prefix
            "240.0.0.0/24",  # nothing covers it
            "not-a-prefix",
        ]
        for text in targets:
            expected_status, expected = oracle.prefix(text, 1)
            status, body = client.get(f"/v1/prefix/{text}")
            assert status == expected_status, text
            assert body == dumps(expected), text
            # The cached copy is the same bytes.
            assert client.get(f"/v1/prefix/{text}") == (status, body)

    def test_bulk(self, live, client):
        index, oracle = live
        texts = [str(p) for p in index.prefixes()[:40]] + ["nope"]
        status, body = client.post(
            "/v1/bulk", json.dumps({"prefixes": texts}).encode()
        )
        assert status == 200
        results = []
        for text in texts:
            item_status, item = oracle.prefix(text, 1)
            results.append({"status": item_status, "result": item})
        assert body == dumps({"generation": 1, "results": results})

    def test_listings(self, live, client):
        _assert_listings(client, live[1], 1)


class TestDeltaGeneration:
    @pytest.fixture(scope="class")
    def delta(self, world_state):
        world, context, result = world_state
        engine = IncrementalEngine(context)
        current = LeaseIndex.build(context, result)
        for burst in simulate_update_bursts(world, 3, 24, 424242):
            report = engine.apply(burst)
            current = current.with_updates(context, report.changed)
        return current, DictOracle(context, engine.result())

    def test_exact_equals_the_payload_dict(self, delta):
        index, oracle = delta
        for prefix, payload in oracle.payloads.items():
            assert index.exact(prefix) == payload, prefix

    def test_served_bytes(self, delta):
        index, oracle = delta
        with LeaseQueryServer(SnapshotManager(index)) as server:
            client = Client(server)
            try:
                for prefix in index.prefixes():
                    _status, expected = oracle.prefix(str(prefix), 1)
                    assert client.get(f"/v1/prefix/{prefix}") == (
                        200, dumps(expected)
                    )
                _assert_listings(client, oracle, 1)
            finally:
                client.close()


class TestHistoricalEpoch:
    EPOCH = 2

    @pytest.fixture(scope="class")
    def history(self, world_state):
        world, context, result = world_state
        evolution = evolve_world(
            world, [i.prefix for i in result], epochs=3, seed=77
        )
        product, base, reports = build_temporal_product(
            context, result, evolution
        )
        current = {inference.prefix: inference for inference in result}
        for report in reports[:self.EPOCH]:
            current.update((i.prefix, i) for i in report.changed)
        oracle = DictOracle(context, current.values())
        changed = [i.prefix for i in reports[self.EPOCH - 1].changed]
        assert changed, "seed 77 must move a leaf in epoch 2"
        at = evolution.epoch_timestamps[self.EPOCH - 1] + 1
        return product, base, oracle, changed, at

    def test_exact_equals_the_payload_dict(self, history):
        product, _base, oracle, _changed, _at = history
        view = product.index.index_for_epoch(self.EPOCH)
        for prefix, payload in oracle.payloads.items():
            assert view.exact(prefix) == payload, prefix

    def test_at_epoch_bytes(self, history):
        product, base, oracle, changed, at = history
        extra = {"epoch": self.EPOCH, "at": at}
        with LeaseQueryServer(
            SnapshotManager(base), temporal=product
        ) as server:
            client = Client(server)
            try:
                for prefix in changed + base.prefixes()[:10]:
                    _status, expected = oracle.prefix(str(prefix), 1)
                    status, body = client.get(f"/v1/prefix/{prefix}?at={at}")
                    assert status == 200
                    assert body == dumps(dict(expected, **extra)), prefix
                for asn in sorted(oracle.by_origin)[:10]:
                    _status, expected = oracle.asn(asn, 1, 2)
                    status, body = client.get(
                        f"/v1/asn/{asn}?at={at}&limit=2"
                    )
                    assert body == dumps(dict(expected, **extra)), asn
            finally:
                client.close()
