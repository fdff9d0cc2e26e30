"""End-to-end tests for the asyncio lease-lookup HTTP server."""

import asyncio
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core import LeaseInferencePipeline
from repro.serve import (
    MAX_BULK,
    LeaseIndex,
    LeaseQueryServer,
    SnapshotManager,
)
from repro.net import Prefix
from repro.serve.http import CACHE_ENTRY_BYTES, ResponseCache
from repro.simulation import build_world, small_world


@pytest.fixture(scope="module")
def index():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    return LeaseIndex.build(pipeline.context, result)


@pytest.fixture()
def manager(index):
    return SnapshotManager(index)


@pytest.fixture()
def server(manager):
    with LeaseQueryServer(manager) as srv:
        yield srv


def request(server, method, path, body=None):
    """One HTTP round trip; returns (status, decoded-or-raw body)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")
    finally:
        conn.close()


def get(server, path):
    return request(server, "GET", path)


class TestHealthAndStats:
    def test_healthz(self, server):
        status, payload = get(server, "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "generation": 1}

    def test_healthz_wrong_method(self, server):
        assert request(server, "POST", "/healthz")[0] == 405

    def test_stats_structure(self, server, index):
        _, answer = get(server, "/v1/prefix/" + str(index.prefixes()[0]))
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert payload["generation"] == 1
        assert payload["snapshot"]["leaves"] == len(index)
        assert payload["cache"]["capacity"] > 0
        assert payload["cache"]["bytes"] == len(
            json.dumps(answer, sort_keys=True)
        )
        assert payload["endpoints"]["prefix"]["requests"] == 1

    def test_metrics_exposition(self, server, index):
        _, answer = get(server, "/v1/prefix/" + str(index.prefixes()[0]))
        status, text = get(server, "/metrics")
        assert status == 200
        assert "repro_serve_generation 1" in text
        assert f"repro_serve_snapshot_leaves {len(index)}" in text
        assert 'repro_serve_requests_total{endpoint="prefix"} 1' in text
        held = len(json.dumps(answer, sort_keys=True))
        assert f"repro_serve_cache_bytes {held}" in text

    def test_unknown_endpoint(self, server):
        status, payload = get(server, "/v1/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]


class TestPrefixEndpoint:
    def test_exact(self, server, index):
        prefix = index.prefixes()[0]
        status, payload = get(server, f"/v1/prefix/{prefix}")
        assert status == 200
        assert payload["match"] == "exact"
        assert payload["answer"]["prefix"] == str(prefix)
        assert payload["generation"] == 1

    def test_longest_prefix(self, server, index):
        leaf = next(p for p in index.prefixes() if p.length < 30)
        sub = f"{leaf}".split("/")[0] + f"/{leaf.length + 2}"
        status, payload = get(server, f"/v1/prefix/{sub}")
        assert status == 200
        assert payload["match"] == "longest-prefix"
        assert payload["matched_prefix"] == str(leaf)

    def test_miss_is_404(self, server):
        status, payload = get(server, "/v1/prefix/240.0.0.0/24")
        assert status == 404
        assert "query" in payload

    def test_malformed_is_400(self, server):
        status, payload = get(server, "/v1/prefix/not-a-prefix")
        assert status == 400
        assert "bad prefix" in payload["error"]

    def test_url_escaped_query(self, server, index):
        prefix = index.prefixes()[0]
        escaped = str(prefix).replace("/", "%2F")
        status, payload = get(server, f"/v1/prefix/{escaped}")
        assert status == 200
        assert payload["answer"]["prefix"] == str(prefix)


class TestAsnAndOrgEndpoints:
    def test_asn_listing(self, server, index):
        asn = min(index.origin_rows())
        status, payload = get(server, f"/v1/asn/AS{asn}")
        assert status == 200
        assert payload["asn"] == asn
        assert payload["total"] == len(payload["answers"])

    def test_asn_miss(self, server):
        assert get(server, "/v1/asn/4199999999")[0] == 404

    def test_asn_malformed(self, server):
        assert get(server, "/v1/asn/banana")[0] == 400

    @pytest.mark.parametrize("text", ["%C2%B2", "AS%C2%B9", "%D9%A1"])
    def test_asn_non_ascii_digits_rejected(self, server, text):
        # "²" passes str.isdigit() but not int(); "١" passes both.
        assert get(server, f"/v1/asn/{text}")[0] == 400

    @pytest.mark.parametrize("name", ["limit", "at"])
    def test_int_param_non_ascii_digits_rejected(self, server, index, name):
        asn = min(index.origin_rows())
        assert get(server, f"/v1/asn/{asn}?{name}=%C2%B2")[0] == 400

    def test_org_listing(self, server, index):
        org = next(
            answer["holder_org"]
            for answer in map(index.exact, index.prefixes())
            if answer["holder_org"]
        )
        status, payload = get(server, f"/v1/org/{org}")
        assert status == 200
        assert payload["role"] == "holder"
        assert payload["total"] >= 1

    def test_org_miss(self, server):
        assert get(server, "/v1/org/ORG-NOPE")[0] == 404


class TestBulkEndpoint:
    def test_batch(self, server, index):
        prefixes = [str(p) for p in index.prefixes()[:5]] + ["240.0.0.0/24"]
        status, payload = request(
            server, "POST", "/v1/bulk",
            json.dumps({"prefixes": prefixes}),
        )
        assert status == 200
        assert len(payload["results"]) == 6
        statuses = [entry["status"] for entry in payload["results"]]
        assert statuses == [200] * 5 + [404]

    def test_batch_limit(self, server):
        too_many = ["10.0.0.0/24"] * (MAX_BULK + 1)
        status, payload = request(
            server, "POST", "/v1/bulk",
            json.dumps({"prefixes": too_many}),
        )
        assert status == 413
        assert payload["got"] == MAX_BULK + 1

    def test_bad_json(self, server):
        assert request(server, "POST", "/v1/bulk", "{nope")[0] == 400

    def test_wrong_shape(self, server):
        status, _ = request(
            server, "POST", "/v1/bulk", json.dumps({"prefixes": [1, 2]})
        )
        assert status == 400

    def test_wrong_method(self, server):
        assert get(server, "/v1/bulk")[0] == 405

    def test_bulk_shares_prefix_cache(self, server, index):
        prefix = str(index.prefixes()[0])
        get(server, f"/v1/prefix/{prefix}")
        before = server.cache.hits
        request(
            server, "POST", "/v1/bulk", json.dumps({"prefixes": [prefix]})
        )
        assert server.cache.hits == before + 1


class TestCaching:
    def test_repeat_query_hits_cache(self, server, index):
        path = f"/v1/prefix/{index.prefixes()[0]}"
        get(server, path)
        assert server.cache.hits == 0
        get(server, path)
        assert server.cache.hits == 1
        assert get(server, path)[0] == 200
        assert server.cache.hits == 2

    def test_lru_eviction_under_pressure(self, manager, index):
        with LeaseQueryServer(manager, cache_size=2) as small:
            for prefix in index.prefixes()[:4]:
                get(small, f"/v1/prefix/{prefix}")
            assert small.cache.evictions == 2
            assert len(small.cache) == 2
            status, _ = get(small, f"/v1/prefix/{index.prefixes()[3]}")
            assert status == 200
            assert small.cache.hits == 1

    def test_zero_capacity_cache_disables_caching(self):
        cache = ResponseCache(0)
        cache.put((1, "/x"), (200, {}))
        assert len(cache) == 0
        assert cache.get((1, "/x")) is None
        assert cache.stats()["hit_rate"] == 0.0

    def test_bytes_follow_puts_replacements_and_evictions(self):
        cache = ResponseCache(2)
        cache.put((1, "prefix", "a", None, None), (200, b"aaaa"))
        cache.put((1, "prefix", "b", None, None), (200, b"bb"))
        assert cache.stats()["bytes"] == 6
        cache.put((1, "prefix", "b", None, None), (200, b"b"))
        assert cache.bytes == 5
        cache.put((1, "prefix", "c", None, None), (404, b"ccc"))  # evicts a
        assert cache.bytes == 4
        assert len(cache) == 2

    def test_byte_bound_evicts_and_skips_oversized_bodies(self):
        cache = ResponseCache(4)
        bound = 4 * CACHE_ENTRY_BYTES
        assert cache.stats()["max_bytes"] == bound
        half = bound // 2
        cache.put((1, "asn", "a", None, None), (200, b"a" * half))
        cache.put((1, "asn", "b", None, None), (200, b"b" * half))
        cache.put((1, "asn", "c", None, None), (200, b"c"))  # evicts a
        assert (cache.bytes, cache.evictions, len(cache)) == (half + 1, 1, 2)
        cache.put((1, "asn", "d", None, None), (200, b"d" * (bound + 1)))
        assert cache.get((1, "asn", "d", None, None)) is None
        assert (cache.bytes, len(cache)) == (half + 1, 2)
        cache.put((1, "asn", "e", 2, None), (200, {"x": b"eeee"}))
        assert cache.bytes == half + 5  # fields count their encoded values

    def test_distinct_large_listings_stay_under_the_byte_bound(
        self, manager, index, monkeypatch
    ):
        asn, rows = max(
            index.origin_rows().items(), key=lambda item: len(item[1])
        )
        assert len(rows) >= 3, "small world should repeat an origin"
        monkeypatch.setattr("repro.serve.http.CACHE_ENTRY_BYTES", 512)
        bound = 4 * 512
        with LeaseQueryServer(manager, cache_size=4) as small:
            for _ in range(2):
                for limit in range(1, len(rows) + 1):
                    status, payload = get(
                        small, f"/v1/asn/{asn}?limit={limit}"
                    )
                    assert status == 200
                    assert len(payload["answers"]) == limit
                    assert 0 < small.cache.bytes <= bound
            assert small.cache.evictions > 0
            assert get(small, "/v1/stats")[1]["cache"]["max_bytes"] == bound

    def test_lru_recency_order(self):
        cache = ResponseCache(2)
        cache.put((1, "/a"), (200, {"v": "a"}))
        cache.put((1, "/b"), (200, {"v": "b"}))
        assert cache.get((1, "/a")) is not None  # refresh /a
        cache.put((1, "/c"), (200, {"v": "c"}))  # evicts /b, not /a
        assert cache.get((1, "/a")) is not None
        assert cache.get((1, "/b")) is None


class TestCacheKeys:
    """Entries are keyed by endpoint and decoded query, never raw text."""

    @staticmethod
    def bulk_item(server, text):
        status, payload = request(
            server, "POST", "/v1/bulk", json.dumps({"prefixes": [text]})
        )
        assert status == 200
        (item,) = payload["results"]
        return item["status"], item["result"]

    def test_escaped_bulk_item_then_get(self, server, index):
        escaped = str(index.prefixes()[0]).replace("/", "%2F")
        assert self.bulk_item(server, escaped)[0] == 400
        status, payload = get(server, f"/v1/prefix/{escaped}")
        assert status == 200
        assert payload["matched_prefix"] == str(index.prefixes()[0])

    def test_get_then_escaped_bulk_item(self, server, index):
        escaped = str(index.prefixes()[0]).replace("/", "%2F")
        assert get(server, f"/v1/prefix/{escaped}")[0] == 200
        status, result = self.bulk_item(server, escaped)
        assert status == 400
        assert "bad prefix" in result["error"]

    def test_escaped_and_plain_get_share_one_entry(self, server, index):
        prefix = str(index.prefixes()[0])
        get(server, f"/v1/prefix/{prefix}")
        assert get(server, "/v1/prefix/" + prefix.replace("/", "%2F")) == (
            get(server, f"/v1/prefix/{prefix}")
        )
        assert len(server.cache) == 1

    def test_bulk_item_never_answers_history(self, server, index):
        target = f"{index.prefixes()[0]}/history"
        status, result = self.bulk_item(server, target)
        assert status == 400 and "bad prefix" in result["error"]
        status, payload = get(server, f"/v1/prefix/{target}")
        assert status == 400
        assert payload["error"] == "no temporal history mounted"

    def test_history_never_answers_a_bulk_item(self, server, index):
        target = f"{index.prefixes()[0]}/history"
        status, payload = get(server, f"/v1/prefix/{target}")
        assert payload["error"] == "no temporal history mounted"
        status, result = self.bulk_item(server, target)
        assert status == 400 and "bad prefix" in result["error"]


class TestHotReload:
    def test_swap_bumps_generation(self, server, manager, index):
        assert get(server, "/healthz")[1]["generation"] == 1
        assert manager.swap(index) == 2
        assert get(server, "/healthz")[1]["generation"] == 2

    def test_swap_invalidates_cached_answers(self, server, manager, index):
        path = f"/v1/prefix/{index.prefixes()[0]}"
        get(server, path)
        get(server, path)
        assert server.cache.hits == 1
        manager.swap(index)
        _, payload = get(server, path)
        assert payload["generation"] == 2
        assert server.cache.hits == 1  # old generation's entry not reused

    def test_inflight_request_survives_swap(self, server, manager, index):
        """A request that captured generation 1 finishes on generation 1
        even when the swap lands while it is being served."""
        server._snapshot_hold_s = 0.3
        results = {}

        def slow_request():
            results["health"] = get(server, "/healthz")

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.1)  # let the request capture its snapshot
        manager.swap(index)
        worker.join(timeout=10)
        server._snapshot_hold_s = 0.0
        status, payload = results["health"]
        assert status == 200
        assert payload["generation"] == 1
        assert get(server, "/healthz")[1]["generation"] == 2

    def test_empty_manager_is_a_500_not_a_hang(self):
        with LeaseQueryServer(SnapshotManager()) as empty:
            status, payload = get(empty, "/healthz")
            assert status == 500
            assert "internal" in payload["error"]

    def test_snapshot_raises_before_first_swap(self):
        with pytest.raises(RuntimeError):
            SnapshotManager().snapshot()


class TestRunAsync:
    def test_serves_in_callers_loop_until_cancelled(self, manager):
        async def scenario():
            srv = LeaseQueryServer(manager)
            task = asyncio.create_task(srv.run_async())
            await asyncio.sleep(0.05)
            host, port = srv.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            reply = await reader.read(-1)
            writer.close()
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return reply

        reply = asyncio.run(scenario())
        assert reply.startswith(b"HTTP/1.1 200")


class TestProtocol:
    def test_keep_alive_reuses_connection(self, server, index):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_malformed_request_line(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"WHAT\r\n\r\n")
            reply = sock.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 400")
        assert "Connection: close" in reply

    def test_oversized_body_rejected(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/bulk HTTP/1.1\r\n"
                b"Content-Length: 2000000\r\n\r\n"
            )
            reply = sock.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 413")

    def test_non_ascii_content_length_reads_as_non_numeric(self, server):
        host, port = server.address
        replies = []
        for length in (b"x", b"\xb2"):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nContent-Length: " + length
                    + b"\r\nConnection: close\r\n\r\n"
                )
                replies.append(sock.recv(4096).decode("latin-1"))
        assert replies[0].startswith("HTTP/1.1 200")
        assert replies[1] == replies[0]

    def test_connection_close_honoured(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks).decode("latin-1")
        assert reply.startswith("HTTP/1.1 200")
        assert "Connection: close" in reply


def request_full(server, method, path, body=None, headers=None):
    """One round trip returning (status, payload, response headers)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if raw and content_type.startswith("application/json"):
            payload = json.loads(raw)
        else:
            payload = raw.decode("utf-8")
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def delta_setup():
    """A world whose pipeline context can mint delta generations."""
    from repro.core import IncrementalEngine
    from repro.simulation import simulate_update_bursts

    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    built = LeaseIndex.build(pipeline.context, result)
    engine = IncrementalEngine(pipeline.context)
    burst = simulate_update_bursts(world, 1, 24, 424242)[0]
    report = engine.apply(burst)
    assert report.changed, "seed 424242 must move at least one leaf"
    return pipeline.context, built, report.changed


class TestConditionalGet:
    """Every response names its generation; matching ETags skip bodies."""

    def test_etag_and_generation_headers(self, server):
        status, _, headers = request_full(server, "GET", "/healthz")
        assert status == 200
        assert headers["ETag"] == '"g1"'
        assert headers["X-Generation"] == "1"

    def test_if_none_match_returns_304(self, server):
        status, payload, headers = request_full(
            server, "GET", "/healthz", headers={"If-None-Match": '"g1"'}
        )
        assert status == 304
        assert payload == ""
        assert headers["ETag"] == '"g1"'
        assert headers["Content-Length"] == "0"

    def test_stale_etag_gets_a_full_response(self, server):
        status, payload, _ = request_full(
            server, "GET", "/healthz", headers={"If-None-Match": '"g0"'}
        )
        assert status == 200
        assert payload["generation"] == 1

    def test_missing_resource_never_conditional(self, server):
        status, _, _ = request_full(
            server,
            "GET",
            "/v1/prefix/240.0.0.0%2F24",
            headers={"If-None-Match": '"g1"'},
        )
        assert status == 404

    def test_post_never_conditional(self, server, index):
        prefixes = json.dumps({"prefixes": [str(index.prefixes()[0])]})
        status, _, _ = request_full(
            server,
            "POST",
            "/v1/bulk",
            body=prefixes,
            headers={"If-None-Match": '"g1"'},
        )
        assert status == 200

    def test_swap_moves_the_etag(self, server, manager, index):
        assert manager.swap(index) == 2
        status, _, headers = request_full(
            server, "GET", "/healthz", headers={"If-None-Match": '"g1"'}
        )
        assert status == 200
        assert headers["ETag"] == '"g2"'


class TestApplyUpdates:
    """Delta generations swap in without a full LeaseIndex rebuild."""

    def test_apply_updates_bumps_generation(self, manager, delta_setup):
        context, _built, changes = delta_setup
        generation = manager.apply_updates(
            lambda current: current.with_updates(context, changes)
        )
        assert generation == 2
        assert manager.snapshot()[0] == 2

    def test_apply_updates_requires_a_snapshot(self, delta_setup):
        context, _built, changes = delta_setup
        with pytest.raises(RuntimeError):
            SnapshotManager().apply_updates(
                lambda current: current.with_updates(context, changes)
            )

    def test_served_answers_flip_to_the_delta(self, delta_setup):
        context, built, changes = delta_setup
        manager = SnapshotManager(built)
        with LeaseQueryServer(manager) as server:
            moved = changes[0]
            path = "/v1/prefix/" + str(moved.prefix).replace("/", "%2F")
            status, before, headers = request_full(server, "GET", path)
            assert status == 200
            assert headers["X-Generation"] == "1"
            manager.apply_updates(
                lambda current: current.with_updates(context, changes)
            )
            status, after, headers = request_full(server, "GET", path)
            assert status == 200
            assert headers["X-Generation"] == "2"
            assert after["answer"]["category_code"] == moved.category.name
            assert (
                after["answer"]["evidence"]["leaf_origins"]
                == sorted(moved.leaf_origins)
            )
            assert before["answer"] != after["answer"]

    def test_concurrent_applies_serialize_and_chain(
        self, delta_setup
    ):
        """N racing delta applies: strictly increasing generations, and
        each updater receives its predecessor's output index."""
        context, built, _changes = delta_setup
        manager = SnapshotManager(built)
        seen = []
        generations = []
        lock = threading.Lock()

        def apply_one():
            def updater(current):
                produced = current.with_updates(context, [])
                with lock:
                    seen.append((id(current), id(produced)))
                return produced

            generations.append(manager.apply_updates(updater))

        workers = [
            threading.Thread(target=apply_one) for _ in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert sorted(generations) == list(range(2, 10))
        chain = [id(built)]
        for received, produced in seen:
            assert received == chain[-1]
            chain.append(produced)
        assert manager.generation == 9

    def test_inflight_read_survives_delta_apply(self, delta_setup):
        context, built, changes = delta_setup
        manager = SnapshotManager(built)
        with LeaseQueryServer(manager) as server:
            server._snapshot_hold_s = 0.3
            results = {}

            def slow_request():
                results["health"] = request_full(server, "GET", "/healthz")

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.1)  # let the request capture its snapshot
            manager.apply_updates(
                lambda current: current.with_updates(context, changes)
            )
            worker.join(timeout=10)
            server._snapshot_hold_s = 0.0
            status, payload, headers = results["health"]
            assert status == 200
            assert payload["generation"] == 1
            assert headers["X-Generation"] == "1"
            status, payload, headers = request_full(
                server, "GET", "/healthz"
            )
            assert payload["generation"] == 2
            assert headers["ETag"] == '"g2"'


class TestWritePath:
    """The churn write path against concurrent ``/v1/prefix`` readers.

    One thread applies bursts the way the benchmark host's churn does
    (``IncrementalEngine.apply``, then ``apply_updates`` with
    ``with_updates``) while readers resolve prefixes over keep-alive
    connections.  Generation ``g + 1`` holds the rows after ``g``
    bursts, so every body must equal what a from-scratch index of those
    rows renders for generation ``g + 1``, and no reader may see its
    generation go back.
    """

    BURSTS = 10
    READERS = 3

    def test_readers_see_whole_generations_in_order(self):
        from repro.core import IncrementalEngine
        from repro.core.leaseindex import encode_object, encode_value
        from repro.simulation import simulate_update_bursts

        world = build_world(small_world())
        pipeline = LeaseInferencePipeline(
            world.whois, world.routing_table, world.relationships,
            world.as2org,
        )
        result = pipeline.run()
        context = pipeline.context
        bursts = simulate_update_bursts(world, self.BURSTS, 24, 515151)
        oracle = {1: LeaseIndex.build(context, result)}
        replay = IncrementalEngine(context)
        moved = set()
        for generation, burst in enumerate(bursts, start=2):
            moved.update(row.prefix for row in replay.apply(burst).changed)
            oracle[generation] = LeaseIndex.build(context, replay.result())
        assert moved, "seed 515151 must move at least one leaf"
        stable = [p for p in oracle[1].prefixes() if p not in moved][:8]
        paths = [
            "/v1/prefix/" + str(prefix).replace("/", "%2F")
            for prefix in sorted(moved) + stable
        ]

        manager = SnapshotManager(oracle[1])
        engine = IncrementalEngine(context)
        written = threading.Event()
        seen = [[] for _ in range(self.READERS)]

        def write():
            for burst in bursts:
                changes = engine.apply(burst).changed
                manager.apply_updates(
                    lambda current: current.with_updates(context, changes)
                )
                time.sleep(0.02)
            written.set()

        def read(log):
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                last_pass = False
                while not last_pass:
                    last_pass = written.is_set()
                    for path in paths:
                        conn.request("GET", path)
                        response = conn.getresponse()
                        log.append((
                            int(response.getheader("X-Generation")),
                            path,
                            response.status,
                            response.read(),
                        ))
            finally:
                conn.close()

        with LeaseQueryServer(manager) as server:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read, args=(log,)) for log in seen
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)

        final = self.BURSTS + 1
        assert manager.generation == final
        for log in seen:
            generations = [generation for generation, _, _, _ in log]
            assert generations == sorted(generations)
            assert generations[-1] == final
            for generation, path, status, body in log:
                text = path[len("/v1/prefix/"):].replace("%2F", "/")
                fields = oracle[generation].resolve(Prefix.parse(text))
                assert status == 200
                fields["generation"] = encode_value(generation)
                assert body == encode_object(fields), (generation, path)


class TestCli:
    def test_serve_command_wires_snapshot(self, monkeypatch, capsys):
        seen = {}

        def fake_serve_forever(server, index, label):
            seen["generation"] = server.manager.generation
            seen["leaves"] = len(index)
            seen["label"] = label
            return 0

        monkeypatch.setattr(cli, "_serve_forever", fake_serve_forever)
        assert main(["serve", "--small", "--port", "0"]) == 0
        assert seen["generation"] == 1
        assert seen["leaves"] > 0
        assert seen["label"] == "small world"


class TestImports:
    def test_serve_pulls_in_no_benchmark_code(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, repro.serve; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "'repro.bench')))"
        )
        process = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert process.returncode == 0, process.stderr
        assert process.stdout.strip() == "[]"

