"""End-to-end tests for temporal serving and strict query validation."""

import http.client
import json

import pytest

from repro.core import LeaseInferencePipeline
from repro.core.leaseindex import MAX_LISTING
from repro.serve import LeaseIndex, LeaseQueryServer, SnapshotManager
from repro.simulation import build_world, evolve_world, small_world
from repro.temporal import build_temporal_product

EPOCHS = 4
SEED = 77


@pytest.fixture(scope="module")
def setup():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    index = LeaseIndex.build(pipeline.context, result)
    evolution = evolve_world(
        world, [i.prefix for i in result], epochs=EPOCHS, seed=SEED
    )
    product, _base, _reports = build_temporal_product(
        pipeline.context, result, evolution
    )
    return index, product, evolution


@pytest.fixture()
def server(setup):
    index, product, _ = setup
    with LeaseQueryServer(SnapshotManager(index), temporal=product) as srv:
        yield srv


@pytest.fixture()
def plain_server(setup):
    index, _, _ = setup
    with LeaseQueryServer(SnapshotManager(index)) as srv:
        yield srv


def request(server, method, path, headers=None):
    """One round trip; returns (status, decoded body, response headers)."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        received = dict(response.getheaders())
        if raw and response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response.status, json.loads(raw), received
        return response.status, raw.decode("utf-8"), received
    finally:
        conn.close()


def get(server, path, headers=None):
    return request(server, "GET", path, headers=headers)


def _leased_prefix(setup):
    """A prefix whose lease state churns during the evolution: the first
    leaf the epoch-1 view patches over the base."""
    _, product, _ = setup
    return next(iter(product.index.index_for_epoch(1)._delta_overrides()))


class TestPointInTime:
    def test_at_resolves_the_epoch(self, setup, server):
        _, product, evolution = setup
        prefix = _leased_prefix(setup)
        for number, timestamp in enumerate(evolution.epoch_timestamps, 1):
            status, payload, headers = get(
                server, f"/v1/prefix/{prefix}?at={timestamp}"
            )
            assert status == 200
            assert payload["epoch"] == number
            assert payload["at"] == timestamp
            assert headers["ETag"] == f'"g1@e{number}"'
            assert headers["X-Epoch"] == str(number)
            view = product.index.index_for_epoch(number)
            _, expected = view.resolve_text(str(prefix))
            assert payload["answer"] == json.loads(expected["answer"])
            assert payload["match"] == json.loads(expected["match"])

    def test_no_at_serves_the_live_index(self, setup, server):
        prefix = _leased_prefix(setup)
        status, payload, headers = get(server, f"/v1/prefix/{prefix}")
        assert status == 200
        assert "epoch" not in payload
        assert headers["ETag"] == '"g1"'
        assert "X-Epoch" not in headers

    def test_etag_revalidation_with_epoch(self, setup, server):
        _, _, evolution = setup
        prefix = _leased_prefix(setup)
        target = f"/v1/prefix/{prefix}?at={evolution.epoch_timestamps[0]}"
        _, _, headers = get(server, target)
        status, body, _ = get(
            server, target, headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304
        assert body == ""

    def test_timestamps_in_one_epoch_share_a_cache_entry(
        self, setup, server
    ):
        _, _, evolution = setup
        prefix = _leased_prefix(setup)
        first = evolution.epoch_timestamps[0]
        later = first + 1
        assert later < evolution.epoch_timestamps[1]
        _, early, _ = get(server, f"/v1/prefix/{prefix}?at={first}")
        _, late, headers = get(server, f"/v1/prefix/{prefix}?at={later}")
        assert (len(server.cache), server.cache.hits) == (1, 1)
        assert (early["at"], late["at"]) == (first, later)
        assert early["epoch"] == late["epoch"] == 1
        assert headers["ETag"] == '"g1@e1"'
        assert dict(early, at=later) == late

    def test_at_before_history_is_rejected(self, setup, server):
        _, _, evolution = setup
        prefix = _leased_prefix(setup)
        early = evolution.base_timestamp - 10
        status, payload, _ = get(server, f"/v1/prefix/{prefix}?at={early}")
        assert status == 400
        assert "precedes recorded history" in payload["error"]

    def test_asn_listing_accepts_at_and_limit(self, setup, server):
        index, _, evolution = setup
        asn = min(index.origin_rows())
        timestamp = evolution.epoch_timestamps[-1]
        status, payload, _ = get(
            server, f"/v1/asn/{asn}?at={timestamp}&limit=1"
        )
        # The ASN may have lost all leaves by then — 404 is legitimate;
        # anything else must be a truncated historical listing.
        assert status in (200, 404)
        if status == 200:
            assert payload["epoch"] == EPOCHS
            assert len(payload["answers"]) <= 1


class TestHistoryEndpoint:
    def test_history_matches_the_store(self, setup, server):
        _, product, _ = setup
        prefix = _leased_prefix(setup)
        status, payload, _ = get(server, f"/v1/prefix/{prefix}/history")
        assert status == 200
        expected = product.timelines.history_payload(prefix)
        assert expected is not None
        for key, value in expected.items():
            if key != "generation":
                assert payload[key] == value
        assert payload["generation"] == 1
        assert payload["lease_count"] >= 1

    def test_untracked_prefix_404(self, server):
        status, payload, _ = get(server, "/v1/prefix/203.0.113.0%2F24/history")
        assert status == 404
        assert "no timeline" in payload["error"]

    def test_bad_prefix_400(self, server):
        status, payload, _ = get(server, "/v1/prefix/not-a-prefix/history")
        assert status == 400
        assert "bad prefix" in payload["error"]

    def test_history_rejects_query_parameters(self, setup, server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(
            server, f"/v1/prefix/{prefix}/history?at=1"
        )
        assert status == 400
        assert "no query parameters" in payload["error"]


class TestChurnEndpoint:
    def test_global_churn(self, setup, server):
        _, product, _ = setup
        status, payload, _ = get(server, "/v1/churn")
        assert status == 200
        assert payload["prefixes"] == len(product.timelines)
        assert sorted(payload["rirs"]) == product.timelines.rirs()

    def test_rir_filter(self, setup, server):
        _, product, _ = setup
        name = product.timelines.rirs()[0]
        status, payload, _ = get(server, f"/v1/churn?rir={name.lower()}")
        assert status == 200
        assert payload["rir"] == name
        assert payload["prefixes"] >= 1

    def test_unknown_rir_404_lists_known(self, setup, server):
        _, product, _ = setup
        status, payload, _ = get(server, "/v1/churn?rir=ATLANTIS")
        assert status == 404
        assert payload["rirs"] == product.timelines.rirs()

    def test_empty_rir_400(self, server):
        status, payload, _ = get(server, "/v1/churn?rir=")
        assert status == 400
        assert "empty rir" in payload["error"]

    def test_unknown_parameter_400(self, server):
        status, payload, _ = get(server, "/v1/churn?region=eu")
        assert status == 400
        assert "unknown query parameter" in payload["error"]


class TestStrictValidation:
    """Every query-accepting endpoint rejects malformed parameters."""

    def test_unknown_parameter_per_endpoint(self, setup, server):
        prefix = _leased_prefix(setup)
        for target in (
            f"/v1/prefix/{prefix}?wat=1",
            "/v1/asn/64500?wat=1",
            "/v1/org/h1?wat=1",
        ):
            status, payload, _ = get(server, target)
            assert status == 400, target
            assert "unknown query parameter" in payload["error"]

    def test_duplicate_parameter(self, setup, server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(server, f"/v1/prefix/{prefix}?at=1&at=2")
        assert status == 400
        assert "duplicate query parameter" in payload["error"]

    def test_non_integer_at(self, setup, server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(server, f"/v1/prefix/{prefix}?at=abc")
        assert status == 400
        assert "must be an integer" in payload["error"]

    def test_negative_at(self, setup, server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(server, f"/v1/prefix/{prefix}?at=-5")
        assert status == 400
        assert "non-negative" in payload["error"]

    def test_limit_bounds(self, server):
        for bad in (0, MAX_LISTING + 1):
            status, payload, _ = get(server, f"/v1/asn/64500?limit={bad}")
            assert status == 400, bad
            assert "limit must be between" in payload["error"]
        status, payload, _ = get(server, "/v1/org/h1?limit=ten")
        assert status == 400
        assert "must be an integer" in payload["error"]

    def test_prefix_rejects_limit(self, setup, server):
        # limit is a listing concept; the single-answer endpoint
        # refuses it instead of ignoring it.
        prefix = _leased_prefix(setup)
        status, payload, _ = get(server, f"/v1/prefix/{prefix}?limit=5")
        assert status == 400
        assert "unknown query parameter" in payload["error"]

    def test_bulk_rejects_query(self, server):
        status, payload, _ = request(server, "POST", "/v1/bulk?at=1")
        assert status == 400
        assert "no query parameters" in payload["error"]


class TestWithoutTemporal:
    def test_at_unavailable(self, setup, plain_server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(plain_server, f"/v1/prefix/{prefix}?at=1")
        assert status == 400
        assert "no temporal history mounted" in payload["error"]

    def test_history_unavailable(self, setup, plain_server):
        prefix = _leased_prefix(setup)
        status, payload, _ = get(
            plain_server, f"/v1/prefix/{prefix}/history"
        )
        assert status == 400
        assert "no temporal history mounted" in payload["error"]

    def test_churn_unavailable(self, plain_server):
        status, payload, _ = get(plain_server, "/v1/churn")
        assert status == 400
        assert "no temporal history mounted" in payload["error"]

    def test_stats_and_metrics_omit_temporal(self, plain_server):
        status, payload, _ = get(plain_server, "/v1/stats")
        assert status == 200
        assert "temporal" not in payload
        status, text, _ = get(plain_server, "/metrics")
        assert status == 200
        assert "repro_serve_temporal_epochs" not in text


class TestObservability:
    def test_stats_expose_temporal(self, setup, server):
        _, product, _ = setup
        status, payload, _ = get(server, "/v1/stats")
        assert status == 200
        assert payload["temporal"]["epochs"] == EPOCHS
        assert (
            payload["temporal"]["timeline_prefixes"]
            == len(product.timelines)
        )

    def test_metrics_expose_temporal(self, server):
        status, text, _ = get(server, "/metrics")
        assert status == 200
        assert f"repro_serve_temporal_epochs {EPOCHS}" in text
