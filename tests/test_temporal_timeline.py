"""Tests for the timeline store and the update-feed history replay."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.history import UpdateStream
from repro.core import LeaseInferencePipeline
from repro.core.timeline import BgpOriginHistory
from repro.net import Prefix
from repro.simulation import build_world, evolve_world, small_world
from repro.temporal import (
    TimelineStore,
    build_temporal_product,
    histories_from_updates,
)

EPOCHS = 5
SEED = 77


@pytest.fixture(scope="module")
def setup():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    evolution = evolve_world(
        world, [i.prefix for i in result], epochs=EPOCHS, seed=SEED
    )
    product, _base, _reports = build_temporal_product(
        pipeline.context, result, evolution
    )
    return product, evolution


class TestHistoriesFromUpdates:
    def test_matches_per_prefix_stream_replay(self, setup):
        """The single-pass multi-prefix replay must agree, prefix by
        prefix, with UpdateStream.origin_history's reference replay."""
        _, evolution = setup
        flat = [item.update for item in evolution.all_updates()]
        stream = UpdateStream(flat)
        histories = histories_from_updates(evolution.all_updates())
        assert set(histories) == {update.prefix for update in flat}
        for prefix, history in histories.items():
            reference = stream.origin_history(prefix)
            assert history.history() == reference.history()

    def test_accepts_raw_updates(self, setup):
        _, evolution = setup
        sequenced = histories_from_updates(evolution.all_updates())
        raw = histories_from_updates(
            item.update for item in evolution.all_updates()
        )
        assert {p: h.history() for p, h in raw.items()} == {
            p: h.history() for p, h in sequenced.items()
        }


class TestGroundTruth:
    def test_timelines_reproduce_the_schedule(self, setup):
        product, evolution = setup
        for prefix, entries in evolution.schedule.items():
            payload = product.timelines.history_payload(prefix)
            assert payload is not None
            want_leases = sum(
                1 for _, holder in entries if holder is not None
            )
            want_gaps = sum(1 for _, holder in entries if holder is None)
            want_lessees = sorted(
                {holder for _, holder in entries if holder is not None}
            )
            assert payload["lease_count"] == want_leases
            assert payload["as0_gaps"] == want_gaps
            assert payload["distinct_lessees"] == want_lessees

    def test_period_kinds_are_wellformed(self, setup):
        product, _ = setup
        for prefix in product.timelines.prefixes():
            payload = product.timelines.history_payload(prefix)
            assert payload is not None
            periods = payload["periods"]
            assert periods, f"{prefix} has an empty timeline"
            for period in periods:
                assert period["kind"] in TimelineStore.KINDS
            for before, after in zip(periods, periods[1:]):
                assert before["end"] == after["start"]

    def test_untracked_prefix_returns_none(self, setup):
        product, _ = setup
        stray = Prefix.parse("203.0.113.0/24")
        assert product.timelines.timeline(stray) is None
        assert product.timelines.history_payload(stray) is None


def _digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()
    ).hexdigest()


class TestFrozenDigests:
    """The timelines frozen for this seeded world are pinned by digest,
    so a change to the builder or its callers cannot drift them."""

    def test_history_payloads(self, setup):
        product, _ = setup
        store = product.timelines
        payloads = {str(p): store.history_payload(p) for p in store.prefixes()}
        assert _digest(payloads) == (
            "2a19bcec66e6fd22d1b51da66fa23054f84b805129deb74d5af4248ab2935680"
        )

    def test_churn_payload(self, setup):
        product, _ = setup
        assert _digest(product.timelines.churn_payload()) == (
            "da3ca688cacd6e3f166b3d5769baea7ff4956a2b64d9932f3d764652598b92bf"
        )


class TestChurn:
    def test_global_tallies_sum_per_rir(self, setup):
        product, _ = setup
        combined = product.timelines.churn_payload()
        assert combined is not None
        assert combined["prefixes"] == len(product.timelines)
        buckets = combined["rirs"]
        assert sorted(buckets) == product.timelines.rirs()
        assert (
            sum(entry["prefixes"] for entry in buckets.values())
            == combined["prefixes"]
        )

    def test_rir_lookup_is_case_insensitive(self, setup):
        product, _ = setup
        name = product.timelines.rirs()[0]
        upper = product.timelines.churn_payload(name)
        lower = product.timelines.churn_payload(f"  {name.lower()} ")
        assert upper is not None
        assert upper == lower
        assert upper["rir"] == name

    def test_unknown_rir_returns_none(self, setup):
        product, _ = setup
        assert product.timelines.churn_payload("ATLANTIS") is None

    def test_rir_bucket_agrees_with_history_payloads(self, setup):
        product, _ = setup
        name = product.timelines.rirs()[0]
        bucket = product.timelines.churn_payload(name)
        assert bucket is not None
        leases = gaps = members = 0
        for prefix in product.timelines.prefixes():
            payload = product.timelines.history_payload(prefix)
            assert payload is not None
            if payload["rir"] != name:
                continue
            members += 1
            leases += payload["lease_count"]
            gaps += payload["as0_gaps"]
        assert bucket["prefixes"] == members
        assert bucket["lease_periods"] == leases
        assert bucket["as0_gaps"] == gaps


observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.frozensets(
            st.integers(min_value=1, max_value=9), max_size=3
        ),
    ),
    max_size=25,
)


class TestOriginsAtProperty:
    @settings(max_examples=200, deadline=None)
    @given(rows=observations, probe=st.integers(min_value=-10, max_value=5010))
    def test_origins_at_equals_change_point_replay(self, rows, probe):
        """origins_at(t) must equal replaying change_points up to t."""
        history = BgpOriginHistory()
        for timestamp, origins in rows:
            history.add_observation(timestamp, origins)
        replayed = frozenset()
        for timestamp, origins in history.change_points():
            if timestamp > probe:
                break
            replayed = origins
        assert history.origins_at(probe) == replayed
