"""The streaming differential harness: incremental == from-scratch.

The incremental engine's one contract is that after **every** burst its
rows are bit-identical to a full ``pipeline.run()`` on the identically
mutated routing table.  This harness proves it three ways:

* hypothesis drives the seeded stream simulator over the small and
  medium bench worlds (hundreds of generated bursts per run);
* a second strategy builds *adversarial* interleavings directly —
  withdraws of absent prefixes, duplicate announces, re-announces from
  fresh origins, covering supernets appearing and vanishing — shapes
  the simulator (which keeps its feeds state-consistent) never emits;
* committed replay logs pin every shrunk regression feed.

A single update also reclassifies only the leaves keyed by its prefix
or rooted at or under it, never the whole world: the property behind
the incremental path's latency, checked without timing anything.

Failures are actionable: every assertion message carries the feed as
:class:`ReplayLog` JSON, ready to commit under
``tests/fixtures/stream/replays/`` as a shrunk regression case — and a
final test replays everything already committed there.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import ASPath
from repro.bgp.history import AnnounceUpdate, WithdrawUpdate
from repro.bgp.updates import SequencedUpdate
from repro.core import (
    IncrementalEngine,
    LeaseInferencePipeline,
    clone_routing_table,
    replay_into_table,
    result_digest,
)
from repro.simulation import (
    bench_world,
    build_world,
    bursts_from_replay,
    render_replay_log,
    simulate_update_bursts,
)

REPLAYS = Path(__file__).parent / "fixtures" / "stream" / "replays"

WORLD_SEED = 20240401
TIMESTAMP = 1712102400


@pytest.fixture(scope="module")
def small():
    return build_world(bench_world("small", seed=WORLD_SEED))


@pytest.fixture(scope="module")
def medium():
    return build_world(bench_world("medium", seed=WORLD_SEED))


def make_context(world):
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    pipeline.run()
    return pipeline.context


@pytest.fixture(scope="module")
def small_context(small):
    return make_context(small)


@pytest.fixture(scope="module")
def medium_context(medium):
    return make_context(medium)


def assert_differential(world, context, feed, size):
    """Apply *feed* burst by burst, checking the digest after each."""
    engine = IncrementalEngine(context)
    mutated = clone_routing_table(world.routing_table)
    for index, burst in enumerate(feed):
        engine.apply(burst)
        replay_into_table(mutated, burst)
        scratch_pipeline = LeaseInferencePipeline(
            world.whois, mutated, world.relationships, world.as2org
        )
        scratch = scratch_pipeline.run()
        assert engine.digest() == result_digest(scratch), (
            f"diverged after burst {index}; commit this under "
            f"tests/fixtures/stream/replays/ to pin it:\n"
            f"{render_replay_log(size, WORLD_SEED, list(feed))}"
        )


class TestGeneratedFeeds:
    """The stream simulator's state-consistent churn, seeded broadly."""

    @given(
        stream_seed=st.integers(min_value=0, max_value=2**32 - 1),
        bursts=st.integers(min_value=2, max_value=5),
        burst_size=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_world_bit_identical(
        self, small, small_context, stream_seed, bursts, burst_size
    ):
        feed = simulate_update_bursts(small, bursts, burst_size, stream_seed)
        assert_differential(small, small_context, feed, "small")

    @given(
        stream_seed=st.integers(min_value=0, max_value=2**32 - 1),
        bursts=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_medium_world_bit_identical(
        self, medium, medium_context, stream_seed, bursts
    ):
        feed = simulate_update_bursts(medium, bursts, 32, stream_seed)
        assert_differential(medium, medium_context, feed, "medium")


class TestSingleUpdate:
    """One update reclassifies only the leaves its prefix can reach."""

    @given(stream_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reclassifies_only_leaves_at_or_under_the_prefix(
        self, small, small_context, stream_seed
    ):
        burst = simulate_update_bursts(small, 1, 1, stream_seed)[0]
        assert len(burst) == 1
        prefix = burst[0].update.prefix
        report = IncrementalEngine(small_context).apply(burst)
        leaves = [
            leaf
            for rir in small_context.rirs
            for leaf in small_context.leaves(rir)
        ]
        keyed = sum(1 for leaf in leaves if leaf.prefix == prefix)
        rooted = sum(
            1
            for leaf in leaves
            if leaf.root_prefix is not None
            and prefix.contains(leaf.root_prefix)
        )
        assert report.reclassified <= keyed + rooted
        assert keyed + rooted < small_context.total_leaves()


@st.composite
def interleaved_feed(draw, prefixes, origins, peer):
    """Random announce/withdraw/re-announce interleavings.

    Draws compact integers only (so hypothesis shrinks failing feeds
    well) and deliberately allows inconsistent shapes: withdrawing an
    absent prefix, duplicating a live announce, re-announcing from a
    fresh origin, announcing a covering supernet that was never routed.
    """
    sequence = 0
    feed = []
    for _burst in range(draw(st.integers(min_value=1, max_value=4))):
        burst = []
        for _op in range(draw(st.integers(min_value=1, max_value=10))):
            prefix = prefixes[
                draw(st.integers(min_value=0, max_value=len(prefixes) - 1))
            ]
            sequence += 1
            if draw(st.booleans()):
                origin = origins[
                    draw(
                        st.integers(min_value=0, max_value=len(origins) - 1)
                    )
                ]
                update = AnnounceUpdate(
                    timestamp=TIMESTAMP,
                    prefix=prefix,
                    path=ASPath.of(peer, origin),
                )
            else:
                update = WithdrawUpdate(timestamp=TIMESTAMP, prefix=prefix)
            burst.append(
                SequencedUpdate(sequence=sequence, update=update)
            )
        feed.append(burst)
    return feed


class TestInterleavedBursts:
    """Adversarial interleavings the simulator would never emit."""

    @pytest.fixture(scope="class")
    def pools(self, small):
        routed = sorted(small.routing_table.exact_index())
        prefixes = routed[:32]
        # Covering supernets and never-routed siblings widen the attack
        # surface to exposure/occlusion churn.
        prefixes += [
            prefix.supernet(prefix.length - 2)
            for prefix in routed[:8]
            if prefix.length >= 18
        ]
        origins = sorted(small.routing_table.origins())[:24]
        origins.append(64999)  # an origin the world has never seen
        return prefixes, origins, small.collector_peers[0]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_small_world_bit_identical(
        self, small, small_context, pools, data
    ):
        prefixes, origins, peer = pools
        feed = data.draw(interleaved_feed(prefixes, origins, peer))
        assert_differential(small, small_context, feed, "small")


class TestCommittedReplays:
    """Every fixture under replays/ is a pinned regression feed."""

    def test_replay_fixtures_exist(self):
        assert sorted(REPLAYS.glob("*.json")), (
            "no committed replay fixtures under "
            "tests/fixtures/stream/replays"
        )

    @pytest.mark.parametrize(
        "path", sorted(REPLAYS.glob("*.json")), ids=lambda p: p.stem
    )
    def test_replay_bit_identical(self, path, request):
        size, seed, feed = bursts_from_replay(path.read_text())
        assert seed == WORLD_SEED, (
            "replay fixtures must target the shared bench world seed"
        )
        world = request.getfixturevalue(size)
        context = request.getfixturevalue(f"{size}_context")
        assert_differential(world, context, feed, size)
