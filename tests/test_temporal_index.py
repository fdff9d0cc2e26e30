"""Tests for the delta-encoded temporal lease index."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import LeaseInferencePipeline
from repro.core.incremental import clone_routing_table, replay_into_table
from repro.net import Prefix
from repro.serve import LeaseIndex
from repro.simulation import build_world, evolve_world, small_world
from repro.temporal import (
    EpochSkipList,
    TemporalLeaseIndex,
    build_temporal_product,
    index_encoded_bytes,
)

EPOCHS = 5
CHECKPOINT_INTERVAL = 2
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
    product, base, _reports = build_temporal_product(
        pipeline.context, result, evolution, CHECKPOINT_INTERVAL
    )
    return world, pipeline, product, evolution, base


def _image(index):
    """Everything the query surface can answer, as comparable data."""
    return (
        {str(prefix): index.exact(prefix) for prefix in index.prefixes()},
        index.origin_rows(),
        index.category_tallies(),
        index.leased_count,
    )


class TestEpochSkipList:
    def test_locate_bisects_the_rail(self):
        rail = EpochSkipList([100, 200, 300], interval=8)
        assert rail.locate(99) is None
        assert rail.locate(100) == 0
        assert rail.locate(199) == 0
        assert rail.locate(200) == 1
        assert rail.locate(250) == 1
        assert rail.locate(300) == 2
        assert rail.locate(10**9) == 2

    def test_checkpoint_below(self):
        rail = EpochSkipList(list(range(0, 100, 10)), interval=4)
        assert rail.checkpoint_below(0) == 0
        assert rail.checkpoint_below(3) == 0
        assert rail.checkpoint_below(4) == 4
        assert rail.checkpoint_below(7) == 4
        assert rail.checkpoint_below(8) == 8

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            EpochSkipList([1, 2], interval=0)

    def test_rejects_non_increasing_timestamps(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EpochSkipList([100, 100], interval=1)
        with pytest.raises(ValueError, match="strictly increasing"):
            EpochSkipList([200, 100], interval=1)


class TestResolution:
    def test_shape(self, setup):
        _, _, product, evolution, _ = setup
        index = product.index
        assert index.epochs == EPOCHS
        assert len(index) == EPOCHS + 1
        assert index.timestamps() == [
            evolution.base_timestamp,
            *evolution.epoch_timestamps,
        ]

    def test_epoch_zero_is_the_base(self, setup):
        _, _, product, _, base = setup
        assert product.index.index_for_epoch(0) is base

    def test_locate_and_index_at(self, setup):
        _, _, product, evolution, _ = setup
        index = product.index
        assert index.locate(evolution.base_timestamp - 1) is None
        assert index.index_at(evolution.base_timestamp - 1) is None
        assert index.locate(evolution.base_timestamp) == 0
        for number, timestamp in enumerate(evolution.epoch_timestamps, 1):
            assert index.locate(timestamp) == number
            assert index.locate(timestamp + 1) == number
            located = index.index_at(timestamp)
            assert located is not None
            epoch, view = located
            assert epoch == number
            assert _image(view) == _image(index.index_for_epoch(number))

    def test_latest_is_newest_epoch(self, setup):
        _, _, product, _, _ = setup
        index = product.index
        assert _image(index.latest()) == _image(
            index.index_for_epoch(EPOCHS)
        )

    def test_epoch_bounds_rejected(self, setup):
        _, _, product, _, _ = setup
        index = product.index
        with pytest.raises(IndexError):
            index.index_for_epoch(-1)
        with pytest.raises(IndexError):
            index.index_for_epoch(EPOCHS + 1)
        with pytest.raises(IndexError):
            index.record(0)
        with pytest.raises(IndexError):
            index.record(EPOCHS + 1)
        assert index.record(1).timestamp == index.timestamps()[1]

    def test_view_cache_returns_same_object(self, setup):
        _, _, product, _, _ = setup
        index = product.index
        # Pick a non-checkpoint epoch: replayed once, then served hot.
        epoch = 1 if CHECKPOINT_INTERVAL > 1 else EPOCHS
        assert epoch % CHECKPOINT_INTERVAL != 0
        assert index.index_for_epoch(epoch) is index.index_for_epoch(epoch)


class TestDifferential:
    def test_every_epoch_matches_scratch_rebuild(self, setup):
        """Chain-depth check: N bursts, then every historical view must
        equal a from-scratch pipeline + index build on the same table."""
        world, _, product, evolution, _ = setup
        mutated = clone_routing_table(world.routing_table)
        for epoch in range(EPOCHS + 1):
            if epoch > 0:
                replay_into_table(
                    mutated, list(evolution.epoch_bursts[epoch - 1])
                )
            scratch_pipeline = LeaseInferencePipeline(
                world.whois, mutated, world.relationships, world.as2org
            )
            scratch_result = scratch_pipeline.run()
            scratch = LeaseIndex.build(
                scratch_pipeline.context, scratch_result
            )
            assert _image(scratch) == _image(
                product.index.index_for_epoch(epoch)
            ), f"epoch {epoch} diverged from scratch rebuild"

    def test_views_flatten_onto_the_original_base(self, setup):
        """Override chains never deepen: every historical view patches
        the epoch-0 base directly, no matter how many epochs passed."""
        _, _, product, _, base = setup
        for epoch in range(1, EPOCHS + 1):
            assert product.index.index_for_epoch(epoch).delta_base() is base


class TestEncoding:
    def test_delta_is_smaller_than_naive(self, setup):
        _, _, product, _, _ = setup
        index = product.index
        encoding = index.delta_encoded_bytes()
        assert encoding["epochs"] == EPOCHS
        record_bytes = encoding["record_bytes"]
        assert len(record_bytes) == EPOCHS
        assert encoding["records_total_bytes"] == sum(record_bytes)
        naive_total = sum(
            index_encoded_bytes(index.index_for_epoch(epoch))
            for epoch in range(EPOCHS + 1)
        )
        delta_total = (
            encoding["base_bytes"] + encoding["records_total_bytes"]
        )
        assert delta_total < naive_total

    def test_stats_payload(self, setup):
        _, _, product, evolution, base = setup
        stats = product.index.stats()
        assert stats["epochs"] == EPOCHS
        assert stats["first_timestamp"] == evolution.base_timestamp
        assert stats["last_timestamp"] == evolution.epoch_timestamps[-1]
        assert stats["checkpoint_interval"] == CHECKPOINT_INTERVAL
        assert stats["base_leaves"] == len(base)
        assert stats["changed_leaves_total"] >= EPOCHS


class TestBuildValidation:
    def test_rejects_unindexed_leaf(self, setup):
        _, pipeline, product, evolution, base = setup
        record = product.index.record(1)
        changed_prefix = next(iter(record.overrides))
        payload = base.exact(changed_prefix)
        assert payload is not None
        # Rebuild a change row naming a leaf the index never held.
        stray = Prefix.parse("203.0.113.0/24")
        assert base.exact(stray) is None
        template = _inference_for(pipeline, changed_prefix)
        bogus = dataclasses.replace(template, prefix=stray)
        with pytest.raises(KeyError, match="unindexed leaf"):
            TemporalLeaseIndex.build(
                pipeline.context,
                base,
                evolution.base_timestamp,
                [(evolution.base_timestamp + 1, [bogus])],
            )

    def test_rejects_mismatched_rail(self, setup):
        _, _, product, evolution, base = setup
        rail = EpochSkipList([evolution.base_timestamp], interval=2)
        with pytest.raises(ValueError, match="records"):
            TemporalLeaseIndex(
                base=base,
                skiplist=rail,
                records=[product.index.record(1)],
                checkpoints={},
            )


def _inference_for(pipeline, prefix):
    """One real LeafInference row for *prefix* from the pipeline run."""
    for inference in pipeline.run():
        if inference.prefix == prefix:
            return inference
    raise AssertionError(f"{prefix} not among inferred leaves")


def _digest(value):
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()
    ).hexdigest()


class TestFrozenDigests:
    """The product frozen for this seeded world is pinned by digest, so
    a change to the builder or its callers cannot drift it silently."""

    def test_every_epoch_view(self, setup):
        _, _, product, _, _ = setup
        views = []
        for epoch in range(product.index.epochs + 1):
            view = product.index.index_for_epoch(epoch)
            views.append((
                {str(p): view.exact(p) for p in view.prefixes()},
                {
                    str(asn): [str(p) for p in row]
                    for asn, row in view.origin_rows().items()
                },
                view.category_tallies(),
                view.leased_count,
            ))
        assert _digest(views) == (
            "de8e8d37d970bfbcea997f8169eca1a17ef0548db37e4d00c3a78a06f297bfca"
        )

    def test_product_stats(self, setup):
        _, _, product, _, _ = setup
        assert product.stats()["meta"] == {
            "evolution_seed": SEED,
            "epochs": EPOCHS,
            "targets": 75,
        }
        assert _digest(product.stats()) == (
            "3d3a696e8df3974d8d67616511d146c27986ddacdba653417173d4a8905d6f6b"
        )

