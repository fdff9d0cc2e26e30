"""Tests for the temporal lease index."""

import dataclasses
import hashlib
import json

import pytest

from repro.core import LeaseInferencePipeline
from repro.core.incremental import clone_routing_table, replay_into_table
from repro.net import Prefix
from repro.serve import LeaseIndex
from repro.simulation import build_world, evolve_world, small_world
from repro.temporal import TemporalLeaseIndex, build_temporal_product

EPOCHS = 5
SEED = 77


@pytest.fixture(scope="module")
def built():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    evolution = evolve_world(
        world, [i.prefix for i in result], epochs=EPOCHS, seed=SEED
    )
    product, base, reports = build_temporal_product(
        pipeline.context, result, evolution
    )
    return world, pipeline, product, evolution, base, reports


@pytest.fixture(scope="module")
def setup(built):
    return built[:5]


def _image(index):
    """Everything the query surface can answer, as comparable data."""
    return (
        {str(prefix): index.exact(prefix) for prefix in index.prefixes()},
        index.origin_rows(),
        index.category_tallies(),
        index.leased_count,
    )


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

    def test_locate_bisects_the_timestamps(self, setup):
        _, pipeline, _, _, base = setup
        index = TemporalLeaseIndex.build(
            pipeline.context, base, 100, [(200, []), (300, [])]
        )
        assert index.locate(99) is None
        assert index.locate(100) == 0
        assert index.locate(199) == 0
        assert index.locate(200) == 1
        assert index.locate(250) == 1
        assert index.locate(300) == 2
        assert index.locate(10**9) == 2

    def test_view_cache_returns_same_object(self, setup):
        """Each epoch's view is built once and held, so repeated queries
        return the same object and allocate nothing."""
        index = setup[2].index
        for epoch in range(EPOCHS + 1):
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
            assert product.index.index_for_epoch(epoch)._delta_base() is base


class TestBuildValidation:
    def test_rejects_unindexed_leaf(self, built):
        _, pipeline, _, evolution, base, reports = built
        changed_prefix = reports[0].changed[0].prefix
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

    def test_rejects_non_increasing_timestamps(self, setup):
        _, pipeline, _, evolution, base = setup
        start = evolution.base_timestamp
        for later in (start, start - 1):
            with pytest.raises(ValueError, match="strictly increasing"):
                TemporalLeaseIndex.build(
                    pipeline.context, base, start, [(later, [])]
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
            "126f7016c23d35e2cd3f24b4407021164598767c9bbfa51620b5340d1fe3c754"
        )

