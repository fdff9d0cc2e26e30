"""Four roads to one historical answer.

For a seeded lease evolution over the small world, every epoch ``e``
must give the same answer for every leaf along four independent paths:

1. the temporal index's view, ``product.index.index_for_epoch(e)``;
2. a fresh :class:`IncrementalEngine` that replays the first ``e``
   bursts, indexed with :meth:`LeaseIndex.build`;
3. a from-scratch pipeline over the routing table with those bursts
   replayed into it;
4. the served ``/v1/prefix/{p}?at={ts_e}`` body, for the leaves that
   changed at ``e``.
"""

import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalEngine, LeaseInferencePipeline
from repro.core.incremental import clone_routing_table, replay_into_table
from repro.serve import LeaseIndex, LeaseQueryServer, SnapshotManager
from repro.simulation import build_world, evolve_world, small_world
from repro.temporal import build_temporal_product

EPOCHS = 4


@pytest.fixture(scope="module")
def world_state():
    world = build_world(small_world())
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    result = pipeline.run()
    return world, pipeline.context, result


def _answers(index):
    """Every leaf's answer plus the inverted state a listing reads."""
    return (
        {prefix: index.exact(prefix) for prefix in index.prefixes()},
        index.origin_rows(),
        index.category_tallies(),
        index.leased_count,
    )


def _served(server, path):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_four_roads_agree_at_every_epoch(world_state, seed):
    world, context, result = world_state
    evolution = evolve_world(
        world, [i.prefix for i in result], epochs=EPOCHS, seed=seed
    )
    product, base, reports = build_temporal_product(
        context, result, evolution
    )
    timestamps = product.index.timestamps()
    engine = IncrementalEngine(context)
    table = clone_routing_table(world.routing_table)
    with LeaseQueryServer(SnapshotManager(base), temporal=product) as server:
        for epoch in range(EPOCHS + 1):
            if epoch:
                burst = list(evolution.epoch_bursts[epoch - 1])
                engine.apply(burst)
                replay_into_table(table, burst)
            scratch_pipeline = LeaseInferencePipeline(
                world.whois, table, world.relationships, world.as2org
            )
            scratch_result = scratch_pipeline.run()
            scratch = LeaseIndex.build(scratch_pipeline.context, scratch_result)
            temporal = _answers(product.index.index_for_epoch(epoch))
            replayed = _answers(LeaseIndex.build(context, engine.result()))
            assert temporal == replayed, f"seed {seed} epoch {epoch}"
            assert temporal == _answers(scratch), f"seed {seed} epoch {epoch}"

            changed = reports[epoch - 1].changed if epoch else ()
            for prefix in (inference.prefix for inference in changed):
                status, body = _served(
                    server, f"/v1/prefix/{prefix}?at={timestamps[epoch]}"
                )
                assert status == 200
                assert body.pop("at") == timestamps[epoch]
                assert body.pop("epoch") == epoch
                expected = {
                    name: json.loads(value)
                    for name, value in scratch.resolve(prefix).items()
                }
                assert body == dict(expected, generation=1), prefix
