"""Property tests: the fast engine is indistinguishable from the reference.

Hypothesis draws world seeds; for every draw the fast engine
(``run()``) must equal the frozen reference engine (``run_reference()``)
bit for bit — same prefixes in the same order, same category (and
therefore the same paper group and label) per leaf, the same origin
sets, and the same per-RIR ``stats()`` counters.  The fixed-world
equivalence tests pin one world; this oracle covers random ones.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LeaseInferencePipeline, clone_routing_table
from repro.simulation import build_world, small_world

_WORLD_CACHE = {}


def _world(seed):
    if seed not in _WORLD_CACHE:
        _WORLD_CACHE[seed] = build_world(small_world(seed=seed))
    return _WORLD_CACHE[seed]


def _pipeline(world):
    return LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )


def _observable(result):
    """Everything a consumer can see, in iteration order."""
    return [
        (
            inference.rir.name,
            inference.prefix.network,
            inference.prefix.length,
            inference.category.name,
            inference.category.group,
            inference.category.label,
            inference.leaf_origins,
            inference.root_origins,
            inference.root_assigned_asns,
        )
        for inference in result
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_fast_equals_reference_on_random_worlds(seed):
    world = _world(seed)
    pipeline = _pipeline(world)

    reference = pipeline.run_reference()
    reference_stats = pipeline.stats()

    fast = pipeline.run()
    fast_stats = pipeline.stats()

    assert _observable(fast) == _observable(reference)
    assert fast == reference
    assert fast_stats == reference_stats


def _covering_only_table(world, result, stride):
    """A copy of the world's table in which every *stride*-th classified
    root loses its exact announcement and gains a one-bit-shorter
    covering one from the same origins (§5.1 covering root lookup)."""
    table = clone_routing_table(world.routing_table)
    roots = sorted(
        {
            inference.root_prefix
            for inference in result
            if inference.root_prefix is not None
            and table.exact_origins(inference.root_prefix)
        }
    )
    moved = roots[::stride]
    for root in moved:
        origins = table.exact_origins(root)
        table.withdraw(root)
        for origin in sorted(origins):
            table.add_route(root.supernet(), origin)
    return table, moved


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    stride=st.integers(min_value=1, max_value=3),
)
def test_fast_equals_reference_when_roots_are_only_covered(seed, stride):
    world = _world(seed)
    table, moved = _covering_only_table(world, _pipeline(world).run(), stride)
    assert moved
    pipeline = LeaseInferencePipeline(
        world.whois, table, world.relationships, world.as2org
    )
    reference = pipeline.run_reference()
    fast = pipeline.run()
    assert _observable(fast) == _observable(reference)
    covered_only = [
        inference
        for inference in fast
        if inference.root_prefix in moved and inference.root_origins
    ]
    assert covered_only, "no leaf resolved its root through a covering route"
