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

from repro.core import LeaseInferencePipeline
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
