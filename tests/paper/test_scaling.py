"""Pipeline scaling: generation and inference vs world size.

Not a paper experiment — an engineering check that the generator and
the inference handle smaller and larger cuts of the paper world, so
the 1/50-scale default is a convenience, not a ceiling.
"""

import time

import pytest

from repro.core import LeaseInferencePipeline
from repro.simulation import build_world, paper_world


@pytest.mark.parametrize("scale", [400, 100])
def test_world_generation_scaling(scale):
    scenario = paper_world(scale=scale)
    world = build_world(scenario)
    assert world.whois.total_inetnums() > scenario.total_leaves
    print()
    print(
        f"scale 1/{scale}: {world.whois.total_inetnums():,} blocks, "
        f"{world.routing_table.num_prefixes():,} BGP prefixes"
    )


@pytest.mark.parametrize("scale", [400, 100])
def test_inference_scaling(scale):
    world = build_world(paper_world(scale=scale))
    started = time.perf_counter()
    result = LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    ).run()
    elapsed = time.perf_counter() - started
    assert result.total_classified() > 0
    leaves_per_second = result.total_classified() / elapsed
    print()
    print(
        f"scale 1/{scale}: {result.total_classified():,} leaves classified "
        f"({leaves_per_second:,.0f} leaves/s)"
    )
    assert leaves_per_second > 1_000
