"""Shared fixtures for the paper's §6 claims.

Every test here checks a shape of the paper's evaluation against the
calibrated ``paper_world`` scenario (the April 2024 Internet at 1/50
scale, seed 20240401).  The world, the inference result and the curated
reference are session-scoped: each test computes its own stage and
reuses everything upstream.
"""

import pytest

from repro.core import LeaseInferencePipeline, curate_reference
from repro.simulation import build_world, paper_world


@pytest.fixture(scope="session")
def world():
    """The calibrated synthetic April 2024 Internet."""
    return build_world(paper_world())


@pytest.fixture(scope="session")
def inference(world):
    """The full §5 inference over the world."""
    pipeline = LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    )
    return pipeline.run()


@pytest.fixture(scope="session")
def reference(world):
    """The §5.3 curated reference dataset."""
    return curate_reference(
        world.whois,
        world.broker_registry,
        world.routing_table,
        not_leased_exclusions=world.curation_exclusions,
        negative_isp_org_ids=world.negative_isp_org_ids,
    )
