"""Tests for the world consistency validator."""

import dataclasses

import pytest

from repro.net import Prefix
from repro.simulation import build_world, small_world
from repro.simulation.validate import validate_world


@pytest.fixture(scope="module")
def world():
    return build_world(small_world())


class TestValidateWorld:
    def test_generated_world_is_consistent(self, world):
        assert validate_world(world) == []

    def test_paper_scale_world_is_consistent(self):
        from repro.simulation import paper_world

        world = build_world(paper_world(scale=300))
        assert validate_world(world) == []

    def test_detects_unknown_origin(self, world):
        broken = dataclasses.replace(world)
        broken.routing_table.add_route(
            Prefix.parse("203.0.113.0/24"), 999_999
        )
        problems = validate_world(broken)
        assert any("AS999999" in problem for problem in problems)
        # Clean up the module-scoped fixture's shared table.
        broken.routing_table.withdraw(Prefix.parse("203.0.113.0/24"))

    def test_detects_silent_lease(self):
        world = build_world(small_world(seed=33))
        # Withdraw an active lease's announcement without updating truth.
        from repro.simulation import TruthKind

        entry = world.ground_truth.of_kind(TruthKind.LEASED_ACTIVE)[0]
        assert world.routing_table.withdraw(entry.prefix)
        problems = validate_world(world)
        assert any(str(entry.prefix) in problem for problem in problems)

    def test_detects_announced_unused(self):
        world = build_world(small_world(seed=34))
        from repro.simulation import TruthKind

        entry = world.ground_truth.of_kind(TruthKind.UNUSED)[0]
        world.routing_table.add_route(entry.prefix, 100)
        problems = validate_world(world)
        assert any(
            "unused" in problem and str(entry.prefix) in problem
            for problem in problems
        )

    def test_detects_missing_negative_org(self):
        world = build_world(small_world(seed=35))
        first_rir = next(iter(world.negative_isp_org_ids))
        world.negative_isp_org_ids[first_rir].append("ORG-GHOST")
        problems = validate_world(world)
        assert any("ORG-GHOST" in problem for problem in problems)
