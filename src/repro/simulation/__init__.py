"""Synthetic-Internet generator: scenarios, ground truth, and the world."""

from typing import TYPE_CHECKING

from ..net.lazy import lazy_exports

if TYPE_CHECKING:
    from .geo import build_geo_databases
    from .groundtruth import GroundTruth, TruthEntry, TruthKind
    from .irr import build_route_registry
    from .scenario import (
        BENCH_SIZES,
        DEFAULT_BENCH_SIZES,
        MegaHolder,
        RegionSpec,
        Scenario,
        bench_world,
        internet_world,
        paper_world,
        small_world,
    )
    from .evolution import (
        DEFAULT_EPOCH_INTERVAL_S,
        WorldEvolution,
        evolve_world,
    )
    from .stream import (
        DEFAULT_STREAM_START,
        bursts_from_replay,
        render_replay_log,
        simulate_update_bursts,
    )
    from .world import FeaturedPrefix, World, WorldBuilder, build_world

__getattr__ = lazy_exports(
    __name__,
    {
        ".geo": ("build_geo_databases",),
        ".groundtruth": ("GroundTruth", "TruthEntry", "TruthKind"),
        ".irr": ("build_route_registry",),
        ".scenario": (
            "BENCH_SIZES", "DEFAULT_BENCH_SIZES", "MegaHolder", "RegionSpec",
            "Scenario", "bench_world", "internet_world", "paper_world", "small_world",
        ),
        ".evolution": ("DEFAULT_EPOCH_INTERVAL_S", "WorldEvolution", "evolve_world"),
        ".stream": (
            "DEFAULT_STREAM_START", "bursts_from_replay", "render_replay_log",
            "simulate_update_bursts",
        ),
        ".world": ("FeaturedPrefix", "World", "WorldBuilder", "build_world"),
    },
)

__all__ = [
    "BENCH_SIZES",
    "DEFAULT_BENCH_SIZES",
    "DEFAULT_EPOCH_INTERVAL_S",
    "DEFAULT_STREAM_START",
    "FeaturedPrefix",
    "GroundTruth",
    "MegaHolder",
    "bench_world",
    "bursts_from_replay",
    "RegionSpec",
    "Scenario",
    "TruthEntry",
    "TruthKind",
    "World",
    "WorldBuilder",
    "WorldEvolution",
    "evolve_world",
    "build_geo_databases",
    "build_route_registry",
    "build_world",
    "internet_world",
    "paper_world",
    "render_replay_log",
    "simulate_update_bursts",
    "small_world",
]
