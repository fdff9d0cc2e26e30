"""Engine comparison benches: the frozen reference vs the fast serial engine.

The committed perf trajectory lives in ``BENCH_pipeline.json`` (written
by ``repro bench``); these pytest-benchmark cases are the interactive
counterpart for profiling one engine mode at a time on the calibrated
paper world.  Every case asserts equivalence with the reference run so
a fast-but-wrong engine can never post a number.
"""

import pytest

from repro.core import LeaseInferencePipeline


@pytest.fixture(scope="module")
def reference_result(world):
    return LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    ).run_reference()


def _make_pipeline(world):
    return LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    )


def test_reference_engine(benchmark, world, reference_result):
    result = benchmark.pedantic(
        lambda: _make_pipeline(world).run_reference(), rounds=2
    )
    assert result == reference_result


def test_serial_engine(benchmark, world, reference_result):
    result = benchmark.pedantic(
        lambda: _make_pipeline(world).run(), rounds=2
    )
    assert result == reference_result
