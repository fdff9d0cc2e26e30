"""The fast serial engine against the frozen reference on ``paper_world``.

The unit and property suites compare the two engines on small and
generated worlds; this is the comparison at the calibrated scale every
other paper test reads, so a fast-but-wrong engine cannot post a shape.
"""

import pytest

from repro.core import LeaseInferencePipeline


def _make_pipeline(world):
    return LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
    )


@pytest.fixture(scope="module")
def reference_result(world):
    return _make_pipeline(world).run_reference()


def test_reference_engine(world, reference_result):
    assert _make_pipeline(world).run_reference() == reference_result


def test_serial_engine(world, reference_result):
    assert _make_pipeline(world).run() == reference_result
