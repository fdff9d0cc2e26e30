"""``result_digest`` against the formula it streams.

The oracle below hashes ``repr(sorted(rows))`` in one piece, as the
digest was first defined; every stored digest (golden fixtures, the
benchmark's reference, the four-roads checks) was taken with it.  The
streamed digest must give the same hexdigest on every input, and hold
far less memory while it runs.
"""

import dataclasses
import gc
import hashlib
import tracemalloc

import pytest

from repro.core import (
    IncrementalEngine,
    InferenceResult,
    LeaseInferencePipeline,
    result_digest,
)
from repro.core import incremental
from repro.net import Prefix
from repro.rir import RIR
from repro.simulation import bench_world, build_world, small_world


def oracle_digest(result):
    rows = sorted(
        (
            inference.rir.name,
            str(inference.prefix),
            inference.category.name,
            tuple(sorted(inference.leaf_origins)),
            tuple(sorted(inference.root_origins)),
            tuple(sorted(inference.root_assigned_asns)),
        )
        for inference in result
    )
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _run(world):
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    return pipeline, pipeline.run()


@pytest.fixture(scope="module")
def small():
    return _run(build_world(small_world()))


@pytest.fixture(scope="module", params=[1, 2, 3])
def medium(request):
    return _run(build_world(bench_world("medium", seed=request.param)))


def test_small_world(small):
    _pipeline, result = small
    assert result_digest(result) == oracle_digest(result)


def test_medium_worlds(medium):
    _pipeline, result = medium
    assert len(result) > 5000
    assert result_digest(result) == oracle_digest(result)


def test_empty_result():
    assert result_digest(InferenceResult()) == oracle_digest([])
    assert result_digest([]) == hashlib.sha256(b"[]").hexdigest()


def test_any_iterable_of_rows(small):
    _pipeline, result = small
    expected = oracle_digest(result)
    assert result_digest(list(result)) == expected
    assert result_digest(iter(result)) == expected
    assert result_digest(reversed(list(result))) == expected


def test_tied_keys_fall_back_to_the_whole_row(small):
    """Rows sharing a registry and prefix are ordered by their other
    fields, exactly as ``sorted`` orders the full tuples."""
    _pipeline, result = small
    base = list(result)[:6]
    rows = []
    for inference in base:
        rows.append(inference)
        rows.append(dataclasses.replace(inference, leaf_origins=frozenset()))
        rows.append(
            dataclasses.replace(inference, leaf_origins=frozenset({7}))
        )
        rows.append(
            dataclasses.replace(inference, root_origins=frozenset({3, 1}))
        )
        rows.append(
            dataclasses.replace(
                inference, root_assigned_asns=frozenset({65000})
            )
        )
        rows.append(inference)  # an exact duplicate
    # The same prefix in another registry, and prefixes whose text
    # order differs from their numeric order.
    other = RIR.ARIN if base[0].rir is not RIR.ARIN else RIR.RIPE
    rows.append(dataclasses.replace(base[0], rir=other))
    for text in ("9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "100.0.0.0/8"):
        rows.append(dataclasses.replace(base[1], prefix=Prefix.parse(text)))
    for order in (rows, rows[::-1], rows[1::2] + rows[::2]):
        assert result_digest(order) == oracle_digest(order)
        assert result_digest(order) == oracle_digest(rows)


def test_one_element_origin_tuples(small):
    """``repr((5,))`` keeps its trailing comma in the streamed text."""
    _pipeline, result = small
    inference = next(iter(result))
    row = dataclasses.replace(
        inference,
        leaf_origins=frozenset({5}),
        root_origins=frozenset({6}),
        root_assigned_asns=frozenset({6}),
    )
    assert result_digest([row]) == oracle_digest([row])
    assert result_digest([row]) != result_digest([inference])


def test_engine_digest_builds_no_result(small, monkeypatch):
    pipeline, result = small
    engine = IncrementalEngine(pipeline.context)

    def refuse(*_args, **_kwargs):
        raise AssertionError("digest() built an InferenceResult")

    monkeypatch.setattr(
        incremental.InferenceResult, "from_inferences", refuse
    )
    assert engine.digest() == oracle_digest(result)


def _traced_peak(function, argument):
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        function(argument)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_streaming_peaks_below_half_the_oracle(medium):
    _pipeline, result = medium
    streamed = _traced_peak(result_digest, result)
    whole = _traced_peak(oracle_digest, result)
    assert streamed * 2 <= whole, (streamed, whole)
