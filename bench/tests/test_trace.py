"""The traced cold start: every layer recorded, times consistent, patches undone."""

import pytest
from repro.simulation import bench_world, build_world
from repro.simulation.io import write_world

from bench import host
from bench.trace import Tracer, TraceError, self_times


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("world") / "data"
    write_world(build_world(bench_world("small", seed=5)), directory)
    (directory / "rib.txt").unlink()
    return directory


@pytest.fixture(scope="module")
def traced(data_dir):
    originals = [vars(owner)[attr] for owner, attr, _name, _m in host.LAYERS]
    tracer = Tracer("test")
    built = host.build_traced(data_dir, tracer)
    return originals, tracer, built


def test_every_wrapped_function_records_a_span(traced):
    _originals, tracer, _built = traced
    recorded = {span["name"] for span in tracer.spans}
    for _owner, _attr, name, _materialize in host.LAYERS:
        assert name in recorded, name


def test_self_time_plus_children_equals_parent(traced):
    _originals, tracer, _built = traced
    own = self_times(tracer.spans)
    for span in tracer.spans:
        children = [c for c in tracer.spans if c["parent"] == span["id"]]
        if not children:
            continue
        duration = span["end"] - span["start"]
        covered = sum(c["end"] - c["start"] for c in children)
        assert own[span["id"]] + covered == pytest.approx(duration, rel=0.01)


def test_originals_are_restored(traced):
    originals, _tracer, _built = traced
    for (owner, attr, _name, _m), original in zip(host.LAYERS, originals):
        assert vars(owner)[attr] is original, f"{owner}.{attr}"


def test_traced_build_serves_the_same_rows(traced, data_dir):
    from repro.core.incremental import result_digest

    _originals, _tracer, built = traced
    assert result_digest(built.result) == result_digest(
        host.Built(data_dir).result
    )


def test_classify_span_carries_cache_hit_rates(traced):
    _originals, tracer, _built = traced
    classify = next(
        span for span in tracer.spans
        if span["name"] == "core.pipeline.classify"
    )
    assert set(classify["counters"]) >= {"category", "relatedness"}


def test_a_renamed_layer_fails_loudly():
    tracer = Tracer("test")
    with pytest.raises(TraceError, match="renamed"):
        tracer.wrap(host.sim_io, "load_datasets_renamed", "simulation.io")
