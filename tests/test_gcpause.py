"""The collector pause around bulk builds: re-entrant, thread-safe, and
never turning on a collector the caller had turned off."""

import gc
import sys
import threading
import time

import pytest

from repro.net import gcpause
from repro.net.gcpause import gc_paused


@pytest.fixture(autouse=True)
def collector_on():
    """Start every test with the collector on and leave it that way."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_pauses_and_resumes():
    with gc_paused:
        assert not gc.isenabled()
    assert gc.isenabled()


def test_nested_pauses_resume_once_at_the_outermost_exit():
    with gc_paused:
        with gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_an_exception_still_resumes():
    with pytest.raises(RuntimeError):
        with gc_paused:
            with gc_paused:
                raise RuntimeError("boom")
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled():
    gc.disable()
    with gc_paused:
        with gc_paused:
            assert not gc.isenabled()
    assert not gc.isenabled()


def test_as_a_decorator():
    @gc_paused
    def build(depth):
        assert not gc.isenabled()
        return build(depth - 1) if depth else "built"

    assert build(3) == "built"
    assert gc.isenabled()


def test_two_threads_resume_only_when_both_are_done():
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    seen = {}

    def first():
        with gc_paused:
            first_in.set()
            second_in.wait(5)
        seen["after_first"] = gc.isenabled()
        first_out.set()

    def second():
        first_in.wait(5)
        with gc_paused:
            second_in.set()
            first_out.wait(5)
            seen["inside_second"] = gc.isenabled()
        seen["after_second"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {
        "after_first": False,
        "inside_second": False,
        "after_second": True,
    }
    assert gc.isenabled()


class _YieldingGc:
    """The ``gc`` module, giving up the interpreter lock before each call
    so that threads interleave inside the guard's check-then-act."""

    def __getattr__(self, name):
        real = getattr(gc, name)

        def call(*args):
            time.sleep(0)
            return real(*args)

        return call


def test_many_threads_leave_the_collector_as_they_found_it(monkeypatch):
    monkeypatch.setattr(gcpause, "gc", _YieldingGc())
    barrier = threading.Barrier(8)
    paused_inside = []

    def work():
        barrier.wait(5)
        for _ in range(300):
            with gc_paused:
                with gc_paused:
                    paused_inside.append(not gc.isenabled())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(paused_inside) == 8 * 300 and all(paused_inside)
    assert gc.isenabled()


def test_the_bulk_builders_run_paused(tmp_path, monkeypatch):
    from repro.core import LeaseInferencePipeline, context, leaseindex
    from repro.simulation import build_world, io, small_world, world

    seen = {}

    def spy(owner, attr, builder):
        """Record the collector state when *builder* calls ``owner.attr``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            seen.setdefault(builder, gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    spy(world.WorldBuilder, "build", "build_world")
    spy(io, "write_table_dump", "write_world")
    spy(io, "read_table_dump", "load_datasets")
    spy(context, "build_related_sets", "AnalysisContext.build")
    spy(leaseindex, "_relatedness_verdict", "LeaseIndex.build")

    io.write_world(build_world(small_world()), tmp_path)
    bundle = io.load_datasets(tmp_path)
    tables = (
        bundle.whois, bundle.routing_table, bundle.relationships,
        bundle.as2org,
    )
    built = context.AnalysisContext.build(*tables)
    result = LeaseInferencePipeline(*tables).run(context=built)
    leaseindex.LeaseIndex.build(built, result)

    assert seen == {
        "build_world": False,
        "write_world": False,
        "load_datasets": False,
        "AnalysisContext.build": False,
        "LeaseIndex.build": False,
    }
    assert gc.isenabled()
