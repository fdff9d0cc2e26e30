"""Unit coverage for the path-sensitive dataflow layer.

``analyze_function`` walks one function's statement tree and distills
a serializable ``FlowFact``; ``FlowResolver`` composes those facts
along the project call graph.  The RC113–RC115 rules sit on top; these
tests pin each layer below them so a rule regression points at the
rule, not the machinery.
"""

import ast
import dataclasses
import json
import sys
import textwrap

import pytest

from repro.check.context import ModuleSource
from repro.check.dataflow import (
    ACQUIRE_LABELS,
    RELEASE_METHODS,
    TAINT_SINKS,
    CallOrigin,
    FlowFact,
    FlowResolver,
    FlowStep,
    ParamEffect,
    ResourceFlow,
    SharedWrite,
    SinkFlow,
    analyze_function,
)
from repro.check.graph import ProjectGraph, extract_facts

#: ``match`` sources are parsed inline: a fixture file would not even
#: parse on the 3.9 interpreter CI also runs.
needs_match = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="match needs Python 3.10"
)


def _fn(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name is None or node.name == name:
                return node
    raise AssertionError(f"no function {name!r} in source")


def _flow(source, name=None):
    return analyze_function(_fn(source, name))


def _graph(tmp_path, sources):
    facts = []
    for name, source in sources.items():
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        facts.append(extract_facts(ModuleSource(path, tmp_path)))
    return ProjectGraph(facts)


def _tainted_sinks(flow):
    return [sink.lineno for sink in flow.sinks if sink.taint_steps]


def _leaks(flow):
    return [res for res in flow.resources if res.leak_steps]


# -- control flow ---------------------------------------------------------


def test_cfg_linear_sequence():
    source = """
    def f():
        a = time.time()
        b = a
        result_digest(b)


    def g():
        a = time.time()
        a = 0
        result_digest(a)
    """
    # Taint follows the statements in order: a later assignment kills it.
    assert _tainted_sinks(_flow(source, "f")) == [5]
    assert _tainted_sinks(_flow(source, "g")) == []


def test_cfg_branch_edges_rejoin():
    source = """
    def f(flag):
        if flag:
            stamp = time.time()
        else:
            stamp = 0
        result_digest(stamp)


    def g(flag):
        if flag:
            stamp = 0
        else:
            stamp = time.time()
        result_digest(stamp)


    def h(flag):
        if flag:
            stamp = 0
        else:
            stamp = 1
        result_digest(stamp)
    """
    # Both arms reach the statement after the ``if``.
    assert _tainted_sinks(_flow(source, "f")) == [7]
    assert _tainted_sinks(_flow(source, "g")) == [15]
    assert _tainted_sinks(_flow(source, "h")) == []


def test_solve_forward_joins_both_branches():
    flow = _flow(
        """
        def f(x):
            if x:
                a = time.time()
            else:
                b = time.time()
            c = 3
            result_digest(a)
            result_digest(b)
            result_digest(c)
        """
    )
    # The join point sees the union of the two branch assignments.
    assert _tainted_sinks(flow) == [8, 9]


def test_loop_carried_taint_reaches_a_sink_after_the_loop():
    flow = _flow(
        """
        def f(n):
            a = 0
            b = 0
            while n:
                b = a
                a = time.time()
                n = n - 1
            result_digest(b)
        """
    )
    # Only the second pass over the body carries a's taint into b.
    assert _tainted_sinks(flow) == [9]
    notes = [step.note for step in flow.sinks[0].taint_steps]
    assert "assigned to b: b = a" in notes


def test_raise_routed_through_finally_clears_a_leak():
    source = """
    def guarded(path):
        handle = open(path)
        try:
            if not path:
                raise ValueError(path)
        finally:
            handle.close()


    def bare(path):
        handle = open(path)
        if not path:
            raise ValueError(path)
        handle.close()
    """
    assert _flow(source, "guarded").resources == ()
    (leak,) = _leaks(_flow(source, "bare"))
    assert "if this raises" in leak.leak_steps[-2].note


def test_break_and_continue_run_finally():
    source = """
    def first_match(paths, wanted):
        for path in paths:
            handle = open(path)
            try:
                if handle.readline() == wanted:
                    break
                if not wanted:
                    continue
            finally:
                handle.close()
        return None


    def unguarded(paths, wanted):
        for path in paths:
            handle = open(path)
            try:
                if handle.readline() == wanted:
                    break
            finally:
                pass
            handle.close()
    """
    assert _leaks(_flow(source, "first_match")) == []
    (leak,) = _leaks(_flow(source, "unguarded"))
    notes = [step.note for step in leak.leak_steps]
    assert "takes this branch: if handle.readline() == wanted" in notes


def test_while_header_raises_only_through_a_call():
    source = """
    def count_down(path, n):
        handle = open(path)
        while n:
            n = n - 1
        handle.close()


    def poll(path):
        handle = open(path)
        while ready():
            pass
        handle.close()
    """
    assert _leaks(_flow(source, "count_down")) == []
    (leak,) = _leaks(_flow(source, "poll"))
    assert leak.leak_steps[-2].note.startswith("if this raises")


def test_early_return_leaks():
    flow = _flow(
        """
        def f(path, skip):
            handle = open(path)
            if skip:
                return None
            handle.close()
        """
    )
    (leak,) = _leaks(flow)
    notes = [(step.lineno, step.note) for step in leak.leak_steps]
    assert notes == [
        (3, "open() acquired into 'handle'"),
        (4, "takes this branch: if skip"),
        (5, "function exit reached with 'handle' still unreleased"),
    ]


def test_while_else_runs_only_when_the_loop_exhausts():
    source = """
    def exhausts(n):
        stamp = time.time()
        while n:
            n = n - 1
        else:
            stamp = 0
        result_digest(stamp)


    def breaks(n):
        stamp = time.time()
        while n:
            if n > 3:
                break
            n = n - 1
        else:
            stamp = 0
        result_digest(stamp)
    """
    # Every normal way out of the first loop runs the else, which
    # overwrites the taint; the break skips it.
    assert _tainted_sinks(_flow(source, "exhausts")) == []
    assert _tainted_sinks(_flow(source, "breaks")) == [19]


@needs_match
def test_taint_assigned_in_a_case_arm_reaches_a_sink():
    flow = _flow(
        """
        def f(mode):
            match mode:
                case "now":
                    stamp = time.time()
                case _:
                    stamp = 0
            result_digest(stamp)
        """
    )
    assert _tainted_sinks(flow) == [8]


@needs_match
def test_case_arm_returning_with_a_held_open_leaks():
    flow = _flow(
        """
        def f(path, mode):
            handle = open(path)
            match mode:
                case "skip":
                    return None
                case _:
                    handle.close()
            return mode
        """
    )
    (leak,) = _leaks(flow)
    notes = [step.note for step in leak.leak_steps]
    assert "takes this branch: case 'skip'" in notes
    assert leak.leak_steps[-1].lineno == 6


@needs_match
def test_irrefutable_final_case_that_releases_stays_silent():
    flow = _flow(
        """
        def f(path, mode):
            handle = open(path)
            match mode:
                case "a":
                    handle.close()
                case _:
                    handle.close()
            return mode
        """
    )
    assert flow.resources == ()


@needs_match
def test_shared_write_in_a_case_arm_is_recorded():
    flow = _flow(
        """
        class Holder:
            def apply(self, mode):
                match mode:
                    case "reset":
                        self._generation = 0
        """,
        "apply",
    )
    assert [(w.target, w.lineno) for w in flow.shared_writes] == [
        ("self._generation", 6)
    ]


# -- per-function facts ---------------------------------------------------


def test_vocabularies_are_wired():
    assert "result_digest" in TAINT_SINKS
    assert ACQUIRE_LABELS["open"] == "open()"
    assert "close" in RELEASE_METHODS


def test_wall_clock_return_taint():
    flow = _flow(
        """
        def f():
            stamp = time.time()
            return stamp
        """
    )
    assert flow.return_taint
    assert all(isinstance(step, FlowStep) for step in flow.return_taint)
    assert "time.time" in flow.return_taint[0].note


def test_sink_records_taint_witness():
    flow = _flow(
        """
        def f():
            stamp = time.time()
            result_digest(stamp)
        """
    )
    assert len(flow.sinks) == 1
    sink = flow.sinks[0]
    assert isinstance(sink, SinkFlow)
    assert sink.label == "result_digest()"
    assert len(sink.taint_steps) >= 2  # source step + sink step


def test_sorted_launders_set_order():
    flow = _flow(
        """
        def f(items):
            bag = set(items)
            result_digest(sorted(bag))
        """
    )
    assert not any(sink.taint_steps for sink in flow.sinks)


def test_identity_param_reaches_return():
    flow = _flow("def f(x):\n    return x\n")
    assert flow.params_to_return == ("x",)


def test_unknown_call_provenance_on_return():
    flow = _flow("def f():\n    return helper()\n")
    assert any(
        isinstance(origin, CallOrigin) and origin.name == "helper"
        for origin in flow.calls_to_return
    )


def test_unreleased_open_is_definite_leak():
    flow = _flow(
        """
        def f(path):
            handle = open(path)
            return None
        """
    )
    assert len(flow.resources) == 1
    leak = flow.resources[0]
    assert isinstance(leak, ResourceFlow)
    assert leak.label == "open()"
    assert leak.leak_steps, "missing leak witness"


def test_finally_close_clears_leak():
    flow = _flow(
        """
        def f(path):
            handle = open(path)
            try:
                parse(handle)
            finally:
                handle.close()
        """
    )
    assert all(not res.leak_steps for res in flow.resources)


def test_shared_write_lock_detection():
    source = """
    class Holder:
        def locked(self):
            with self._lock:
                self._generation = 1

        def unlocked(self):
            self._generation = 2
    """
    locked = _flow(source, "locked").shared_writes
    unlocked = _flow(source, "unlocked").shared_writes
    assert [w.locked for w in locked] == [True]
    assert [w.locked for w in unlocked] == [False]
    assert all(isinstance(w, SharedWrite) for w in locked + unlocked)
    assert "_generation" in unlocked[0].target


def test_flow_fact_json_round_trip():
    flow = _flow(
        """
        def f(path):
            handle = open(path)
            stamp = time.time()
            result_digest(stamp)
            return handle
        """
    )
    payload = json.loads(json.dumps(dataclasses.asdict(flow)))
    assert FlowFact.from_dict(payload) == flow


# -- interprocedural resolution -------------------------------------------


def test_resolver_return_taint_chain(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            import time


            def stamp():
                return time.time()


            def digest():
                return stamp()
            """
        },
    )
    resolver = graph.flow_resolver()
    assert isinstance(resolver, FlowResolver)
    rel = next(iter(graph.facts))
    assert resolver.return_taint(rel, "stamp")
    chained = resolver.return_taint(rel, "digest")
    assert chained is not None
    assert any("stamp" in step.note for _rel, step in chained)


def test_resolver_return_taint_through_a_cycle(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            import time


            def a(flag):
                return b() if flag else c()


            def b():
                return a(True)


            def c():
                return time.time()
            """
        },
    )
    resolver = graph.flow_resolver()
    rel = next(iter(graph.facts))
    # b is first reached while a is still being walked; its answer then
    # lacks a's other branch and must not be the one remembered.
    assert resolver.return_taint(rel, "a")
    assert resolver.return_taint(rel, "b")


def test_resolver_param_sink(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            def commit(value):
                result_digest(value)


            def untouched(value):
                return value
            """
        },
    )
    resolver = graph.flow_resolver()
    rel = next(iter(graph.facts))
    effect = resolver.param_effect(rel, "commit", "value")
    assert isinstance(effect, ParamEffect)
    assert effect.sink is not None and effect.sink[0] == "result_digest()"
    assert resolver.param_effect(rel, "untouched", "value").sink is None


def test_resolver_releases_transitively(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            def close_it(handle):
                handle.close()


            def consume(handle):
                close_it(handle)


            def hoard(handle):
                handle.read()
            """
        },
    )
    resolver = graph.flow_resolver()
    rel = next(iter(graph.facts))
    assert resolver.param_effect(rel, "close_it", "handle").released
    assert resolver.param_effect(rel, "consume", "handle").released
    assert not resolver.param_effect(rel, "hoard", "handle").released


def test_resolver_async_roots_with_witness_trails(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            class Holder:
                async def handle_reload(self, snapshot):
                    self._apply()

                async def handle_update(self, delta):
                    self._apply()

                def _apply(self):
                    self._generation = 1
            """
        },
    )
    resolver = graph.flow_resolver()
    rel = next(iter(graph.facts))
    roots = resolver.async_roots(rel, "Holder._apply")
    names = sorted(qualname for _rel, qualname, _trail in roots)
    assert names == ["Holder.handle_reload", "Holder.handle_update"]
    for _root_rel, _qualname, trail in roots:
        assert len(trail) >= 2  # the root itself plus the call hop
