"""Unit coverage for the path-sensitive dataflow layer.

``analyze_function`` walks one function's statement tree and distills
a serializable ``FlowFact``; ``FlowResolver`` composes those facts
along the project call graph.  The RC110, RC111, RC113 and RC115
rules sit on top; these tests pin each layer below them so a rule
regression points at the rule, not the machinery.
"""

import ast
import dataclasses
import json
import sys
import textwrap

import pytest

from repro.check.context import ModuleSource
from repro.check.dataflow import (
    TAINT_SINKS,
    CallOrigin,
    FlowFact,
    FlowResolver,
    FlowStep,
    ParamEffect,
    SharedWrite,
    SinkFlow,
    analyze_function,
)
from repro.check.graph import ProjectGraph, extract_facts
from repro.check.rules.hygiene import ACQUIRE_LABELS

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


def test_raise_is_routed_through_finally():
    source = """
    def raises(path):
        stamp = 0
        try:
            stamp = os.environ["SEED"]
            if not path:
                raise ValueError(path)
            stamp = 0
        finally:
            result_digest(stamp)


    def falls_through(path):
        stamp = 0
        try:
            stamp = os.environ["SEED"]
            if not path:
                pass
            stamp = 0
        finally:
            result_digest(stamp)
    """
    # Only the raise edge carries the unreset stamp into ``finally``.
    assert _tainted_sinks(_flow(source, "raises")) == [10]
    assert _tainted_sinks(_flow(source, "falls_through")) == []


def test_break_and_continue_run_finally():
    source = """
    def breaks(items):
        stamp = 0
        for item in items:
            try:
                stamp = os.environ["SEED"]
                if item:
                    break
            finally:
                stamp = 0
        result_digest(stamp)


    def continues(items):
        stamp = 0
        for item in items:
            try:
                stamp = os.environ["SEED"]
                if item:
                    continue
            finally:
                stamp = 0
        result_digest(stamp)


    def escapes(items):
        stamp = 0
        for item in items:
            try:
                if item:
                    stamp = os.environ["SEED"]
                    break
            finally:
                pass
        result_digest(stamp)
    """
    # ``finally`` resets the stamp on the way out of a ``break`` or a
    # ``continue``; a ``finally`` that leaves it alone lets the break
    # carry it past the loop.
    assert _tainted_sinks(_flow(source, "breaks")) == []
    assert _tainted_sinks(_flow(source, "continues")) == []
    assert _tainted_sinks(_flow(source, "escapes")) == [35]


def test_while_header_raises_only_through_a_call():
    source = """
    def count_down(n):
        stamp = 0
        try:
            while n:
                stamp = os.environ["SEED"]
                n = n - 1
            stamp = 0
        except ValueError:
            result_digest(stamp)


    def poll(n):
        stamp = 0
        try:
            while ready(n):
                stamp = os.environ["SEED"]
            stamp = 0
        except ValueError:
            result_digest(stamp)
    """
    # The handler is reached only from a header that calls something,
    # and then with the stamp the loop body left behind.
    assert _tainted_sinks(_flow(source, "count_down")) == []
    assert _tainted_sinks(_flow(source, "poll")) == [20]


def test_early_return_from_an_if_arm_skips_the_rest():
    flow = _flow(
        """
        def f(skip):
            stamp = 0
            try:
                if skip:
                    stamp = os.environ["SEED"]
                    return None
                result_digest(stamp)
            finally:
                result_digest(stamp)
        """
    )
    # The return leaves the arm before the first sink and carries the
    # stamp into ``finally``.
    assert _tainted_sinks(flow) == [10]


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
def test_early_return_from_a_case_arm_skips_the_rest():
    flow = _flow(
        """
        def f(mode):
            stamp = 0
            try:
                match mode:
                    case "skip":
                        stamp = os.environ["SEED"]
                        return None
                    case _:
                        pass
                result_digest(stamp)
            finally:
                result_digest(stamp)
        """
    )
    assert _tainted_sinks(flow) == [13]


@needs_match
def test_irrefutable_final_case_leaves_no_fall_through():
    source = """
    def irrefutable(mode):
        stamp = os.environ["SEED"]
        match mode:
            case "a":
                stamp = 0
            case _:
                stamp = 0
        result_digest(stamp)


    def refutable(mode):
        stamp = os.environ["SEED"]
        match mode:
            case "a":
                stamp = 0
            case "b":
                stamp = 0
        result_digest(stamp)


    def guarded(mode, flag):
        stamp = os.environ["SEED"]
        match mode:
            case "a":
                stamp = 0
            case _ if flag:
                stamp = 0
        result_digest(stamp)
    """
    # Every arm resets the stamp; only a match no arm catches keeps it.
    assert _tainted_sinks(_flow(source, "irrefutable")) == []
    assert _tainted_sinks(_flow(source, "refutable")) == [19]
    assert _tainted_sinks(_flow(source, "guarded")) == [29]


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


def test_resolver_mutation_is_transitive(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "mod.py": """
            def set_it(obj):
                obj.flag = 1


            def relay(obj):
                set_it(obj)


            def keep(obj):
                obj.read()
            """
        },
    )
    resolver = graph.flow_resolver()
    rel = next(iter(graph.facts))
    assert resolver.param_effect(rel, "set_it", "obj").mutated
    assert resolver.param_effect(rel, "relay", "obj").mutated
    assert not resolver.param_effect(rel, "keep", "obj").mutated


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
