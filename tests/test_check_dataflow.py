"""Unit coverage for the path-sensitive dataflow layer.

``build_cfg`` turns one function body into a statement-level CFG,
``solve_forward`` is the generic worklist solver over it,
``analyze_function`` distills a serializable ``FlowFact``, and
``FlowResolver`` composes those facts along the project call graph.
The RC113–RC115 rules sit on top; these tests pin each layer below
them so a rule regression points at the rule, not the machinery.
"""

import ast
import dataclasses
import json
import textwrap

from repro.check.context import ModuleSource
from repro.check.dataflow import (
    ACQUIRE_LABELS,
    RELEASE_METHODS,
    TAINT_SINKS,
    CallOrigin,
    ControlFlowGraph,
    FlowFact,
    FlowResolver,
    FlowStep,
    ParamEffect,
    ResourceFlow,
    SharedWrite,
    SinkFlow,
    analyze_function,
    build_cfg,
    solve_forward,
)
from repro.check.graph import ProjectGraph, extract_facts

ENTRY, EXIT = 0, 1


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


def _edges(cfg, kind):
    return [
        (node.index, dst)
        for node in cfg.nodes
        for dst, edge_kind in node.succs
        if edge_kind == kind
    ]


def _node_matching(cfg, text):
    # Compound statements unparse with their bodies inline, so prefer
    # the tightest match (the statement itself over its container).
    matches = [
        node
        for node in cfg.stmt_nodes()
        if text in ast.unparse(node.stmt)
    ]
    if not matches:
        raise AssertionError(f"no CFG node matching {text!r}")
    return min(matches, key=lambda node: len(ast.unparse(node.stmt)))


# -- CFG construction -----------------------------------------------------


def test_cfg_linear_sequence():
    cfg = build_cfg(_fn("def f():\n    a = 1\n    b = 2\n"))
    # ENTRY + EXIT + two statements, chained in order.
    assert len(list(cfg.stmt_nodes())) == 2
    first = _node_matching(cfg, "a = 1")
    second = _node_matching(cfg, "b = 2")
    assert (first.index, second.index) in _edges(cfg, "seq")
    assert (second.index, EXIT) in _edges(cfg, "seq")


def test_cfg_branch_edges_rejoin():
    cfg = build_cfg(
        _fn(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
    )
    header = _node_matching(cfg, "if x")
    branch_targets = {dst for dst, kind in header.succs if kind == "branch"}
    assert len(branch_targets) == 2
    ret = _node_matching(cfg, "return a")
    preds = cfg.preds()[ret.index]
    assert branch_targets <= set(preds)


def test_cfg_loop_back_edge():
    cfg = build_cfg(
        _fn(
            """
            def f(n):
                while n:
                    n = n - 1
                return n
            """
        )
    )
    assert _edges(cfg, "loop"), "while loop produced no loop edge"
    # The loop must also be escapable: EXIT is reachable.
    assert cfg.preds()[EXIT]


def test_cfg_call_raise_routes_through_finally():
    cfg = build_cfg(
        _fn(
            """
            def f(path):
                handle = open(path)
                try:
                    parse(handle)
                finally:
                    handle.close()
            """
        )
    )
    risky = _node_matching(cfg, "parse(handle)")
    close = _node_matching(cfg, "handle.close()")
    raise_targets = {dst for dst, kind in risky.succs if kind == "raise"}
    assert close.index in raise_targets
    # finally continues both normally and along the exceptional path.
    close_targets = {dst for dst, _kind in close.succs}
    assert EXIT in close_targets


def test_cfg_early_return_reaches_exit():
    cfg = build_cfg(
        _fn(
            """
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
    )
    early = _node_matching(cfg, "return 1")
    assert (early.index, EXIT) in _edges(cfg, "seq")


def test_control_flow_graph_primitives():
    cfg = ControlFlowGraph()
    idx = cfg.add_node(ast.parse("x = 1").body[0])
    cfg.add_edge(ENTRY, idx)
    cfg.add_edge(idx, EXIT)
    cfg.add_edge(idx, EXIT)  # duplicates collapse
    assert cfg.nodes[idx].succs == [(EXIT, "seq")]
    assert cfg.preds()[EXIT] == [idx]


# -- generic solver -------------------------------------------------------


def test_solve_forward_joins_both_branches():
    cfg = build_cfg(
        _fn(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    b = 2
                c = 3
            """
        )
    )

    def transfer(node, state):
        names = set(state)
        for sub in ast.walk(node.stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                names.add(sub.id)
        return frozenset(names)

    in_states = solve_forward(
        cfg, transfer, frozenset(), lambda a, b: a | b
    )
    # The join point sees the union of the two branch assignments.
    assert in_states[EXIT] == frozenset({"a", "b", "c"})


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
