"""Per-function CFG and forward dataflow for the path-sensitive rules.

The AST rules judge one expression at a time; the call-graph rules
need *paths*: did this wall-clock read flow, through assignments and
helper calls, into a digest?  does this file handle reach ``close()``
on the exception path too?  which async handlers can reach this
unlocked state write, or this ``time.sleep``?  does a frozen snapshot
reach a helper that assigns its attributes?  This module supplies the
machinery in three layers:

1. A statement-level control-flow graph per function
   (:class:`ControlFlowGraph`): branches, loops, ``try``/``except``/
   ``finally``, ``with``, early ``return``/``raise``, and — crucially —
   *exception edges*: every statement that can raise gets an edge to
   the innermost handler, finally block, or the function exit.

2. A generic forward worklist solver (:func:`solve_forward`) plus a
   taint instance over it: variable states carry taint kinds
   (wall-clock, unseeded randomness, ``os.environ``, ``id()``,
   set-iteration order), call-site provenance, and parameter
   provenance, each with an accumulated *witness* — the step-by-step
   path later rendered as a SARIF ``codeFlow``.

3. :func:`analyze_function` distills one function scope into a
   serializable :class:`FlowFact` (stored inside the incremental cache
   alongside the other module facts), and :class:`FlowResolver` runs
   the *interprocedural* part at project time over cached facts.  It
   is the one place a rule walks the call graph: return taint
   (RC113), one walk per parameter answering sink/release/mutation
   (RC113, RC114, RC111), and one async-reachability walk answering
   which handlers reach a function and which blocking sites a
   coroutine reaches through sync calls only (RC115, RC110).

Everything here is conservative in the repo's established sense:
an interprocedural conclusion is drawn only when the call graph
resolves the callee unambiguously; anything ambiguous is dropped, so
the flow rules under-report rather than guess.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .cache import from_plain
from .context import attribute_writes, walk_scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import BlockingSite, CallFact, ProjectGraph

__all__ = [
    "ACQUIRE_LABELS",
    "RELEASE_METHODS",
    "TAINT_SINKS",
    "CallOrigin",
    "ControlFlowGraph",
    "FlowFact",
    "FlowResolver",
    "FlowStep",
    "ParamEffect",
    "ResourceFlow",
    "SharedWrite",
    "SinkFlow",
    "analyze_function",
    "build_cfg",
    "solve_forward",
]

#: Cap on witness length so cached facts stay small; witnesses keep the
#: head (the source) and always append the terminal step.
_MAX_STEPS = 10
#: Cap on tracked provenance fan-in per variable.
_MAX_FANIN = 4

# ---------------------------------------------------------------------------
# Taint vocabulary

#: Order-laundering callables: the result no longer exposes set order.
_LAUNDER_CALLS = frozenset({"sorted", "len", "sum", "Counter"})

#: Pure builtins through which taint (and provenance) propagates.
_PROPAGATING_CALLS = frozenset(
    {
        "str", "int", "float", "bool", "round", "abs", "min", "max",
        "repr", "format", "list", "tuple", "dict", "zip", "map",
        "filter", "reversed", "next", "iter",
    }
)

#: ``random`` module functions drawing from the unseeded global
#: generator (mirrors RC103's list).
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "triangular", "betavariate",
        "expovariate", "gammavariate", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes",
    }
)

_WALLCLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Calls whose argument values are committed to reproducible artifacts:
#: the digest of an inference result, and the bench trajectory writers
#: behind every ``BENCH_*.json`` file.  Golden-fixture writers keep the
#: same naming convention.
TAINT_SINKS = frozenset(
    {"result_digest", "append_trajectory", "write_golden"}
)

#: Constructor spellings that acquire an OS-backed resource.
ACQUIRE_LABELS: Dict[str, str] = {
    "open": "open()",
    "SharedMemory": "SharedMemory()",
    "socket": "socket.socket()",
    "create_connection": "socket.create_connection()",
    "Pool": "Pool()",
    "ThreadPool": "ThreadPool()",
}

#: Method names that release an acquired resource.
RELEASE_METHODS = frozenset(
    {
        "close", "unlink", "destroy", "terminate", "shutdown",
        "release", "stop", "detach",
    }
)

#: Substrings marking a ``with`` context expression as a serialization
#: primitive (``with self._lock:`` and friends).
_LOCK_MARKERS = ("lock", "mutex", "sem")


# ---------------------------------------------------------------------------
# Serializable flow records


@dataclass(frozen=True)
class FlowStep:
    """One step of a witness path, local to the defining module."""

    lineno: int
    col: int
    note: str

    def to_dict(self) -> Dict[str, object]:
        return {"lineno": self.lineno, "col": self.col, "note": self.note}


@dataclass(frozen=True)
class CallOrigin:
    """A call site a value flowed out of (or an argument flowed into).

    ``position`` is the argument slot (int, or keyword name) when the
    record describes an argument; ``None`` when it describes the call's
    return value.  ``steps`` is the witness from that site to wherever
    the record was taken (a sink, a return, the call itself).
    """

    base: Optional[str]
    name: str
    lineno: int
    col: int
    position: object = None
    steps: Tuple[FlowStep, ...] = ()


@dataclass(frozen=True)
class SinkFlow:
    """One taint-sink call and everything its arguments derive from."""

    label: str
    lineno: int
    col: int
    taint_steps: Tuple[FlowStep, ...] = ()
    from_calls: Tuple[CallOrigin, ...] = ()
    from_params: Tuple[Tuple[str, Tuple[FlowStep, ...]], ...] = ()


@dataclass(frozen=True)
class ResourceFlow:
    """One resource acquisition and its path-sensitive verdict.

    ``leak_steps`` non-empty means a CFG path reaches the function exit
    with no release, no ownership transfer, and no call that could
    plausibly release — a definite leak.  ``guards`` are calls the
    variable was passed into where *that call releasing the resource*
    is the only thing covering some otherwise-leaking path; each guard
    carries the witness for the path that leaks if the callee does not
    release its parameter.
    """

    label: str
    var: str
    lineno: int
    col: int
    leak_steps: Tuple[FlowStep, ...] = ()
    guards: Tuple[CallOrigin, ...] = ()


@dataclass(frozen=True)
class SharedWrite:
    """One rebinding of instance state (``self.attr = ...``)."""

    target: str
    lineno: int
    col: int
    locked: bool


@dataclass(frozen=True)
class FlowFact:
    """Everything the flow rules need from one function, serialized."""

    return_taint: Tuple[FlowStep, ...] = ()
    params_to_return: Tuple[str, ...] = ()
    calls_to_return: Tuple[CallOrigin, ...] = ()
    sinks: Tuple[SinkFlow, ...] = ()
    tainted_args: Tuple[CallOrigin, ...] = ()
    param_calls: Tuple[Tuple[str, CallOrigin], ...] = ()
    releases_params: Tuple[str, ...] = ()
    mutated_params: Tuple[str, ...] = ()
    resources: Tuple[ResourceFlow, ...] = ()
    shared_writes: Tuple[SharedWrite, ...] = ()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowFact":
        """Rebuild a flow record from ``dataclasses.asdict`` output."""
        return from_plain(cls, payload)  # type: ignore[no-any-return]


# ---------------------------------------------------------------------------
# Control-flow graph

ENTRY = 0
EXIT = 1

#: Edge kinds, used to annotate witnesses and to keep raise edges
#: distinguishable from fall-through during the leak search.
SEQ, BRANCH, LOOP, RAISE, FINALLY = "seq", "branch", "loop", "raise", "final"


@dataclass
class CfgNode:
    """One statement occurrence (ENTRY and EXIT carry no statement)."""

    index: int
    stmt: Optional[ast.stmt] = None
    succs: List[Tuple[int, str]] = field(default_factory=list)


class ControlFlowGraph:
    """Statement-level CFG of one function body."""

    def __init__(self) -> None:
        self.nodes: List[CfgNode] = [CfgNode(ENTRY), CfgNode(EXIT)]

    def add_node(self, stmt: ast.stmt) -> int:
        node = CfgNode(len(self.nodes), stmt)
        self.nodes.append(node)
        return node.index

    def add_edge(self, src: int, dst: int, kind: str = SEQ) -> None:
        pair = (dst, kind)
        if pair not in self.nodes[src].succs:
            self.nodes[src].succs.append(pair)

    def preds(self) -> Dict[int, List[int]]:
        incoming: Dict[int, List[int]] = {n.index: [] for n in self.nodes}
        for node in self.nodes:
            for dst, _kind in node.succs:
                incoming[dst].append(node.index)
        return incoming

    def stmt_nodes(self) -> Iterator[CfgNode]:
        for node in self.nodes:
            if node.stmt is not None:
                yield node


class _LoopCtx:
    def __init__(self, header: int) -> None:
        self.header = header
        self.breaks: List[int] = []


class _CfgBuilder:
    """Recursive-descent CFG construction over a statement list.

    ``raise_targets`` is the stack-resolved set of nodes an exception
    transfers control to (handler entries, a finally entry, or EXIT);
    ``finally_entry`` is where an early ``return`` must detour first.
    """

    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        self.loops: List[_LoopCtx] = []

    def build(self, body: Sequence[ast.stmt]) -> ControlFlowGraph:
        first, exits = self._stmts(body, (EXIT,), None)
        entry_to = first if first is not None else EXIT
        self.cfg.add_edge(ENTRY, entry_to)
        for index in exits:
            self.cfg.add_edge(index, EXIT)
        return self.cfg

    # -- statement sequences ----------------------------------------------

    def _stmts(
        self,
        body: Sequence[ast.stmt],
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        first: Optional[int] = None
        dangling: List[int] = []
        for stmt in body:
            head, exits = self._stmt(stmt, raise_targets, finally_entry)
            if head is None:
                continue
            if first is None:
                first = head
            for index in dangling:
                self.cfg.add_edge(index, head)
            dangling = exits
        return first, dangling

    def _stmt(
        self,
        stmt: ast.stmt,
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, raise_targets, finally_entry)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, raise_targets, finally_entry)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, raise_targets, finally_entry)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, raise_targets, finally_entry)
        node = self.cfg.add_node(stmt)
        if isinstance(stmt, ast.Return):
            if _may_raise(stmt):  # the returned expression can raise
                for target in raise_targets:
                    self.cfg.add_edge(node, target, RAISE)
            target = finally_entry if finally_entry is not None else EXIT
            self.cfg.add_edge(node, target, FINALLY if target != EXIT else SEQ)
            return node, []
        if isinstance(stmt, ast.Raise):
            for target in raise_targets:
                self.cfg.add_edge(node, target, RAISE)
            return node, []
        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1].breaks.append(node)
            return node, []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                self.cfg.add_edge(node, self.loops[-1].header, LOOP)
            return node, []
        if _may_raise(stmt):
            for target in raise_targets:
                self.cfg.add_edge(node, target, RAISE)
        return node, [node]

    # -- compound statements ----------------------------------------------

    def _if(
        self,
        stmt: ast.If,
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[int, List[int]]:
        node = self.cfg.add_node(stmt)
        if _expr_may_raise(stmt.test):
            for target in raise_targets:
                self.cfg.add_edge(node, target, RAISE)
        exits: List[int] = []
        body_first, body_exits = self._stmts(
            stmt.body, raise_targets, finally_entry
        )
        if body_first is not None:
            self.cfg.add_edge(node, body_first, BRANCH)
        exits.extend(body_exits if body_first is not None else [node])
        if stmt.orelse:
            else_first, else_exits = self._stmts(
                stmt.orelse, raise_targets, finally_entry
            )
            if else_first is not None:
                self.cfg.add_edge(node, else_first, BRANCH)
                exits.extend(else_exits)
            else:
                exits.append(node)
        else:
            exits.append(node)  # condition false falls through
        return node, exits

    def _loop(
        self,
        stmt: ast.stmt,
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[int, List[int]]:
        node = self.cfg.add_node(stmt)
        for target in raise_targets:
            self.cfg.add_edge(node, target, RAISE)
        ctx = _LoopCtx(node)
        self.loops.append(ctx)
        body = getattr(stmt, "body", [])
        body_first, body_exits = self._stmts(
            body, raise_targets, finally_entry
        )
        self.loops.pop()
        if body_first is not None:
            self.cfg.add_edge(node, body_first, BRANCH)
            for index in body_exits:
                self.cfg.add_edge(index, node, LOOP)
        orelse = getattr(stmt, "orelse", [])
        exits: List[int] = list(ctx.breaks)
        if orelse:
            else_first, else_exits = self._stmts(
                orelse, raise_targets, finally_entry
            )
            if else_first is not None:
                self.cfg.add_edge(node, else_first, BRANCH)
                exits.extend(else_exits)
            else:
                exits.append(node)
        else:
            exits.append(node)  # loop exhausts (or never runs)
        return node, exits

    def _with(
        self,
        stmt: ast.stmt,
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[int, List[int]]:
        node = self.cfg.add_node(stmt)
        for target in raise_targets:
            self.cfg.add_edge(node, target, RAISE)
        body_first, body_exits = self._stmts(
            getattr(stmt, "body", []), raise_targets, finally_entry
        )
        if body_first is None:
            return node, [node]
        self.cfg.add_edge(node, body_first)
        return node, body_exits

    def _try(
        self,
        stmt: ast.Try,
        raise_targets: Tuple[int, ...],
        finally_entry: Optional[int],
    ) -> Tuple[Optional[int], List[int]]:
        exits: List[int] = []
        # Build the finally block first so everything can route into it.
        fin_first: Optional[int] = None
        fin_exits: List[int] = []
        if stmt.finalbody:
            fin_first, fin_exits = self._stmts(
                stmt.finalbody, raise_targets, finally_entry
            )
        inner_finally = fin_first if fin_first is not None else finally_entry
        handler_entries: List[int] = []
        handler_exits: List[int] = []
        handler_raise = (
            (fin_first,) if fin_first is not None else raise_targets
        )
        for handler in stmt.handlers:
            h_first, h_exits = self._stmts(
                handler.body, handler_raise, inner_finally
            )
            if h_first is not None:
                handler_entries.append(h_first)
                handler_exits.extend(h_exits)
            # an empty handler body cannot occur (pass is a statement)
        body_raise: Tuple[int, ...]
        if handler_entries:
            body_raise = tuple(handler_entries)
        elif fin_first is not None:
            body_raise = (fin_first,)
        else:
            body_raise = raise_targets
        body_first, body_exits = self._stmts(
            stmt.body, body_raise, inner_finally
        )
        else_first, else_exits = self._stmts(
            stmt.orelse, handler_raise, inner_finally
        )
        if else_first is not None:
            for index in body_exits:
                self.cfg.add_edge(index, else_first)
            tail_exits = else_exits
        else:
            tail_exits = body_exits
        if fin_first is not None:
            for index in tail_exits + handler_exits:
                self.cfg.add_edge(index, fin_first, FINALLY)
            # The finally block both falls through (normal completion)
            # and re-raises (exceptional entry); model both exits.
            for index in fin_exits:
                for target in raise_targets:
                    self.cfg.add_edge(index, target, RAISE)
            exits.extend(fin_exits)
        else:
            exits.extend(tail_exits)
            exits.extend(handler_exits)
        return body_first if body_first is not None else fin_first, exits


def build_cfg(scope: ast.AST) -> ControlFlowGraph:
    """The statement-level CFG of a function (or module) body."""
    return _CfgBuilder().build(getattr(scope, "body", []))


def _may_raise(stmt: ast.stmt) -> bool:
    """True when executing *stmt* can transfer control exceptionally."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for node in _walk_exprs(stmt):
        if isinstance(node, ast.Call):
            return True
    return False


def _expr_may_raise(expr: ast.expr) -> bool:
    return any(isinstance(node, ast.Call) for node in ast.walk(expr))


def _walk_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk the expressions *executed by* this statement occurrence.

    Compound statements contribute only their header expressions (the
    body statements are separate CFG nodes), and lambda bodies are
    skipped — they execute later, if at all.
    """
    headers: List[ast.AST] = []
    if isinstance(stmt, ast.If):
        headers = [stmt.test]
    elif isinstance(stmt, ast.While):
        headers = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        headers = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        headers = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, ast.Try):
        headers = []
    elif isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        headers = list(stmt.decorator_list)
    else:
        headers = [stmt]
    stack: List[ast.AST] = list(headers)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.Lambda,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# Generic forward solver


def solve_forward(
    cfg: ControlFlowGraph,
    transfer,
    initial,
    join,
    max_passes: int = 50,
):
    """Forward worklist solver; returns the IN-state of every node.

    *transfer(node, state) -> state* must be monotone under *join*;
    *initial* seeds ENTRY.  States are compared with ``==`` so they
    must be hashable/plain data.  The pass bound is a safety net — the
    taint lattice is finite by construction (capped witnesses and
    fan-ins), so real runs converge long before it.
    """
    in_states: Dict[int, object] = {ENTRY: initial}
    out_states: Dict[int, object] = {}
    all_preds = cfg.preds()
    order = [node.index for node in cfg.nodes]
    for _ in range(max_passes):
        changed = False
        for index in order:
            node = cfg.nodes[index]
            merged = initial if index == ENTRY else None
            for pred in all_preds[index]:
                out = out_states.get(pred)
                if out is None:
                    continue
                merged = out if merged is None else join(merged, out)
            if merged is None:
                merged = initial if index == ENTRY else {}
            if in_states.get(index) != merged:
                in_states[index] = merged
                changed = True
            out = transfer(node, merged) if node.stmt is not None else merged
            if out_states.get(index) != out:
                out_states[index] = out
                changed = True
        if not changed:
            break
    return in_states


# ---------------------------------------------------------------------------
# Taint lattice

#: taints: (kind, steps); origins: (base, name, lineno, col, steps);
#: params: (param, steps); is_set: bool
_EMPTY_VAR = ((), (), (), False)


def _var_state(taints=(), origins=(), params=(), is_set=False):
    return (tuple(taints), tuple(origins), tuple(params), bool(is_set))


def _merge_var(a, b):
    taints = list(a[0])
    kinds = {t[0] for t in taints}
    for t in b[0]:
        if t[0] not in kinds and len(taints) < _MAX_FANIN:
            taints.append(t)
            kinds.add(t[0])
    origins = list(a[1])
    keys = {o[:4] for o in origins}
    for o in b[1]:
        if o[:4] not in keys and len(origins) < _MAX_FANIN:
            origins.append(o)
            keys.add(o[:4])
    params = list(a[2])
    names = {p[0] for p in params}
    for p in b[2]:
        if p[0] not in names and len(params) < _MAX_FANIN:
            params.append(p)
            names.add(p[0])
    return _var_state(taints, origins, params, a[3] or b[3])


def _join_states(a: Dict[str, tuple], b: Dict[str, tuple]):
    if not a:
        return dict(b)
    merged = dict(a)
    for var, state in b.items():
        if var in merged:
            merged[var] = _merge_var(merged[var], state)
        else:
            merged[var] = state
    return merged


def _with_step(var_state, step: FlowStep):
    """Append *step* to every witness inside *var_state* (capped)."""

    def extend(steps):
        if len(steps) >= _MAX_STEPS:
            return steps
        return tuple(steps) + (step,)

    taints = tuple((kind, extend(steps)) for kind, steps in var_state[0])
    origins = tuple(
        (base, name, lineno, col, extend(steps))
        for base, name, lineno, col, steps in var_state[1]
    )
    params = tuple((param, extend(steps)) for param, steps in var_state[2])
    return _var_state(taints, origins, params, var_state[3])


def _short(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.11
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


class _TaintMachine:
    """Expression evaluation + statement transfer over the taint state."""

    def __init__(self, params: Sequence[str]) -> None:
        self.initial = {
            param: _var_state(params=((param, ()),))
            for param in params
            if param not in ("self", "cls")
        }

    # -- expression evaluation --------------------------------------------

    def eval(self, expr: Optional[ast.expr], state) -> tuple:
        if expr is None:
            return _EMPTY_VAR
        if isinstance(expr, ast.Name):
            return state.get(expr.id, _EMPTY_VAR)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return _var_state(is_set=True)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Subscript):
            if _is_environ(expr.value):
                return self._source(expr, "os.environ", _short(expr))
            return self.eval(expr.value, state)
        if isinstance(expr, ast.Attribute):
            inner = self.eval(expr.value, state)
            return _var_state(inner[0], inner[1], inner[2], False)
        if isinstance(expr, ast.Await):
            return self.eval(expr.value, state)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, state)
        if isinstance(expr, ast.IfExp):
            return _merge_var(
                self.eval(expr.body, state), self.eval(expr.orelse, state)
            )
        if isinstance(expr, ast.BinOp):
            merged = _merge_var(
                self.eval(expr.left, state), self.eval(expr.right, state)
            )
            is_set = _is_set_op(expr) and (
                self.eval(expr.left, state)[3]
                or self.eval(expr.right, state)[3]
            )
            return _var_state(merged[0], merged[1], merged[2], is_set)
        if isinstance(expr, (ast.BoolOp,)):
            out = _EMPTY_VAR
            for value in expr.values:
                out = _merge_var(out, self.eval(value, state))
            return out
        if isinstance(expr, (ast.Compare, ast.UnaryOp)):
            children = (
                [expr.left, *expr.comparators]
                if isinstance(expr, ast.Compare)
                else [expr.operand]
            )
            out = _EMPTY_VAR
            for child in children:
                out = _merge_var(out, self.eval(child, state))
            return _var_state(out[0], out[1], out[2], False)
        if isinstance(expr, (ast.List, ast.Tuple)):
            out = _EMPTY_VAR
            for element in expr.elts:
                out = _merge_var(out, self.eval(element, state))
            return _var_state(out[0], out[1], out[2], False)
        if isinstance(expr, ast.Dict):
            out = _EMPTY_VAR
            for value in list(expr.keys) + list(expr.values):
                if value is not None:
                    out = _merge_var(out, self.eval(value, state))
            return _var_state(out[0], out[1], out[2], False)
        if isinstance(expr, ast.JoinedStr):
            out = _EMPTY_VAR
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    out = _merge_var(out, self.eval(value.value, state))
            return out
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            out = _EMPTY_VAR
            for gen in expr.generators:
                inner = self.eval(gen.iter, state)
                if inner[3]:
                    out = _merge_var(
                        out,
                        self._source(
                            gen.iter, "set-order", _short(gen.iter)
                        ),
                    )
                out = _merge_var(
                    out, _var_state(inner[0], inner[1], inner[2], False)
                )
            return out
        return _EMPTY_VAR

    def _source(self, node: ast.AST, kind: str, label: str) -> tuple:
        step = FlowStep(
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            f"{kind} value originates here: {label}",
        )
        return _var_state(taints=((kind, (step,)),))

    def _eval_call(self, call: ast.Call, state) -> tuple:
        func = call.func
        source_kind = _source_kind(call)
        if source_kind is not None:
            return self._source(call, source_kind, _short(call))
        name, base = _call_name(func)
        args = list(call.args) + [
            kw.value for kw in call.keywords if kw.value is not None
        ]
        if name == "sorted" or name in _LAUNDER_CALLS:
            out = _EMPTY_VAR
            for arg in args:
                inner = self.eval(arg, state)
                taints = tuple(
                    t for t in inner[0] if t[0] != "set-order"
                )
                out = _merge_var(
                    out, _var_state(taints, inner[1], inner[2], False)
                )
            if name in ("len", "sum"):
                return _EMPTY_VAR  # aggregate is order-insensitive
            return out
        if name in ("set", "frozenset"):
            out = _var_state(is_set=True)
            for arg in args:
                inner = self.eval(arg, state)
                taints = tuple(
                    t for t in inner[0] if t[0] != "set-order"
                )
                out = _merge_var(
                    out, _var_state(taints, inner[1], inner[2], True)
                )
            return out
        if name in ("list", "tuple") and args:
            inner = self.eval(args[0], state)
            out = _var_state(inner[0], inner[1], inner[2], False)
            if inner[3]:
                out = _merge_var(
                    out, self._source(call, "set-order", _short(call))
                )
            return out
        if name == "join" and isinstance(func, ast.Attribute) and args:
            inner = self.eval(args[0], state)
            out = _var_state(inner[0], inner[1], inner[2], False)
            if inner[3] or _is_setish_literal(args[0]):
                out = _merge_var(
                    out, self._source(call, "set-order", _short(call))
                )
            return out
        if name in _PROPAGATING_CALLS:
            out = _EMPTY_VAR
            for arg in args:
                out = _merge_var(out, self.eval(arg, state))
            return _var_state(out[0], out[1], out[2], False)
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, state)
            if receiver[0] or receiver[1] or receiver[2]:
                # method call on a tracked value: result derives from it
                return _var_state(
                    receiver[0], receiver[1], receiver[2], False
                )
        # Unknown call: the result's provenance is the call site itself;
        # argument taint crosses through summaries, never by guessing.
        origin = (base, name, call.lineno, call.col_offset, ())
        return _var_state(origins=(origin,)) if name else _EMPTY_VAR

    # -- statement transfer -----------------------------------------------

    def transfer(self, node: CfgNode, state):
        stmt = node.stmt
        out = dict(state)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(stmt, "value", None)
            if value is None:
                return out
            derived = self.eval(value, out)
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for name_node in _target_names(target):
                    step = FlowStep(
                        stmt.lineno,
                        stmt.col_offset,
                        f"assigned to {name_node.id}: "
                        f"{name_node.id} = {_short(value)}",
                    )
                    tracked = (
                        derived
                        if not (
                            derived[0] or derived[1] or derived[2]
                        )
                        else _with_step(derived, step)
                    )
                    if isinstance(stmt, ast.AugAssign):
                        prior = out.get(name_node.id, _EMPTY_VAR)
                        tracked = _merge_var(prior, tracked)
                    out[name_node.id] = tracked
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            source = self.eval(stmt.iter, out)
            element = _var_state(source[0], source[1], source[2], False)
            if source[3]:
                step = FlowStep(
                    stmt.lineno,
                    stmt.col_offset,
                    f"iterates a set in hash order: {_short(stmt.iter)}",
                )
                element = _merge_var(
                    element, _var_state(taints=(("set-order", (step,)),))
                )
            for name_node in _target_names(stmt.target):
                out[name_node.id] = element
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is None:
                    continue
                for name_node in _target_names(item.optional_vars):
                    out[name_node.id] = self.eval(
                        item.context_expr, out
                    )
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.pop(target.id, None)
        return out


def _target_names(target: ast.expr) -> Iterator[ast.Name]:
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _call_name(func: ast.expr) -> Tuple[str, Optional[str]]:
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        base = (
            func.value.id if isinstance(func.value, ast.Name) else None
        )
        return func.attr, base
    return "", None


def _source_kind(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "id":
            return "id()"
        if func.id == "getenv":
            return "os.environ"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    base: Optional[str] = None
    if isinstance(receiver, ast.Name):
        base = receiver.id
    elif isinstance(receiver, ast.Attribute):
        base = receiver.attr  # datetime.datetime.now()
    if base is None:
        return None
    if (base, func.attr) in _WALLCLOCK_CALLS:
        return "wall-clock"
    if base == "random" and func.attr in _GLOBAL_RANDOM_FNS:
        return "unseeded-random"
    if base == "os" and func.attr == "getenv":
        return "os.environ"
    if base == "environ" and func.attr == "get":
        return "os.environ"
    if func.attr == "get" and _is_environ(receiver):
        return "os.environ"
    return None


def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "environ"
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return False


def _is_set_op(expr: ast.BinOp) -> bool:
    return isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    )


def _is_setish_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


# ---------------------------------------------------------------------------
# Function analysis: taint facts


def analyze_function(scope: ast.AST) -> FlowFact:
    """Distill one function (or module) scope into its flow facts."""
    cfg = build_cfg(scope)
    params: Tuple[str, ...] = ()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        names = list(getattr(args, "posonlyargs", []))
        names += list(args.args) + list(args.kwonlyargs)
        params = tuple(arg.arg for arg in names)
    machine = _TaintMachine(params)
    in_states = solve_forward(
        cfg, machine.transfer, machine.initial, _join_states
    )
    collector = _FactCollector(machine, cfg, in_states, params)
    collector.run()
    return FlowFact(
        return_taint=collector.return_taint,
        params_to_return=tuple(sorted(collector.params_to_return)),
        calls_to_return=tuple(collector.calls_to_return),
        sinks=tuple(collector.sinks),
        tainted_args=tuple(collector.tainted_args),
        param_calls=tuple(collector.param_calls),
        releases_params=tuple(sorted(collector.releases_params)),
        mutated_params=tuple(sorted(_mutated_params(scope, params))),
        resources=tuple(_leak_analysis(cfg)),
        shared_writes=tuple(_shared_writes(scope)),
    )


def _mutated_params(scope: ast.AST, params: Sequence[str]) -> Set[str]:
    """Parameters whose attributes the function assigns or deletes.

    ``self``/``cls`` are excluded: a method mutating its own instance
    is ordinary object construction (RC111's depth-0 case judges
    whether the instance was frozen), not a parameter the caller's
    arguments flow into.
    """
    param_set = set(params) - {"self", "cls"}
    if not param_set:
        return param_set
    return {
        var
        for node in walk_scope(scope)
        for var, _target in attribute_writes(node)
        if var in param_set
    }


class _FactCollector:
    """Second pass over the solved CFG: sinks, returns, call arguments."""

    def __init__(self, machine, cfg, in_states, params) -> None:
        self.machine = machine
        self.cfg = cfg
        self.in_states = in_states
        self.params = set(params)
        self.return_taint: Tuple[FlowStep, ...] = ()
        self.params_to_return: Set[str] = set()
        self.calls_to_return: List[CallOrigin] = []
        self.sinks: List[SinkFlow] = []
        self.tainted_args: List[CallOrigin] = []
        self.param_calls: List[Tuple[str, CallOrigin]] = []
        self.releases_params: Set[str] = set()

    def run(self) -> None:
        for node in self.cfg.stmt_nodes():
            state = self.in_states.get(node.index, {})
            stmt = node.stmt
            assert stmt is not None
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self._record_return(stmt, state)
            for call in self._calls_in(stmt):
                self._record_call(call, state)

    def _calls_in(self, stmt: ast.stmt) -> Iterator[ast.Call]:
        for node in _walk_exprs(stmt):
            if isinstance(node, ast.Call):
                yield node

    def _record_return(self, stmt: ast.Return, state) -> None:
        value = self.machine.eval(stmt.value, state)
        step = FlowStep(
            stmt.lineno,
            stmt.col_offset,
            f"returned: return {_short(stmt.value)}",
        )
        if value[0] and not self.return_taint:
            self.return_taint = _cap(value[0][0][1] + (step,))
        for base, name, lineno, col, steps in value[1]:
            self.calls_to_return.append(
                CallOrigin(
                    base, name, lineno, col, None, _cap(steps + (step,))
                )
            )
        for param, _steps in value[2]:
            self.params_to_return.add(param)

    def _record_call(self, call: ast.Call, state) -> None:
        name, base = _call_name(call.func)
        if not name:
            return
        if (
            isinstance(call.func, ast.Attribute)
            and name in RELEASE_METHODS
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self.params
        ):
            self.releases_params.add(call.func.value.id)
        slots: List[Tuple[object, ast.expr]] = list(enumerate(call.args))
        slots += [
            (kw.arg, kw.value)
            for kw in call.keywords
            if kw.arg is not None
        ]
        if name in TAINT_SINKS:
            self._record_sink(call, name, slots, state)
            return
        for position, arg in slots:
            value = self.machine.eval(arg, state)
            site = FlowStep(
                call.lineno,
                call.col_offset,
                f"passed into {name}() as argument {position}",
            )
            if value[0]:
                self.tainted_args.append(
                    CallOrigin(
                        base,
                        name,
                        call.lineno,
                        call.col_offset,
                        position,
                        _cap(value[0][0][1] + (site,)),
                    )
                )
            for param, steps in value[2]:
                self.param_calls.append(
                    (
                        param,
                        CallOrigin(
                            base,
                            name,
                            call.lineno,
                            call.col_offset,
                            position,
                            _cap(steps + (site,)),
                        ),
                    )
                )

    def _record_sink(self, call, label, slots, state) -> None:
        taint_steps: Tuple[FlowStep, ...] = ()
        from_calls: List[CallOrigin] = []
        from_params: List[Tuple[str, Tuple[FlowStep, ...]]] = []
        sink_step = FlowStep(
            call.lineno,
            call.col_offset,
            f"reaches the reproducibility sink {label}()",
        )
        for _position, arg in slots:
            value = self.machine.eval(arg, state)
            if value[0] and not taint_steps:
                taint_steps = _cap(value[0][0][1] + (sink_step,))
            for origin_base, name, lineno, col, steps in value[1]:
                from_calls.append(
                    CallOrigin(
                        origin_base,
                        name,
                        lineno,
                        col,
                        None,
                        _cap(steps + (sink_step,)),
                    )
                )
            for param, steps in value[2]:
                from_params.append((param, _cap(steps + (sink_step,))))
        self.sinks.append(
            SinkFlow(
                label=f"{label}()",
                lineno=call.lineno,
                col=call.col_offset,
                taint_steps=taint_steps,
                from_calls=tuple(from_calls),
                from_params=tuple(from_params),
            )
        )


def _cap(steps: Tuple[FlowStep, ...]) -> Tuple[FlowStep, ...]:
    if len(steps) <= _MAX_STEPS:
        return steps
    return steps[: _MAX_STEPS - 1] + (steps[-1],)


# ---------------------------------------------------------------------------
# Resource-leak analysis


def _acquire_label(value: ast.expr) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Name):
        if func.id == "socket":
            return None  # bare socket() is not the stdlib spelling
        return ACQUIRE_LABELS.get(func.id)
    if isinstance(func, ast.Attribute):
        if func.attr == "socket" and isinstance(func.value, ast.Name):
            if func.value.id == "socket":
                return ACQUIRE_LABELS["socket"]
            return None
        if func.attr == "open":
            return None  # Path.open / gzip.open often wrap with-blocks
        return ACQUIRE_LABELS.get(func.attr)
    return None


def _mentions(expr: Optional[ast.AST], var: str) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(node, ast.Name) and node.id == var
        for node in ast.walk(expr)
    )


def _bare_names(expr: ast.expr) -> Set[str]:
    """Names appearing as direct value positions of *expr* (not inside
    calls): the spellings that hand the object itself to the caller."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        out: Set[str] = set()
        for element in expr.elts:
            out |= _bare_names(element)
        return out
    if isinstance(expr, ast.Dict):
        out = set()
        for value in expr.values:
            out |= _bare_names(value)
        return out
    if isinstance(expr, ast.IfExp):
        return _bare_names(expr.body) | _bare_names(expr.orelse)
    if isinstance(expr, ast.Starred):
        return _bare_names(expr.value)
    if isinstance(expr, ast.Await):
        return _bare_names(expr.value)
    return set()


def _node_events(stmt: ast.stmt, var: str):
    """Classify *stmt* for the leak search of *var*.

    Returns ``(releases, escapes, tokens)`` where tokens are the calls
    the variable is passed into — each a potential release resolved
    against callee summaries at project time.
    """
    releases = False
    escapes = False
    tokens: List[Tuple[Optional[str], str, int, int, object]] = []
    if isinstance(stmt, ast.Return):
        # Only a *bare* name position transfers ownership out
        # (``return handle``, ``return handle, size``); a call in the
        # return expression (``return parse(handle)``) is scanned below
        # like any other call so the callee summary decides.
        if stmt.value is not None and var in _bare_names(stmt.value):
            escapes = True
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if _mentions(item.context_expr, var):
                releases = True  # a context manager owns it now
        return releases, escapes, tokens
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id == var:
                releases = True  # rebinding ends the tracked lifetime
            elif isinstance(
                target, (ast.Attribute, ast.Subscript)
            ) and _mentions(stmt.value, var):
                escapes = True  # stored into longer-lived state
    for node in _walk_exprs(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if _mentions(node, var):
                escapes = True
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == var
            and func.attr in RELEASE_METHODS
        ):
            releases = True
        name, base = _call_name(func)
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id == var:
                tokens.append(
                    (base, name, node.lineno, node.col_offset, position)
                )
        for kw in node.keywords:
            if (
                kw.arg is not None
                and isinstance(kw.value, ast.Name)
                and kw.value.id == var
            ):
                tokens.append(
                    (base, name, node.lineno, node.col_offset, kw.arg)
                )
    return releases, escapes, tokens


def _leak_analysis(cfg: ControlFlowGraph) -> Iterator[ResourceFlow]:
    """Path-sensitive acquire/release audit over one solved CFG."""
    acquisitions: List[Tuple[int, str, str, ast.stmt]] = []
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        label = _acquire_label(stmt.value)
        if label is not None:
            acquisitions.append((node.index, label, target.id, stmt))
    for index, label, var, stmt in acquisitions:
        events: Dict[int, Tuple[bool, bool, list]] = {}
        for node in cfg.stmt_nodes():
            if node.index == index:
                continue
            assert node.stmt is not None
            events[node.index] = _node_events(node.stmt, var)
        strict = _find_leak_path(cfg, index, events, allow_token=None)
        if strict is not None:
            yield ResourceFlow(
                label=label,
                var=var,
                lineno=stmt.lineno,
                col=stmt.col_offset,
                leak_steps=_leak_witness(cfg, label, var, stmt, strict),
            )
            continue
        guards: List[CallOrigin] = []
        seen_tokens: Set[Tuple] = set()
        for node_index, (_r, _e, tokens) in sorted(events.items()):
            for token in tokens:
                key = (node_index,) + tuple(token)
                if key in seen_tokens:
                    continue
                seen_tokens.add(key)
                path = _find_leak_path(
                    cfg, index, events, allow_token=node_index
                )
                if path is None:
                    continue
                base, name, lineno, col, position = token
                guards.append(
                    CallOrigin(
                        base,
                        name,
                        lineno,
                        col,
                        position,
                        _leak_witness(cfg, label, var, stmt, path),
                    )
                )
        if guards:
            yield ResourceFlow(
                label=label,
                var=var,
                lineno=stmt.lineno,
                col=stmt.col_offset,
                guards=tuple(guards),
            )


def _find_leak_path(
    cfg: ControlFlowGraph,
    acquire: int,
    events: Dict[int, Tuple[bool, bool, list]],
    allow_token: Optional[int],
) -> Optional[List[Tuple[int, str]]]:
    """A path from the acquisition to EXIT crossing no release.

    Nodes carrying a release/escape/token event are dead ends (a token
    is generously assumed to release), except *allow_token*, whose call
    is hypothetically non-releasing.  The acquisition's own raise edge
    is skipped: if the constructor raises, nothing was acquired.
    Returns the edge path ``[(node, edge_kind), ...]`` or None.
    """
    start_edges = [
        (dst, kind)
        for dst, kind in cfg.nodes[acquire].succs
        if kind != RAISE
    ]
    parent: Dict[int, Tuple[int, str]] = {}
    stack: List[Tuple[int, str]] = []
    visited: Set[int] = {acquire}
    for dst, kind in start_edges:
        if dst not in visited:
            visited.add(dst)
            parent[dst] = (acquire, kind)
            stack.append((dst, kind))
    while stack:
        index, _kind = stack.pop()
        if index == EXIT:
            path: List[Tuple[int, str]] = []
            cursor = index
            while cursor != acquire:
                prev, edge = parent[cursor]
                path.append((cursor, edge))
                cursor = prev
            path.reverse()
            return path
        releases, escapes, tokens = events.get(index, (False, False, []))
        blocked = releases or escapes
        if tokens and index != allow_token:
            blocked = True
        if blocked:
            continue
        for dst, kind in cfg.nodes[index].succs:
            if dst not in visited:
                visited.add(dst)
                parent[dst] = (index, kind)
                stack.append((dst, kind))
    return None


def _leak_witness(
    cfg: ControlFlowGraph,
    label: str,
    var: str,
    acquire_stmt: ast.stmt,
    path: List[Tuple[int, str]],
) -> Tuple[FlowStep, ...]:
    steps: List[FlowStep] = [
        FlowStep(
            acquire_stmt.lineno,
            acquire_stmt.col_offset,
            f"{label} acquired into {var!r}",
        )
    ]
    # Each path entry is ``(dst, edge_kind)``; the edge kind describes
    # how control *left the previous node*, so notes attach there.
    prev_stmt: Optional[ast.stmt] = acquire_stmt
    exit_line = acquire_stmt.lineno
    for index, kind in path:
        edge_stmt = prev_stmt
        node_stmt = (
            cfg.nodes[index].stmt if index not in (ENTRY, EXIT) else None
        )
        if node_stmt is not None:
            prev_stmt = node_stmt
            exit_line = node_stmt.lineno
        note: Optional[str] = None
        if kind == RAISE and edge_stmt is not None:
            note = (
                f"if this raises, control leaves without releasing "
                f"{var!r}: {_short(edge_stmt)}"
            )
        elif kind == BRANCH and edge_stmt is not None:
            note = f"takes this branch: {_short(edge_stmt)}"
        if note is not None and len(steps) < _MAX_STEPS - 1:
            steps.append(
                FlowStep(edge_stmt.lineno, edge_stmt.col_offset, note)
            )
    steps.append(
        FlowStep(
            exit_line,
            0,
            f"function exit reached with {var!r} still unreleased",
        )
    )
    return tuple(steps)


# ---------------------------------------------------------------------------
# Shared-state writes (RC115 raw material)


def _shared_writes(scope: ast.AST) -> Iterator[SharedWrite]:
    """``self.attr`` rebindings in *scope*, flagged with lock coverage."""
    yield from _walk_writes(getattr(scope, "body", []), locked=False)


def _walk_writes(
    body: Sequence[ast.stmt], locked: bool
) -> Iterator[SharedWrite]:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested scopes report their own writes
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            covered = locked or any(
                _is_lockish(item.context_expr) for item in stmt.items
            )
            yield from _walk_writes(stmt.body, covered)
            continue
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield SharedWrite(
                        target=f"self.{target.attr}",
                        lineno=stmt.lineno,
                        col=stmt.col_offset,
                        locked=locked,
                    )
        for child_body in _child_bodies(stmt):
            yield from _walk_writes(child_body, locked)


def _child_bodies(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        child = getattr(stmt, attr, None)
        if isinstance(child, list) and not isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            yield child
    for handler in getattr(stmt, "handlers", []):
        yield handler.body


def _is_lockish(expr: ast.expr) -> bool:
    text = _short(expr, 80).lower()
    return any(marker in text for marker in _LOCK_MARKERS)


# ---------------------------------------------------------------------------
# Project-time interprocedural resolution


@dataclass(frozen=True)
class ParamEffect:
    """What a function does with one parameter, itself or via helpers.

    ``sink`` is ``(sink_label, witness)`` when the parameter reaches a
    taint sink (RC113), ``released`` when the function releases it
    (RC114), ``mutated`` when it assigns or deletes one of its
    attributes (RC111).
    """

    sink: Optional[Tuple[str, Tuple[Tuple[str, FlowStep], ...]]] = None
    released: bool = False
    mutated: bool = False


_NO_EFFECT = ParamEffect()

#: A blocking site a coroutine reaches through sync calls only:
#: ``(first call in the coroutine, (callee_rel, callee_qualname), site,
#: qualname path from the coroutine to the callee)``.
BlockingPath = Tuple["CallFact", Tuple[str, str], "BlockingSite", Tuple[str, ...]]


class FlowResolver:
    """Interprocedural closure over per-function flow summaries.

    Built once per run from the :class:`~repro.check.graph.ProjectGraph`
    and shared by every rule that needs a call-graph walk (RC110,
    RC111, RC113–RC115).  All methods memoize; all recursion is
    cycle-guarded; witnesses returned here are ``(rel, FlowStep)``
    pairs — module-qualified, ready to become SARIF ``codeFlow``
    locations.
    """

    def __init__(self, graph: "ProjectGraph") -> None:
        self.graph = graph
        self._return_taint: Dict[Tuple[str, str], Optional[tuple]] = {}
        self._param_effects: Dict[Tuple[str, str, str], ParamEffect] = {}
        self._async_reach: Optional[
            Dict[Tuple[str, str], List[tuple]]
        ] = None
        self._blocking: Dict[Tuple[str, str], List[BlockingPath]] = {}

    # -- taint summaries ---------------------------------------------------

    def return_taint(
        self, rel: str, qualname: str
    ) -> Optional[Tuple[Tuple[str, FlowStep], ...]]:
        """Witness when the function's return value is tainted."""
        return self._taint_walk((rel, qualname), set())[0]

    def _taint_walk(
        self, key: Tuple[str, str], visiting: Set[Tuple[str, str]]
    ) -> Tuple[Optional[Tuple[Tuple[str, FlowStep], ...]], Set[tuple]]:
        """``(witness, cut)``, memoized like :meth:`_param_walk`."""
        if key in self._return_taint:
            return self._return_taint[key], set()
        if key in visiting:
            return None, {key}
        visiting.add(key)
        rel, qualname = key
        result: Optional[Tuple[Tuple[str, FlowStep], ...]] = None
        cut: Set[tuple] = set()
        fn = self.graph.function(rel, qualname)
        if fn is not None and fn.flow.return_taint:
            result = tuple((rel, step) for step in fn.flow.return_taint)
        elif fn is not None:
            for origin in fn.flow.calls_to_return:
                callee = self.graph.resolve_call(
                    rel, fn.owner_class, origin.base, origin.name
                )
                if callee is None or callee == key:
                    continue
                sub, sub_cut = self._taint_walk(callee, visiting)
                cut |= sub_cut
                if sub is None:
                    continue
                bridge = (
                    rel,
                    FlowStep(
                        origin.lineno,
                        origin.col,
                        f"tainted result returned by {origin.name}()",
                    ),
                )
                result = sub + (bridge,) + tuple(
                    (rel, step) for step in origin.steps
                )
                break
        visiting.discard(key)
        cut.discard(key)
        if not cut:
            self._return_taint[key] = result
        return result, cut

    # -- parameter effects -------------------------------------------------

    def param_effect(self, rel: str, qualname: str, param: str) -> ParamEffect:
        """What ``qualname`` does with *param*, directly or via helpers.

        One walk over the parameter's summary and the calls it is
        passed into answers all three questions at once.
        """
        return self._param_walk((rel, qualname, param), set())[0]

    def _param_walk(
        self,
        key: Tuple[str, str, str],
        visiting: Set[Tuple[str, str, str]],
    ) -> Tuple[ParamEffect, Set[Tuple[str, str, str]]]:
        """``(effect, cut)``: *cut* holds the in-progress keys a cycle
        skipped.  An effect is memoized only when nothing was cut, so a
        cycle member never caches an answer missing its ancestors'."""
        if key in self._param_effects:
            return self._param_effects[key], set()
        if key in visiting:
            return _NO_EFFECT, {key}
        visiting.add(key)
        rel, qualname, param = key
        sink = None
        released = mutated = False
        cut: Set[Tuple[str, str, str]] = set()
        fn = self.graph.function(rel, qualname)
        if fn is not None:
            flow = fn.flow
            released = param in flow.releases_params
            mutated = param in flow.mutated_params
            for found in flow.sinks:
                steps = next(
                    (ps for name, ps in found.from_params if name == param),
                    None,
                )
                if steps is not None:
                    sink = (found.label, tuple((rel, step) for step in steps))
                    break
            for name, origin in flow.param_calls:
                if name != param:
                    continue
                callee = self.graph.resolve_call(
                    rel, fn.owner_class, origin.base, origin.name
                )
                if callee is None or callee == (rel, qualname):
                    continue
                callee_param = self.graph.param_name(
                    callee, origin.position, origin.base
                )
                if callee_param is None:
                    continue
                sub, sub_cut = self._param_walk(
                    (callee[0], callee[1], callee_param), visiting
                )
                cut |= sub_cut
                if sink is None and sub.sink is not None:
                    label, sub_steps = sub.sink
                    here = tuple((rel, step) for step in origin.steps)
                    sink = (label, here + sub_steps)
                released = released or sub.released
                mutated = mutated or sub.mutated
        visiting.discard(key)
        cut.discard(key)
        effect = ParamEffect(sink, released, mutated)
        if not cut:
            self._param_effects[key] = effect
        return effect, cut

    # -- async reachability ------------------------------------------------

    def async_roots(
        self, rel: str, qualname: str
    ) -> List[Tuple[str, str, Tuple[Tuple[str, FlowStep], ...]]]:
        """Async functions that can reach ``(rel, qualname)``.

        Each entry is ``(root_rel, root_qualname, witness)`` where the
        witness walks the call chain from the handler to the target.
        Sorted for deterministic reporting.
        """
        self._walk_async()
        assert self._async_reach is not None
        return self._async_reach.get((rel, qualname), [])

    def blocking_paths(self, rel: str, qualname: str) -> List[BlockingPath]:
        """Blocking sites the coroutine ``(rel, qualname)`` reaches
        through synchronous project functions only.

        One entry per blocking site of each such function, sorted by
        the coroutine's call that starts the path.  Sites in the
        coroutine's own body are not included; an awaited coroutine
        reports its own.
        """
        self._walk_async()
        return self._blocking.get((rel, qualname), [])

    def _walk_async(self) -> None:
        """One breadth-first walk per ``async def`` over the call graph.

        Each queued path remembers whether it ran through sync calls
        only: every path feeds :meth:`async_roots`, and the sync-only
        ones feed :meth:`blocking_paths`.
        """
        if self._async_reach is not None:
            return
        from .graph import MODULE_QUALNAME

        reach: Dict[Tuple[str, str], List[tuple]] = {}
        for target_rel in sorted(self.graph.facts):
            facts = self.graph.facts[target_rel]
            for fn in facts.functions:
                if not fn.is_async or fn.qualname == MODULE_QUALNAME:
                    continue
                root = (target_rel, fn.qualname)
                root_step = (
                    target_rel,
                    FlowStep(
                        fn.lineno,
                        fn.col,
                        f"async def {fn.qualname} can run concurrently",
                    ),
                )
                blocking: List[BlockingPath] = []
                # (function, witness trail, sync-only path or None);
                # the sync-only path is (first call, qualname chain).
                queue: Deque[tuple] = deque(
                    [(root, (root_step,), (None, (fn.qualname,)))]
                )
                seen: Set[Tuple[Tuple[str, str], bool]] = set()
                while queue:
                    current, trail, sync = queue.popleft()
                    if (current, sync is not None) in seen:
                        continue
                    seen.add((current, sync is not None))
                    entry = reach.setdefault(current, [])
                    if all(existing[:2] != root for existing in entry):
                        entry.append((root[0], root[1], trail))
                    cur_fn = self.graph.function(*current)
                    if cur_fn is None:
                        continue
                    if sync is not None and current != root:
                        first, chain = sync
                        for site in cur_fn.blocking:
                            blocking.append((first, current, site, chain))
                    for call in cur_fn.calls:
                        callee = self.graph.resolve_call(
                            current[0],
                            cur_fn.owner_class,
                            call.base,
                            call.name,
                        )
                        if callee is None:
                            continue
                        callee_fn = self.graph.function(*callee)
                        callee_sync = None
                        if (
                            sync is not None
                            and callee_fn is not None
                            and not callee_fn.is_async
                        ):
                            callee_sync = (
                                sync[0] or call,
                                sync[1] + (callee[1],),
                            )
                        if (callee, callee_sync is not None) in seen:
                            continue
                        hop = (
                            current[0],
                            FlowStep(
                                call.lineno,
                                call.col,
                                f"calls {call.name}()",
                            ),
                        )
                        if len(trail) < _MAX_STEPS - 1:
                            queue.append(
                                (callee, trail + (hop,), callee_sync)
                            )
                        else:
                            queue.append((callee, trail, callee_sync))
                blocking.sort(
                    key=lambda item: (
                        item[0].lineno, item[0].col, item[1], item[2].lineno
                    )
                )
                self._blocking[root] = blocking
        for entries in reach.values():
            entries.sort(key=lambda item: (item[0], item[1]))
        self._async_reach = reach
