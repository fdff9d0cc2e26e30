"""Per-function forward dataflow for the path-sensitive rules.

The AST rules judge one expression at a time; the call-graph rules
need *paths*: did this wall-clock read flow, through assignments and
helper calls, into a digest?  which async handlers can reach this
unlocked state write, or this ``time.sleep``?  does a frozen snapshot
reach a helper that assigns its attributes?  This module supplies the
machinery in three layers:

1. A structured walk over one function's statement tree (:class:`_Walk`).
   Python has only structured control flow, so the tree already is the
   control-flow graph: ``if`` and ``match`` join their arms, a loop
   iterates its body to a fixpoint, ``try`` sends the body's exceptions
   to its handlers and its other exits through ``finally``, and every
   statement that can raise adds an exception exit.  The taint domain
   plugs in: variable states with taint kinds (wall-clock, unseeded
   randomness, ``os.environ``, ``id()``, set-iteration order),
   call-site provenance, and parameter provenance, each with an
   accumulated *witness* — the step-by-step path later rendered as a
   SARIF ``codeFlow``.  The walk stays path-sensitive on purpose: a
   taint overwritten on every path out of an ``if``, or by a
   ``while`` loop's ``else`` that every normal exit runs, is clean,
   and one a ``break`` carries past that ``else`` is not.

2. :func:`analyze_function` distills one function scope into a
   serializable :class:`FlowFact` (stored inside the incremental cache
   alongside the other module facts).

3. :class:`FlowResolver` runs the *interprocedural* part at project
   time over cached facts.  It is the one place a rule walks the call
   graph: return taint (RC113), one walk per parameter answering
   sink/mutation (RC113, RC111), and one async-reachability walk
   answering which handlers reach a function and which blocking sites
   a coroutine reaches through sync calls only (RC115, RC110).

Everything here is conservative in the repo's established sense:
an interprocedural conclusion is drawn only when the call graph
resolves the callee unambiguously; anything ambiguous is dropped, so
the flow rules under-report rather than guess.
"""

from __future__ import annotations

import ast
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import reduce
from typing import (
    TYPE_CHECKING,
    Any,
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
    "TAINT_SINKS",
    "CallOrigin",
    "FlowFact",
    "FlowResolver",
    "FlowStep",
    "ParamEffect",
    "SharedWrite",
    "SinkFlow",
    "analyze_function",
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
#: the digest of an inference result, and the trajectory writers behind
#: the ``BENCH_*.json`` files (``write_benchmark`` for
#: ``BENCH_pipeline.json``; ``append_trajectory`` is the generic
#: spelling).  Golden-fixture writers keep the same naming convention.
TAINT_SINKS = frozenset(
    {"result_digest", "append_trajectory", "write_benchmark", "write_golden"}
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
    mutated_params: Tuple[str, ...] = ()
    shared_writes: Tuple[SharedWrite, ...] = ()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FlowFact":
        """Rebuild a flow record from ``dataclasses.asdict`` output."""
        return from_plain(cls, payload)  # type: ignore[no-any-return]


# ---------------------------------------------------------------------------
# Structured walk

#: ``match`` (3.10) and ``except*`` (3.11) are reached through
#: ``getattr`` so the walker still imports on 3.9, where nothing is an
#: instance of the empty tuple.
_MATCH = getattr(ast, "Match", ())
_MATCH_AS = getattr(ast, "MatchAs", ())
_TRIES = (ast.Try, getattr(ast, "TryStar", ()))
_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_WITHS = (ast.With, ast.AsyncWith)
#: Statements that may raise whatever their expressions are: a ``for``
#: header calls ``__next__`` and a ``with`` header ``__enter__``, while
#: a ``while`` header, like an ``if``, raises only through a call.
_ALWAYS_RAISE = (ast.Raise, ast.Assert, ast.For, ast.AsyncFor) + _WITHS
#: The exit a jump statement leaves by (a ``raise`` only by ``exc``).
_JUMPS = {ast.Return: "ret", ast.Raise: "", ast.Break: "brk", ast.Continue: "cont"}
#: Nodes a ``break``/``continue`` can sit under, and the ones it
#: cannot jump out of.
_JUMP_CARRIERS = (ast.stmt, ast.excepthandler, getattr(ast, "match_case", ()))
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Safety bound on the passes over one loop body.  Capped witnesses
#: and fan-ins keep the taint domain finite, so real loops settle in a few.
_MAX_PASSES = 50


#: The states leaving a statement list, one per way out.
_Exits = namedtuple("_Exits", "normal ret exc brk cont")


class _Walk:
    """Forward analysis of one function body over its statement tree.

    Python has only structured control flow, so the statement tree is
    the control-flow graph.  The *domain* supplies ``bottom`` (no path
    gets here), ``join``, and ``node(stmt, state, raises) -> (out,
    exc)`` for a simple statement or a compound statement's header; a
    loop settles when its back-edge state compares equal to the last
    pass's.  One coarse spot is deliberate: a ``finally`` entered by
    falling through, returning or raising both falls through and
    re-raises, so a ``return`` through it continues after the ``try``.
    """

    def __init__(self, domain: Any) -> None:
        self.domain = domain
        self.none = _Exits(*[domain.bottom] * 5)

    def _join(self, *states: Any) -> Any:
        return reduce(self.domain.join, states, self.domain.bottom)

    def _merge(self, *exits: _Exits) -> _Exits:
        return _Exits(*(self._join(*states) for states in zip(*exits)))

    def _node(self, stmt: ast.stmt, state: Any) -> Tuple[Any, Any]:
        return self.domain.node(stmt, state, _may_raise(stmt))

    def block(self, body: Sequence[ast.stmt], state: Any) -> _Exits:
        exits = self.none._replace(normal=state)
        for stmt in body:
            step = self.stmt(stmt, exits.normal)
            exits = self._merge(exits._replace(normal=self.domain.bottom), step)
        return exits

    def stmt(self, stmt: ast.stmt, state: Any) -> _Exits:
        if isinstance(stmt, ast.If):
            bodies = [stmt.body, stmt.orelse] if stmt.orelse else [stmt.body]
            return self._branches(stmt, state, bodies, not stmt.orelse)
        if isinstance(stmt, _MATCH):
            last = stmt.cases[-1]
            irrefutable = (
                last.guard is None
                and isinstance(last.pattern, _MATCH_AS)
                and last.pattern.pattern is None
            )
            bodies = [case.body for case in stmt.cases]
            return self._branches(stmt, state, bodies, not irrefutable)
        if isinstance(stmt, _LOOPS):
            return self._loop(stmt, state)
        if isinstance(stmt, _TRIES):
            return self._try(stmt, state)
        out, exc = self._node(stmt, state)
        if isinstance(stmt, _WITHS):
            body = self.block(stmt.body, out)
            return body._replace(exc=self._join(exc, body.exc))
        exits = self.none._replace(exc=exc)
        way = _JUMPS.get(type(stmt), "normal")
        return exits._replace(**{way: out}) if way else exits

    def _branches(
        self,
        stmt: ast.stmt,
        state: Any,
        bodies: List[List[ast.stmt]],
        falls_through: bool,
    ) -> _Exits:
        """``if``/``match``: each arm from the header, then joined."""
        head, exc = self._node(stmt, state)
        arms = [self.block(body, head) for body in bodies]
        rest = self.none._replace(
            normal=head if falls_through else self.domain.bottom, exc=exc
        )
        return self._merge(*arms, rest)

    def _loop(self, stmt: Any, state: Any) -> _Exits:
        """Iterate the body to a fixpoint; the statements keep the
        in-states of the last pass."""
        domain = self.domain
        back = domain.bottom
        for _ in range(_MAX_PASSES):
            head, exc = self._node(stmt, domain.join(state, back))
            body = self.block(stmt.body, head)
            again = domain.join(body.normal, body.cont)
            if again == back:
                break
            back = again
        orelse = (
            self.block(stmt.orelse, head)
            if stmt.orelse
            else self.none._replace(normal=head)
        )
        return _Exits(
            self._join(orelse.normal, body.brk),
            self._join(body.ret, orelse.ret),
            self._join(exc, body.exc, orelse.exc),
            orelse.brk,
            orelse.cont,
        )

    def _try(self, stmt: Any, state: Any) -> _Exits:
        """The body's exceptions go to every handler (or straight on);
        every other exit runs ``finally``."""
        body = self.block(stmt.body, state)
        handlers = [self.block(h.body, body.exc) for h in stmt.handlers]
        orelse = self.block(stmt.orelse, body.normal)
        escaped = body._replace(
            normal=self.domain.bottom,
            exc=self.domain.bottom if handlers else body.exc,
        )
        done = self._merge(escaped, orelse, *handlers)
        if not stmt.finalbody:
            return done
        # A ``break``/``continue`` runs ``finally`` on a walk of its
        # own and then leaves the way it came.  The shared walk goes
        # last, so the in-states a domain records are the shared walk's.
        jumps: List[_Exits] = []
        for way in sorted(_loop_jumps(stmt)):
            final = self.block(stmt.finalbody, getattr(done, way))
            left = self._join(getattr(final, way), final.normal)
            jumps.append(final._replace(normal=self.domain.bottom, **{way: left}))
        final = self.block(
            stmt.finalbody, self._join(done.normal, done.ret, done.exc)
        )
        return self._merge(
            final._replace(exc=self._join(final.exc, final.normal)), *jumps
        )


def _loop_jumps(stmt: Any) -> Set[str]:
    """The loop exits (``brk``, ``cont``) by which control can leave
    a ``try`` statement's body, handlers or ``else``."""
    found: Set[str] = set()
    stack: List[ast.AST] = [*stmt.body, *stmt.handlers, *stmt.orelse]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Break, ast.Continue)):
            found.add(_JUMPS[type(node)])
        elif isinstance(node, _LOOPS):
            stack.extend(node.orelse)  # the loop's own jumps stay inside
        elif not isinstance(node, _SCOPES):
            stack.extend(
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, _JUMP_CARRIERS)
            )
    return found


def _may_raise(stmt: ast.stmt) -> bool:
    """True when executing *stmt* (a compound one: its header) can
    transfer control exceptionally."""
    if isinstance(stmt, _ALWAYS_RAISE):
        return True
    return any(isinstance(node, ast.Call) for node in _walk_exprs(stmt))


def _walk_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk the expressions *executed by* this statement occurrence.

    Compound statements contribute only their header expressions (the
    walker visits their bodies statement by statement), and lambda
    bodies are skipped — they execute later, if at all.
    """
    headers: List[ast.AST]
    if isinstance(stmt, (ast.If, ast.While)):
        headers = [stmt.test]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        headers = [stmt.target, stmt.iter]
    elif isinstance(stmt, _WITHS):
        headers = [item.context_expr for item in stmt.items]
    elif isinstance(stmt, _MATCH):
        headers = [stmt.subject]
        headers += [case.guard for case in stmt.cases if case.guard]
    elif isinstance(stmt, _SCOPES):
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
    if not b:
        return a
    if not a:
        return b
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
    """*node*'s source, clipped; a compound statement by its header."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.11
        text = type(node).__name__
    if isinstance(node, ast.stmt):
        text = text.split("\n", 1)[0].rstrip(":")
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 1] + "…"


class _TaintMachine:
    """The taint domain of :class:`_Walk`: expression evaluation and
    statement transfer over variable states.

    A state maps names to var-states; ``{}`` is both "no path" and "no
    taint", as unreachable code still runs from an empty state.
    ``states`` keeps each statement's in-state (for a loop body, the
    last pass's) for :class:`_FactCollector`.
    """

    join = staticmethod(_join_states)

    def __init__(self, params: Sequence[str]) -> None:
        self.bottom: Dict[str, tuple] = {}
        self.initial = {
            param: _var_state(params=((param, ()),))
            for param in params
            if param not in ("self", "cls")
        }
        self.states: Dict[ast.stmt, Dict[str, tuple]] = {}

    def node(self, stmt: ast.stmt, state: Any, raises: bool) -> Tuple[Any, Any]:
        self.states[stmt] = state
        out = self.transfer(stmt, state)
        return out, (out if raises else self.bottom)

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

    def transfer(self, stmt: ast.stmt, state):
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
    params: Tuple[str, ...] = ()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        names = list(getattr(args, "posonlyargs", []))
        names += list(args.args) + list(args.kwonlyargs)
        params = tuple(arg.arg for arg in names)
    machine = _TaintMachine(params)
    body = getattr(scope, "body", [])
    _Walk(machine).block(body, machine.initial)
    collector = _FactCollector(machine)
    collector.run()
    return FlowFact(
        return_taint=collector.return_taint,
        params_to_return=tuple(sorted(collector.params_to_return)),
        calls_to_return=tuple(collector.calls_to_return),
        sinks=tuple(collector.sinks),
        tainted_args=tuple(collector.tainted_args),
        param_calls=tuple(collector.param_calls),
        mutated_params=tuple(sorted(_mutated_params(scope, params))),
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
    """Second pass over the walked statements: sinks, returns, call
    arguments."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.return_taint: Tuple[FlowStep, ...] = ()
        self.params_to_return: Set[str] = set()
        self.calls_to_return: List[CallOrigin] = []
        self.sinks: List[SinkFlow] = []
        self.tainted_args: List[CallOrigin] = []
        self.param_calls: List[Tuple[str, CallOrigin]] = []

    def run(self) -> None:
        for stmt, state in self.machine.states.items():
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                self._record_return(stmt, state)
            for node in _walk_exprs(stmt):
                if isinstance(node, ast.Call):
                    self._record_call(node, state)

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
    for case in getattr(stmt, "cases", []):
        yield case.body


def _is_lockish(expr: ast.expr) -> bool:
    text = _short(expr, 80).lower()
    return any(marker in text for marker in _LOCK_MARKERS)


# ---------------------------------------------------------------------------
# Project-time interprocedural resolution


@dataclass(frozen=True)
class ParamEffect:
    """What a function does with one parameter, itself or via helpers.

    ``sink`` is ``(sink_label, witness)`` when the parameter reaches a
    taint sink (RC113), ``mutated`` when the function assigns or
    deletes one of its attributes (RC111).
    """

    sink: Optional[Tuple[str, Tuple[Tuple[str, FlowStep], ...]]] = None
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
    RC111, RC113, RC115).  All methods memoize; all recursion is
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
        passed into answers both questions at once.
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
        mutated = False
        cut: Set[Tuple[str, str, str]] = set()
        fn = self.graph.function(rel, qualname)
        if fn is not None:
            flow = fn.flow
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
                mutated = mutated or sub.mutated
        visiting.discard(key)
        cut.discard(key)
        effect = ParamEffect(sink, mutated)
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
