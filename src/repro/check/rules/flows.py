"""Path-sensitive flow rules: RC113 (nondeterminism taint) and RC115
(unserialized shared-state mutation).

These two consume the per-function flow summaries distilled by
:mod:`repro.check.dataflow` and the interprocedural closure
(:class:`~repro.check.dataflow.FlowResolver`) built over the project
call graph.  Unlike the RC103 pattern rule they reason about
*paths*: each finding carries a step-by-step witness — where the value
was born, how it moved, where it sank — rendered as indented steps in
text mode and as SARIF ``codeFlows`` on the PR diff.

Both inherit the call graph's conservatism: an interprocedural
step exists only when the callee resolves unambiguously, so the rules
under-report rather than guess, and a suppression is expected to be
rare and always justified.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

from ..dataflow import FlowStep
from ..graph import MODULE_QUALNAME
from ..model import (
    CheckFinding,
    CheckRule,
    WitnessStep,
    register_check_rule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dataflow import FlowResolver
    from ..graph import FunctionFact, ModuleFacts, ProjectGraph

__all__ = [
    "NoTaintedDigests",
    "NoUnserializedSharedWrites",
]

#: Modules whose instance state is served concurrently: the serve layer
#: plus the classes it swaps atomically.  RC115 confines itself to this
#: surface — a dataclass mutating itself in a batch pipeline is not a
#: concurrency bug.
_SERVE_PREFIX = "repro.serve"
_SERVE_CLASSES = frozenset({"SnapshotManager"})

#: Constructor-phase methods where unlocked writes are the norm: the
#: object is not yet published to other tasks.
_CONSTRUCTOR_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__set_name__"}
)


def _localize(
    rel: str, steps: Tuple[FlowStep, ...]
) -> Tuple[WitnessStep, ...]:
    """Module-local flow steps → module-qualified witness steps."""
    return tuple(
        WitnessStep(rel, step.lineno, step.col, step.note)
        for step in steps
    )


def _qualified(
    steps: Tuple[Tuple[str, FlowStep], ...]
) -> Tuple[WitnessStep, ...]:
    """Resolver-produced ``(rel, step)`` pairs → witness steps."""
    return tuple(
        WitnessStep(rel, step.lineno, step.col, step.note)
        for rel, step in steps
    )


@register_check_rule
class NoTaintedDigests(CheckRule):
    """No nondeterministic value may flow into a result digest, golden
    fixture, or bench trajectory.

    The repo's core guarantee is that every fast engine is bit-identical
    to the frozen reference, and the proof is a sha256 ``result_digest``
    plus committed ``BENCH_*`` trajectories.  A wall-clock read, an
    unseeded ``random`` draw, an ``os.environ`` lookup, an ``id()``, or
    an iteration over an unsorted ``set`` that reaches one of those
    sinks makes the digest compare two runs of the *clock* instead of
    two runs of the engine.  RC103 flags the patterns at their call
    sites; this rule tracks the *value*: through assignments, branches,
    f-strings, and — via per-function summaries propagated along the
    call graph — through helper returns and parameters, and reports the
    full path as a witness.  Laundering is recognized: ``sorted()``
    drops set-order dependence, ``len()``/``sum()`` are
    order-insensitive aggregates.

    Remediation: Derive the value deterministically (seeded RNG from
    the context, explicit parameters instead of ``os.environ``,
    ``sorted()`` before iterating a set) or keep it out of the digest:
    timestamps belong in the trajectory's *metadata* fields, never in
    the digested payload.
    """

    code = "RC113"
    title = "no nondeterministic value flows into a digest or trajectory"
    scope = "project"

    worked_example = """\
def bench(ctx):
    started = time.time()          # wall-clock value originates here
    label = f"run-{started}"       # assigned to label
    result_digest(ctx, label)      # reaches the reproducibility sink

The witness names each step; the fix is to digest only the payload
and record `started` in the trajectory metadata instead.  The
interprocedural variant is caught the same way:

def stamp():
    return time.time()             # summary: return value is tainted

def bench(ctx):
    result_digest(ctx, stamp())    # caller sees the tainted summary"""

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        resolver = graph.flow_resolver()
        for fn in facts.functions:
            yield from self._sink_findings(facts, graph, resolver, fn)
            yield from self._arg_findings(facts, graph, resolver, fn)

    def _sink_findings(
        self, facts, graph, resolver: "FlowResolver", fn: "FunctionFact"
    ) -> Iterator[CheckFinding]:
        """Sinks in this function fed by local taint or helper returns."""
        for sink in fn.flow.sinks:
            if sink.taint_steps:
                witness = _localize(facts.rel, sink.taint_steps)
                yield self.finding_at(
                    facts.rel,
                    sink.lineno,
                    sink.col,
                    f"nondeterministic value flows into {sink.label}: "
                    f"{sink.taint_steps[0].note}",
                    flow=witness,
                )
                continue  # one finding per sink occurrence
            for origin in sink.from_calls:
                callee = graph.resolve_call(
                    facts.rel, fn.owner_class, origin.base, origin.name
                )
                if callee is None:
                    continue
                upstream = resolver.return_taint(*callee)
                if upstream is None:
                    continue
                bridge = WitnessStep(
                    facts.rel,
                    origin.lineno,
                    origin.col,
                    f"tainted value returned by {origin.name}() "
                    f"({callee[0]}:{callee[1]})",
                )
                witness = (
                    _qualified(upstream)
                    + (bridge,)
                    + _localize(facts.rel, origin.steps)
                )
                yield self.finding_at(
                    facts.rel,
                    sink.lineno,
                    sink.col,
                    f"nondeterministic value flows into {sink.label} "
                    f"via {origin.name}() ({callee[0]}:{callee[1]})",
                    flow=witness,
                )
                break  # one finding per sink occurrence

    def _arg_findings(
        self, facts, graph, resolver: "FlowResolver", fn: "FunctionFact"
    ) -> Iterator[CheckFinding]:
        """Tainted arguments handed to helpers that sink them."""
        seen: Set[Tuple[int, int]] = set()
        for arg in fn.flow.tainted_args:
            site = (arg.lineno, arg.col)
            if site in seen:
                continue
            callee = graph.resolve_call(
                facts.rel, fn.owner_class, arg.base, arg.name
            )
            if callee is None:
                continue
            param = graph.param_name(callee, arg.position, arg.base)
            if param is None:
                continue
            sunk = resolver.param_effect(*callee, param).sink
            if sunk is None:
                continue
            seen.add(site)
            label, downstream = sunk
            witness = _localize(facts.rel, arg.steps) + _qualified(
                downstream
            )
            yield self.finding_at(
                facts.rel,
                arg.lineno,
                arg.col,
                f"nondeterministic argument to {arg.name}() reaches "
                f"{label} inside {callee[1]} ({callee[0]})",
                flow=witness,
            )


@register_check_rule
class NoUnserializedSharedWrites(CheckRule):
    """Serve-layer instance state reachable from more than one async
    handler is only written under the serialization lock.

    ``SnapshotManager`` and the serve-module objects are shared by
    every in-flight request: the whole snapshot design hinges on
    writes going through the serialized apply path (``swap``/
    ``apply_updates`` under ``self._lock``) so a reader never observes
    a half-updated generation.  A bare ``self.attr = ...`` in a method
    reachable from two different ``async def`` handlers is a lost
    update waiting for load.  The rule walks the call graph from every
    async function; an unlocked attribute rebind in a method reachable
    from ≥2 distinct handlers is flagged with both handler chains as
    the witness.  Constructor-phase methods (``__init__`` and friends)
    are exempt — the object is not yet published.

    Remediation: Route the mutation through the serialized apply path,
    or take the object's lock (``with self._lock:``) around the write;
    if the attribute is genuinely task-local state, move it off the
    shared object.
    """

    code = "RC115"
    title = "serve-layer shared state is written only under the lock"
    scope = "project"

    worked_example = """\
class SnapshotManager:
    async def handle_reload(self):
        self._generation += 1      # unlocked write, and both
    async def handle_update(self):
        self._apply()
    def _apply(self):
        self._generation += 1      # reachable from 2 async handlers

The witness lists both handler chains and the write site.  The fix:
`with self._lock:` around the write — or better, funnel both
handlers through the one serialized apply method."""

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        resolver = graph.flow_resolver()
        for fn in facts.functions:
            if fn.qualname == MODULE_QUALNAME:
                continue
            method = fn.qualname.rsplit(".", 1)[-1]
            if method in _CONSTRUCTOR_METHODS:
                continue
            if not self._serve_surface(facts, fn):
                continue
            unlocked = [
                write for write in fn.flow.shared_writes
                if not write.locked
            ]
            if not unlocked:
                continue
            roots = resolver.async_roots(facts.rel, fn.qualname)
            if len(roots) < 2:
                continue
            chains: List[WitnessStep] = []
            for root_rel, root_qual, trail in roots[:2]:
                chains.extend(_qualified(trail))
            handlers = ", ".join(
                f"{qual} ({rel})" for rel, qual, _ in roots[:3]
            )
            for write in unlocked:
                witness = tuple(chains) + (
                    WitnessStep(
                        facts.rel,
                        write.lineno,
                        write.col,
                        f"writes {write.target} without holding the "
                        "serialization lock",
                    ),
                )
                yield self.finding_at(
                    facts.rel,
                    write.lineno,
                    write.col,
                    f"unserialized write to {write.target} in "
                    f"{fn.qualname} reachable from {len(roots)} async "
                    f"handlers ({handlers})",
                    flow=witness,
                )

    @staticmethod
    def _serve_surface(facts: "ModuleFacts", fn: "FunctionFact") -> bool:
        """True when *fn* mutates serve-layer (or snapshot) state."""
        if facts.module.startswith(_SERVE_PREFIX):
            return True
        return fn.owner_class in _SERVE_CLASSES
