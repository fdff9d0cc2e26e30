"""Snapshot immutability invariant: RC111.

The whole scaling architecture hangs off frozen snapshots: one
``AnalysisContext`` (with its ``RibSnapshot``) is built per run and
read by every engine, and the serve layer swaps
immutable ``LeaseIndex`` generations atomically.  Mutating one of
these after construction corrupts every consumer that assumed the
freeze — whether the assignment is written in place or hidden behind
any number of helpers the snapshot is passed into.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..graph import FROZEN_CLASSES
from ..model import CheckFinding, CheckRule, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graph import ModuleFacts, ProjectGraph

__all__ = ["NoTransitiveSnapshotMutation"]


@register_check_rule
class NoTransitiveSnapshotMutation(CheckRule):
    """Frozen snapshots are never mutated outside their defining
    module, directly or through helpers.

    ``AnalysisContext``, ``RibSnapshot`` and ``LeaseIndex`` are built
    once and then shared — across every engine
    of a run and across concurrent requests (generation-swapped).  Any
    post-construction mutation desynchronizes consumers silently: an
    engine reads a value its neighbour never saw, the serve cache keys
    stop matching, and digest equivalence with the frozen references
    breaks in ways no local test sees.

    The rule has two depths.  At depth 0 it flags an attribute
    assignment or ``del`` through a local known to hold a snapshot (an
    annotated parameter, or a ``T(...)``/``T.build(...)``/``T.from_*``
    result).  Deeper, it closes the alias hole with the project call
    graph: a parameter is *mutating* when the function assigns or
    deletes one of its attributes, or passes it on into another
    function's mutating parameter, and passing a frozen snapshot into
    a mutating parameter is flagged at the call site, where the freeze
    contract is actually broken.  RC111 absorbed the retired RC102,
    which saw depth 0 only.

    Remediation: Build a *new* snapshot with the changed value (the
    constructors and ``from_*``/``build`` factories exist for this) or,
    if the field genuinely must vary per run, move it out of the
    snapshot into the call path.  Helpers that legitimately assemble a
    snapshot belong in its defining module, where the freeze has not
    happened yet.
    """

    code = "RC111"
    title = "frozen snapshots are never mutated, directly or via helpers"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        resolver = graph.flow_resolver()
        for func in facts.functions:
            for write in func.frozen_writes:
                home = FROZEN_CLASSES[write.cls]
                if facts.module == home:
                    continue  # the defining module may initialize itself
                verb = "del" if write.deleted else "assignment"
                yield self.finding_at(
                    facts.rel,
                    write.lineno,
                    write.col,
                    f"{verb} on attribute of frozen {write.cls} instance "
                    f"{write.var!r} outside {home}",
                )
            for passed in func.frozen_args:
                home = FROZEN_CLASSES[passed.cls]
                if facts.module == home:
                    continue
                callee = graph.resolve_call(
                    facts.rel, func.owner_class, passed.base, passed.name
                )
                if callee is None:
                    continue
                if graph.facts[callee[0]].module == home:
                    continue  # defining-module helpers may assemble
                param = graph.param_name(callee, passed.position, passed.base)
                if param is None:
                    continue
                if not resolver.param_effect(*callee, param).mutated:
                    continue
                yield self.finding_at(
                    facts.rel,
                    passed.lineno,
                    passed.col,
                    f"frozen {passed.cls} instance {passed.var!r} passed "
                    f"into mutating parameter {param!r} of "
                    f"{callee[1]}() ({callee[0]})",
                )
