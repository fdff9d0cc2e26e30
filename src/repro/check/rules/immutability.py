"""Snapshot immutability invariants: RC102, RC111.

The whole scaling architecture hangs off frozen snapshots: one
``AnalysisContext`` (with its ``RibSnapshot``/``RoaSnapshot``) is built
per run and read by every engine, and the serve layer swaps
immutable ``LeaseIndex`` generations atomically.  Mutating one of
these after construction corrupts every consumer that assumed the
freeze — whether the assignment is written in place (RC102) or hidden
behind a helper the snapshot is passed into (RC111, via the project
call graph).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from ..context import infer_local_types, iter_scopes, walk_scope
from ..graph import FROZEN_CLASSES
from ..model import CheckFinding, CheckRule, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..context import ModuleSource, ProjectContext
    from ..graph import ModuleFacts, ProjectGraph

__all__ = [
    "SnapshotImmutability",
    "NoTransitiveSnapshotMutation",
]


@register_check_rule
class SnapshotImmutability(CheckRule):
    """No attribute assignment on frozen snapshot instances outside
    their defining module.

    ``AnalysisContext``, ``RibSnapshot``, ``RoaSnapshot`` and
    ``LeaseIndex`` are built once and then shared — across every engine
    of a run and across concurrent requests (generation-swapped).  Any
    post-construction mutation desynchronizes consumers silently: an
    engine reads a value its neighbour never saw, the serve cache keys
    stop matching, and digest equivalence with the frozen references
    breaks in ways no local test sees.

    Remediation: Build a *new* snapshot with the changed value (the
    constructors and ``from_*``/``build`` factories exist for this) or,
    if the field genuinely must vary per run, move it out of the
    snapshot into the call path.
    """

    code = "RC102"
    title = "frozen snapshots are never mutated outside their module"

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        for scope in iter_scopes(module.tree):
            types = infer_local_types(scope, FROZEN_CLASSES)
            if not types:
                continue
            for node in walk_scope(scope):
                yield from self._scan_statement(module, node, types)

    def _scan_statement(
        self,
        module: "ModuleSource",
        node: ast.AST,
        types: Dict[str, str],
    ) -> Iterator[CheckFinding]:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            hit = _frozen_attribute_target(target, types)
            if hit is None:
                continue
            name, cls = hit
            if module.module == FROZEN_CLASSES[cls]:
                continue  # the defining module may initialize itself
            verb = "del" if isinstance(node, ast.Delete) else "assignment"
            yield self.finding(
                module,
                target,
                f"{verb} on attribute of frozen {cls} instance "
                f"{name!r} outside {FROZEN_CLASSES[cls]}",
            )


def _frozen_attribute_target(
    target: ast.expr, types: Dict[str, str]
) -> Optional[tuple]:
    """``(name, class)`` when *target* writes through a frozen instance."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value  # x.attr[...] = ... mutates interior state
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id in types:
        return base.id, types[base.id]
    return None


@register_check_rule
class NoTransitiveSnapshotMutation(CheckRule):
    """No passing frozen snapshots into helpers that mutate their
    parameters.

    RC102 sees ``ctx.cache = {}`` only where the *variable* is known to
    hold a snapshot; rename the parameter, drop the annotation, and the
    same mutation one call away goes dark.  This rule closes the alias
    hole with the project call graph: every function whose parameter is
    attribute-assigned — directly, or by forwarding the parameter into
    another mutating function, computed to a fixpoint — is *mutating*,
    and passing a frozen snapshot instance into a mutating parameter
    from outside the snapshot's defining module is flagged at the call
    site, where the freeze contract is actually broken.

    Remediation: Same as RC102 — build a new snapshot instead of
    editing one through a helper.  Helpers that legitimately assemble a
    snapshot belong in its defining module, where the freeze has not
    happened yet.
    """

    code = "RC111"
    title = "frozen snapshots never flow into mutating parameters"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        mutating = graph.mutating_params()
        for func in facts.functions:
            for passed in func.frozen_args:
                home = FROZEN_CLASSES.get(passed.cls)
                if home is None or facts.module == home:
                    continue
                callee = graph.resolve_call(
                    facts.rel, func.owner_class, passed.base, passed.name
                )
                if callee is None:
                    continue
                callee_facts = graph.facts.get(callee[0])
                if callee_facts is not None and callee_facts.module == home:
                    continue  # defining-module helpers may assemble
                offset = 1 if passed.base in ("self", "cls") else 0
                param = graph.param_name(callee, passed.position, offset)
                if param is None or param not in mutating.get(callee, set()):
                    continue
                yield self.finding_at(
                    facts.rel,
                    passed.lineno,
                    passed.col,
                    f"frozen {passed.cls} instance {passed.var!r} passed "
                    f"into mutating parameter {param!r} of "
                    f"{callee[1]}() ({callee[0]})",
                )
