"""Concurrency invariants: RC101 (one process pool), RC104/RC110 (async
purity).

The analysis engines are serial; the only process pool left is the
``repro check --jobs`` fan-out in :mod:`repro.check.engine`.  The serve
loop is a single asyncio event loop; one blocking call stalls every
in-flight request — whether it sits in the coroutine body (RC104) or
one sync helper away from it (RC110, via the project call graph).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..context import walk_scope
from ..graph import (
    BLOCKING_ATTR_CALLS,
    BLOCKING_METHODS,
    BLOCKING_NAME_CALLS,
    MODULE_QUALNAME,
)
from ..model import CheckFinding, CheckRule, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..context import ModuleSource, ProjectContext
    from ..graph import ModuleFacts, ProjectGraph

__all__ = [
    "MultiprocessingConfined",
    "NoBlockingInAsync",
    "NoBlockingReachableFromAsync",
]


@register_check_rule
class MultiprocessingConfined(CheckRule):
    """``multiprocessing`` / ``concurrent.futures`` may only be imported
    by ``repro.check.engine``.

    The analysis engines run serially.  A §5.2 verdict depends on one
    leaf plus the read-only context, so a pool could only split
    classification — a quarter of a run, next to the context build it
    cannot touch — and the deleted pool ran at 0.65–0.78x serial on a
    2-vCPU host.  The one fan-out that wins is ``repro check --jobs``,
    which maps plain-string file chunks over a ``ProcessPoolExecutor``.
    A pool anywhere else reopens the fork/spawn, pickling and
    shared-memory questions that deleting the engine pool closed.

    Remediation: Keep the step serial.  If a measured win needs
    processes, follow ``repro.check.engine``: map plain-data chunks
    through a module-level function, and widen this rule with the
    benchmark that justifies it.
    """

    code = "RC101"
    title = "process pools confined to repro.check.engine"

    ALLOWED_MODULES = frozenset({"repro.check.engine"})
    _BANNED_PREFIXES = ("multiprocessing", "concurrent.futures")
    _HINT = "outside repro.check.engine; keep the step serial"

    def _banned(self, name: str) -> bool:
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in self._BANNED_PREFIXES
        )

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        if module.module in self.ALLOWED_MODULES:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._banned(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"import of {alias.name} {self._HINT}",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                source = node.module or ""
                if self._banned(source):
                    yield self.finding(
                        module, node, f"import from {source} {self._HINT}"
                    )
                elif source == "concurrent" and any(
                    alias.name == "futures" for alias in node.names
                ):
                    yield self.finding(
                        module,
                        node,
                        f"import of concurrent.futures {self._HINT}",
                    )


# The shared blocking-call vocabulary lives in ``repro.check.graph`` so
# RC104 (direct calls) and RC110 (call-graph reachability) can never
# disagree about what "blocking" means.
_BLOCKING_NAME_CALLS = BLOCKING_NAME_CALLS
_BLOCKING_ATTR_CALLS = BLOCKING_ATTR_CALLS
_BLOCKING_METHODS = BLOCKING_METHODS


@register_check_rule
class NoBlockingInAsync(CheckRule):
    """No blocking calls inside ``async def`` bodies.

    The serve layer runs a single asyncio event loop; a synchronous
    ``open``, ``time.sleep``, ``subprocess`` or ``socket`` call inside a
    coroutine stalls every concurrent request for its full duration.
    The snapshot reload path shows the sanctioned pattern: blocking I/O
    lives in a sync helper handed to ``asyncio.to_thread``.

    Remediation: Move the blocking work into a synchronous helper
    function and await it via ``asyncio.to_thread``, or use the asyncio
    native (``asyncio.sleep``, ``asyncio.open_connection``).
    """

    code = "RC104"
    title = "no blocking calls in async def bodies"

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan_async_body(module, node)

    def _scan_async_body(
        self, module: "ModuleSource", func: ast.AsyncFunctionDef
    ) -> Iterator[CheckFinding]:
        for node in walk_scope(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            if (
                isinstance(target, ast.Name)
                and target.id in _BLOCKING_NAME_CALLS
            ):
                yield self.finding(
                    module,
                    node,
                    f"blocking call {target.id}() inside async def "
                    f"{func.name}",
                )
            elif isinstance(target, ast.Attribute):
                receiver = target.value
                if isinstance(receiver, ast.Name):
                    pair = (receiver.id, target.attr)
                    if pair in _BLOCKING_ATTR_CALLS or receiver.id in (
                        "subprocess",
                        "socket",
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"blocking call {receiver.id}.{target.attr}() "
                            f"inside async def {func.name}",
                        )
                        continue
                if target.attr in _BLOCKING_METHODS:
                    yield self.finding(
                        module,
                        node,
                        f"blocking call .{target.attr}() inside async def "
                        f"{func.name}",
                    )


@register_check_rule
class NoBlockingReachableFromAsync(CheckRule):
    """No blocking calls reachable from ``async def`` bodies through
    synchronous helpers.

    RC104 catches ``time.sleep`` written directly inside a coroutine;
    it is blind the moment the sleep moves into a helper function the
    coroutine calls.  The event loop stalls exactly the same either
    way.  This rule walks the project call graph from every ``async
    def``, descending only through *synchronous* project functions
    (an ``await``-ed coroutine reports its own body), and flags the
    first call in the async body whose transitive closure contains a
    blocking site.  The sanctioned escape hatch is unchanged: a helper
    handed to ``asyncio.to_thread`` is never *called* by the
    coroutine, so no call edge exists and nothing fires.

    Remediation: Hand the blocking helper to ``asyncio.to_thread``
    (or an executor) instead of calling it from the coroutine, or
    replace the blocking primitive inside the helper with the asyncio
    native and make the helper a coroutine.
    """

    code = "RC110"
    title = "no blocking calls reachable from async def via sync helpers"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        for func in facts.functions:
            if not func.is_async or func.qualname == MODULE_QUALNAME:
                continue
            name = func.qualname.rsplit(".", 1)[-1]
            for entry, callee, site, path in graph.blocking_reachable(
                facts.rel, func
            ):
                callee_rel, _callee_qual = callee
                via = " -> ".join(path[1:])
                yield self.finding_at(
                    facts.rel,
                    entry.lineno,
                    entry.col,
                    f"blocking call {site.label} reachable from async def "
                    f"{name} via {via} ({callee_rel}:{site.lineno})",
                )
