"""Concurrency invariants: RC101 (one process pool), RC110 (async
purity).

The analysis engines are serial; the only process pool left is the
``repro check --jobs`` fan-out in :mod:`repro.check.engine`.  The serve
loop is a single asyncio event loop; one blocking call stalls every
in-flight request — whether it sits in the coroutine body or any
number of sync helpers away from it (RC110, via the project call
graph).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..graph import MODULE_QUALNAME
from ..model import CheckFinding, CheckRule, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..context import ModuleSource, ProjectContext
    from ..graph import ModuleFacts, ProjectGraph

__all__ = [
    "MultiprocessingConfined",
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


@register_check_rule
class NoBlockingReachableFromAsync(CheckRule):
    """No blocking calls in ``async def`` bodies, nor reachable from
    them through synchronous helpers.

    The serve layer runs a single asyncio event loop; a synchronous
    ``open``, ``time.sleep``, ``subprocess`` or ``socket`` call inside a
    coroutine stalls every concurrent request for its full duration —
    and stalls it exactly the same when the call sits in a helper the
    coroutine calls.  The rule flags a blocking call written directly
    in the coroutine body (depth 0), then walks the project call graph
    from every ``async def``, descending only through *synchronous*
    project functions (an ``await``-ed coroutine reports its own body),
    and flags the first call in the async body whose transitive
    closure contains a blocking site.  The sanctioned escape hatch is
    a helper handed to ``asyncio.to_thread``: the coroutine never
    *calls* it, so no call edge exists and nothing fires.  RC110
    absorbed the retired RC104, which saw depth 0 only.

    Remediation: Move the blocking work into a synchronous helper and
    hand it to ``asyncio.to_thread`` (or an executor) instead of
    calling it from the coroutine, or use the asyncio native
    (``asyncio.sleep``, ``asyncio.open_connection``) and make the
    helper a coroutine.
    """

    code = "RC110"
    title = "no blocking calls in or reachable from async def bodies"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        resolver = graph.flow_resolver()
        for func in facts.functions:
            if not func.is_async or func.qualname == MODULE_QUALNAME:
                continue
            name = func.qualname.rsplit(".", 1)[-1]
            for site in func.blocking:
                yield self.finding_at(
                    facts.rel,
                    site.lineno,
                    site.col,
                    f"blocking call {site.label} inside async def {name}",
                )
            for entry, callee, site, path in resolver.blocking_paths(
                facts.rel, func.qualname
            ):
                via = " -> ".join(path[1:])
                yield self.finding_at(
                    facts.rel,
                    entry.lineno,
                    entry.col,
                    f"blocking call {site.label} reachable from async def "
                    f"{name} via {via} ({callee[0]}:{site.lineno})",
                )
