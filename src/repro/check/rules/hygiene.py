"""Code-hygiene invariants: RC106, RC107, RC108, RC114.

RC106 keeps failures visible (no swallowed exceptions), RC107 keeps the
frozen reference implementations honest (they must not lean on the fast
engines they specify), RC108 keeps the CLI surface documented, and
RC114 keeps every OS resource under a ``with`` block.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set

from ..model import CheckFinding, CheckRule, Fix, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..context import ModuleSource, ProjectContext
    from ..graph import ModuleFacts, ProjectGraph

__all__ = [
    "ACQUIRE_LABELS",
    "CliFlagsDocumented",
    "NoSwallowedExceptions",
    "ReferencePurity",
    "ResourcesInWith",
]


@register_check_rule
class NoSwallowedExceptions(CheckRule):
    """No bare ``except`` and no silently discarded exceptions.

    A bare ``except:`` catches ``SystemExit`` and ``KeyboardInterrupt``
    too, turning Ctrl-C into a hang; an ``except ...: pass`` erases the
    only evidence a failure ever happened.  In a measurement pipeline
    whose value *is* its data, a swallowed parse error is a silently
    wrong result.

    Remediation: Catch the narrowest exception that the code can
    actually handle and do something observable (log, count, degrade
    explicitly).  When ignoring truly is correct, suppress this rule
    inline with a justification — the comment is the log entry.
    """

    code = "RC106"
    title = "no bare except, no except-pass"

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare except catches SystemExit/KeyboardInterrupt; "
                    "catch Exception (or narrower)",
                    fix=_bare_except_fix(module, node),
                )
            if _body_is_silent(node.body):
                yield self.finding(
                    module,
                    node,
                    "exception swallowed without a trace; handle it or "
                    "justify the suppression inline",
                )


def _body_is_silent(body) -> bool:
    """True when a handler body does nothing observable."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is ...
        ):
            continue
        return False
    return True


def _bare_except_fix(
    module: "ModuleSource", handler: ast.ExceptHandler
) -> Optional[Fix]:
    """Rewrite ``except:`` into ``except Exception:``."""
    line_idx = handler.lineno - 1
    if line_idx >= len(module.lines):
        return None
    line = module.lines[line_idx]
    match = re.compile(r"except\s*:").match(line, handler.col_offset)
    if match is None:
        return None
    return Fix(
        start=(handler.lineno, match.start()),
        end=(handler.lineno, match.end()),
        replacement="except Exception:",
    )


#: Modules (or single ``module.Name`` symbols) that embody the fast
#: engines; frozen references must not touch anything imported from
#: them.  ``repro.core.classify`` itself is shared: the reference runs
#: its ``classify_leaf``, the fast engines its ``LeafClassifier``.
_FAST_ENGINE_MODULES = frozenset(
    {
        "repro.core.context",
        "repro.core.classify.CacheStats",
        "repro.core.classify.LeafClassifier",
    }
)

#: Function names that are frozen executable specifications.
_REFERENCE_FUNCTIONS = frozenset(
    {
        "run_reference",
        "compare_epochs",
        "infer_legacy_leases",
        "validation_profile",
    }
)


@register_check_rule
class ReferencePurity(CheckRule):
    """Frozen reference implementations must not use fast-engine code.

    ``run_reference`` is the executable specification that the
    context-backed lease engine is proven bit-identical against.  The
    moment it calls into ``repro.core.context`` or the memoized
    ``LeafClassifier``, the proof becomes circular: a bug in the shared
    code changes both sides of the comparison and the equivalence tests
    keep passing.  ``compare_epochs``, ``infer_legacy_leases`` and
    ``validation_profile`` are frozen too, as the only engines of their
    analyses: they read the datasets directly, so the context stays
    out of them as well.

    Remediation: Keep references self-contained (allocation tree,
    per-leaf classification and the plain dataset lookups only).  If
    logic must be shared, move it to a module neither engine owns and
    have both import it.
    """

    code = "RC107"
    title = "frozen references stay independent of fast engines"

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        tainted = _tainted_names(module)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in _REFERENCE_FUNCTIONS
            ):
                yield from self._scan_reference(module, node, tainted)

    def _scan_reference(
        self,
        module: "ModuleSource",
        func: ast.FunctionDef,
        tainted: Set[str],
    ) -> Iterator[CheckFinding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in tainted:
                yield self.finding(
                    module,
                    node,
                    f"reference {func.name}() uses {node.id!r}, imported "
                    "from a fast-engine module",
                )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                source = _import_source(module, node)
                if source in _FAST_ENGINE_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"reference {func.name}() imports from {source}",
                    )


def _import_source(module: "ModuleSource", node: ast.AST) -> Optional[str]:
    """The dotted module an import statement draws from."""
    if isinstance(node, ast.Import):
        return node.names[0].name if node.names else None
    if isinstance(node, ast.ImportFrom):
        return _resolve_relative(module.module, node.level, node.module)
    return None


def _resolve_relative(
    current: str, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute dotted path of a (possibly relative) import source."""
    if level == 0:
        return target
    if not current:
        return None  # relative import outside the package tree
    parts = current.split(".")
    if level > len(parts):
        return None
    base = parts[: len(parts) - level]
    if target:
        base += target.split(".")
    return ".".join(base) if base else None


def _tainted_names(module: "ModuleSource") -> Set[str]:
    """Local names bound (at module level) to fast-engine code."""
    tainted: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _resolve_relative(
                module.module, node.level, node.module
            )
            if source is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                origin = f"{source}.{alias.name}"
                if (
                    source in _FAST_ENGINE_MODULES
                    or origin in _FAST_ENGINE_MODULES
                ):
                    tainted.add(local)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _FAST_ENGINE_MODULES:
                    tainted.add(alias.asname or alias.name.split(".")[0])
    return tainted


@register_check_rule
class CliFlagsDocumented(CheckRule):
    """Every CLI flag defined in a ``cli.py`` must appear in ``docs/``.

    The CLI is the operational surface of the system; a flag that only
    exists in ``add_argument`` calls is invisible to operators reading
    the docs and silently drifts from them.  The diagnostics engine
    already holds docs to this standard (``docs/DIAGNOSTICS.md`` is
    generated and sync-checked in CI); flags deserve the same.

    Remediation: Document the flag (with its subcommand) in
    ``docs/CLI.md`` — or whichever ``docs/*.md`` covers its subsystem —
    in the same change that introduces it.
    """

    code = "RC108"
    title = "CLI flags documented under docs/"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        if not facts.rel.endswith("cli.py"):
            return
        docs = graph.docs_text
        seen: Set[str] = set()
        for flag, lineno, col in facts.cli_flags:
            if flag in seen:
                continue
            seen.add(flag)
            if flag in docs:
                continue
            yield self.finding_at(
                facts.rel,
                lineno,
                col,
                f"flag {flag} is not documented in any docs/*.md",
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

#: Spellings that acquire only as attributes of the ``socket`` module:
#: ``loop.create_connection`` is asyncio's coroutine, not a socket.
_SOCKET_MODULE_ONLY = frozenset({"socket", "create_connection"})


@register_check_rule
class ResourcesInWith(CheckRule):
    """Every file, socket, shared-memory segment or pool is acquired
    inside the context expression of a ``with`` item.

    The pipeline reads WHOIS, MRT and AS-data dumps from disk and the
    serve layer answers over sockets; a handle that misses its release
    on one exception path exhausts descriptors under exactly the load
    the server exists for.  A ``with`` block releases on every path,
    the exceptional ones included, with no reasoning about paths, so
    any acquiring call outside a ``with``/``async with`` item is a
    finding (``with closing(socket.socket()) as s`` counts as inside).

    Remediation: Acquire the resource in a ``with`` item.  An object
    that owns a resource for its lifetime and releases it in
    ``stop()`` takes an inline ``ignore[RC114]`` whose reason says so.
    """

    code = "RC114"
    title = "OS resources are acquired only as a with item"

    worked_example = """\
def load(path):
    handle = open(path)            # open() outside a with item
    data = parse(handle)           # a raise here skips the close
    handle.close()
    return data

The fix releases on every path, the raising one included:

def load(path):
    with open(path) as handle:
        return parse(handle)"""

    def check(
        self, module: "ModuleSource", project: "ProjectContext"
    ) -> Iterator[CheckFinding]:
        managed = {
            id(node)
            for stmt in ast.walk(module.tree)
            if isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items
            for node in ast.walk(item.context_expr)
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or id(node) in managed:
                continue
            label = _acquire_label(node)
            if label is not None:
                yield self.finding(
                    module,
                    node,
                    f"{label} is acquired outside a with item, so a "
                    "raise before its release leaks it",
                )


def _acquire_label(call: ast.Call) -> Optional[str]:
    """The label of the resource *call* acquires, if it acquires one."""
    func = call.func
    if isinstance(func, ast.Name):
        return None if func.id == "socket" else ACQUIRE_LABELS.get(func.id)
    if not isinstance(func, ast.Attribute) or func.attr == "open":
        return None
    if func.attr in _SOCKET_MODULE_ONLY and not (
        isinstance(func.value, ast.Name) and func.value.id == "socket"
    ):
        return None
    return ACQUIRE_LABELS.get(func.attr)
