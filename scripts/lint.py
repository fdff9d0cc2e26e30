#!/usr/bin/env python
"""Repository lint gate: ruff + mypy when available, plus a built-in floor.

The container images used for CI and for offline reproduction do not
always ship ruff/mypy; ``make lint`` must still mean something there.
This runner therefore always enforces a tool-free floor —

* every ``.py`` file byte-compiles (``compileall``),
* no line exceeds the configured 88-column limit,
* no trailing whitespace, no hard tabs in source lines,
* no imported name goes unread in its module (ruff's F401, by AST scan),

— and additionally runs ``ruff check`` and ``mypy`` (configured in
``pyproject.toml``) whenever those tools are importable.  A missing
tool is reported as skipped, not as a failure.
"""

from __future__ import annotations

import ast
import compileall
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "benchmarks", "scripts", "examples", "bench")
MAX_LINE = 88
#: Modules whose imports are the point: RC rule fixtures import on purpose.
UNUSED_IMPORT_EXEMPT = ("tests/fixtures/",)


def _python_files() -> Iterator[Path]:
    for name in SOURCE_DIRS:
        root = REPO / name
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))


def check_compile() -> List[str]:
    problems = []
    for name in SOURCE_DIRS:
        root = REPO / name
        if root.is_dir() and not compileall.compile_dir(
            str(root), quiet=2, force=False
        ):
            problems.append(f"{name}/: byte-compilation failed")
    return problems


def check_style_floor() -> List[str]:
    problems = []
    for path in _python_files():
        relative = path.relative_to(REPO)
        for number, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if len(line) > MAX_LINE:
                problems.append(
                    f"{relative}:{number}: line too long "
                    f"({len(line)} > {MAX_LINE})"
                )
            if line != line.rstrip():
                problems.append(
                    f"{relative}:{number}: trailing whitespace"
                )
            if "\t" in line:
                problems.append(f"{relative}:{number}: hard tab")
    return problems


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names read by *node*, an annotation, including quoted ones."""
    names: Set[str] = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                quoted = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(quoted)
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each name *source* imports but never reads.

    A name counts as read when it appears as a ``Name`` anywhere, inside
    a quoted annotation or subscript, or in ``__all__``; an import line marked
    ``# noqa`` (bare or naming F401) is left alone.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marker = lines[node.lineno - 1].partition("# noqa")
            if marker[1] and (not marker[2].strip() or "F401" in marker[2]):
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Subscript):  # ``Tuple["Name", ...]``
            read |= _annotation_names(node.slice)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                read |= _annotation_names(node.returns)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                if node.value is not None:
                    read |= {
                        item.value
                        for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant)
                        and isinstance(item.value, str)
                    }
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def check_unused_imports() -> List[str]:
    problems = []
    for path in _python_files():
        relative = path.relative_to(REPO).as_posix()
        if path.name == "__init__.py" or any(
            exempt in relative for exempt in UNUSED_IMPORT_EXEMPT
        ):
            continue
        for line, name in unused_imports(path.read_text()):
            problems.append(f"{relative}:{line}: '{name}' imported but unused")
    return problems


def run_tool(module: str, *arguments: str) -> int:
    """Run an optional tool as ``python -m``; None-like 0 when absent."""
    if importlib.util.find_spec(module) is None:
        print(f"{module}: not installed, skipped")
        return 0
    command = [sys.executable, "-m", module, *arguments]
    print(f"$ {' '.join(command[1:])}")
    return subprocess.run(command, cwd=REPO).returncode


def main() -> int:
    failures = 0

    problems = check_compile() + check_style_floor() + check_unused_imports()
    for problem in problems:
        print(problem)
    if problems:
        failures += 1
    print(f"floor checks: {'FAILED' if problems else 'ok'} "
          f"({sum(1 for _ in _python_files())} files)")

    if run_tool("ruff", "check", *SOURCE_DIRS):
        failures += 1
    if run_tool("mypy"):
        failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
