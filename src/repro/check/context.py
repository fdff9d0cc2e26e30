"""Parsed-source context shared by every ``repro check`` rule.

:class:`ModuleSource` is one parsed Python file: text, line table, AST,
and the inline-suppression map.  :class:`ProjectContext` is the whole
checked tree and builds its whole-program graph on demand.  The module
also owns the text corpora the project rules read (``docs/*.md`` for
the CLI-flag rule, tests and examples for the dead-API rule) and the
shared *local type inference* heuristic behind RC111's frozen types.

Suppressions are deliberately strict: ``# repro-check: ignore[RC110]``
only takes effect when followed by ``-- <justification>``.  A
suppression without a reason is inert, so the underlying finding stays
visible until someone writes down *why* the code is allowed to break
the invariant.  A retired code in a suppression suppresses its
successor's findings.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Container, Dict, Iterator, List, Optional, Set, Tuple

from .model import resolve_code

__all__ = [
    "ModuleSource",
    "ProjectContext",
    "infer_local_types",
    "annotation_class_name",
    "attribute_writes",
    "docs_corpus",
    "iter_scopes",
    "reference_corpus",
    "walk_scope",
]

#: Matches suppression comments — ``ignore[RC110]`` or
#: ``ignore[RC110,RC106]`` after the tool prefix, with a mandatory
#: ``-- reason`` tail for the suppression to take effect.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-check:\s*ignore\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: Matches the module-name directive used by rule fixtures that sit
#: outside the package tree: ``# repro-check: module=repro.core.foo``
#: makes the file analyze as if it were that module (layer rules and
#: defining-module exemptions need a dotted name to reason about).
_MODULE_DIRECTIVE_RE = re.compile(
    r"#\s*repro-check:\s*module=(?P<name>[A-Za-z_][\w.]*)"
)


class ModuleSource:
    """One parsed module: path, text, AST, and suppression map."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=self.rel)
        #: dotted module name when under ``src/`` (``repro.core.pipeline``),
        #: empty for scripts/tests outside the package tree.
        self.module = _dotted_name(self.rel)
        comments = _iter_comments(self.text)
        directive = _module_directive(comments)
        if directive is not None:
            self.module = directive
        self._suppressions, raw = _parse_suppressions(self.text, comments)
        #: suppression comments missing the mandatory justification,
        #: surfaced by the engine so they are fixed rather than trusted.
        self.inert_suppressions: List[Tuple[int, str]] = [
            (lineno, codes) for lineno, codes, reason in raw if not reason
        ]
        self._facts = None

    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        """1-based line → codes effectively suppressed there."""
        return self._suppressions

    @property
    def facts(self):
        """This module's :class:`~repro.check.graph.ModuleFacts` (cached).

        The import is deferred: :mod:`repro.check.graph` consumes the
        helpers defined below, so a top-level import here would create
        exactly the cycle RC109 exists to forbid.
        """
        if self._facts is None:
            from .graph import extract_facts

            self._facts = extract_facts(self)
        return self._facts

    def is_suppressed(self, code: str, line: int) -> bool:
        """True when *code* is suppressed at 1-based *line*."""
        return code in self._suppressions.get(line, set())

    def segment(self, node: ast.AST) -> str:
        """The exact source text of *node* (empty if span unknown)."""
        return ast.get_source_segment(self.text, node) or ""


class ProjectContext:
    """The whole checked tree plus its lazily built project graph."""

    def __init__(self, root: Path, modules: List[ModuleSource]) -> None:
        self.root = root
        self.modules = modules
        self._graph = None

    def graph(self):
        """The whole-program :class:`~repro.check.graph.ProjectGraph`.

        Built lazily from every module's facts plus the reference
        corpus, and cached — every project-scope rule shares one graph
        per run.
        """
        if self._graph is None:
            from .graph import ProjectGraph

            self._graph = ProjectGraph(
                [module.facts for module in self.modules],
                reference_corpus(self.root),
                docs_corpus(self.root),
            )
        return self._graph


def docs_corpus(root: Path) -> str:
    """Concatenated ``docs/*.md`` under *root* (RC108's corpus)."""
    docs_dir = root / "docs"
    if not docs_dir.is_dir():
        return ""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(docs_dir.glob("*.md"))
    )


def reference_corpus(root: Path) -> str:
    """Concatenated text of code and docs that *reference* the package.

    Tests and examples are not scanned as project code, but a public
    name they exercise is not dead — RC112 greps this corpus before
    declaring an export unreachable.  Empty when the directories do not
    exist (fixture roots).
    """
    chunks: List[str] = []
    for directory, pattern in (
        ("tests", "*.py"),
        ("examples", "*.py"),
        ("docs", "*.md"),
    ):
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob(pattern)):
            chunks.append(path.read_text(encoding="utf-8"))
    readme = root / "README.md"
    if readme.is_file():
        chunks.append(readme.read_text(encoding="utf-8"))
    return "\n".join(chunks)


def _dotted_name(rel: str) -> str:
    """Dotted module path for files under ``src/`` (else empty)."""
    if not rel.startswith("src/") or not rel.endswith(".py"):
        return ""
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _module_directive(
    comments: List[Tuple[int, int, str]]
) -> Optional[str]:
    """The dotted name from a ``module=`` directive comment, if any."""
    for _lineno, _column, comment in comments:
        match = _MODULE_DIRECTIVE_RE.search(comment)
        if match is not None:
            return match.group("name")
    return None


def _parse_suppressions(
    text: str,
    comments: List[Tuple[int, int, str]],
) -> Tuple[Dict[int, Set[str]], List[Tuple[int, str, str]]]:
    """Map 1-based line numbers to codes suppressed there.

    Only genuine ``#`` comments count — the source is tokenized, so a
    docstring *describing* the suppression syntax never suppresses
    anything.  A suppression comment covers its own line; when the
    comment stands alone on a line, it also covers the next line (so
    justifications that would overflow the column limit can sit above
    the statement).  Entries without a justification are returned in
    the raw list but do not suppress anything.
    """
    raw: List[Tuple[int, str, str]] = []
    covered: Dict[int, Set[str]] = {}
    for lineno, column, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        codes = match.group("codes").replace(" ", "")
        reason = (match.group("reason") or "").strip()
        raw.append((lineno, codes, reason))
        if not reason:
            continue
        targets = [lineno]
        if _standalone(text, lineno, column):
            targets.append(lineno + 1)
        resolved = [resolve_code(code) for code in codes.split(",")]
        live = {code for code in resolved if code is not None}
        for target in targets:
            covered.setdefault(target, set()).update(live)
    return covered, raw


def _iter_comments(text: str) -> List[Tuple[int, int, str]]:
    """``(lineno, column, comment_text)`` for every real comment."""
    comments: List[Tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append(
                    (token.start[0], token.start[1], token.string)
                )
    # repro-check: ignore[RC106] -- ast.parse already vetted the file;
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # unreachable in practice: degrade to "no comments"
    return comments


def _standalone(text: str, lineno: int, column: int) -> bool:
    """True when the comment at (lineno, column) starts its line."""
    lines = text.splitlines()
    if not 1 <= lineno <= len(lines):
        return False
    return not lines[lineno - 1][:column].strip()


# ---------------------------------------------------------------------------
# Scope iteration


def iter_scopes(tree: ast.Module):
    """Yield the module body and every (nested) function definition.

    Rules that reason about local bindings analyze one scope at a time:
    pairing :func:`iter_scopes` with :func:`walk_scope` visits every
    statement exactly once without conflating locals across functions.
    """
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def walk_scope(scope: ast.AST):
    """Walk *scope* without descending into nested function defs.

    Nested definitions are their own scopes (yielded separately by
    :func:`iter_scopes`), so skipping them here prevents double
    reporting and keeps local-name reasoning honest.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def attribute_writes(node: ast.AST) -> Iterator[Tuple[str, ast.expr]]:
    """``(name, target)`` for each ``name.attr`` or ``name.attr[...]``
    that the statement *node* assigns or deletes."""
    targets: List[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        inner = target
        if isinstance(inner, ast.Subscript):
            inner = inner.value  # x.attr[...] = ... mutates interior state
        if isinstance(inner, ast.Attribute) and isinstance(
            inner.value, ast.Name
        ):
            yield inner.value.id, target


# ---------------------------------------------------------------------------
# Local type inference


def annotation_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class base-name from an annotation node.

    Handles ``Name``, dotted ``Attribute``, string annotations, and
    unwraps one level of ``Optional[...]`` — enough for the snapshot
    classes the immutability rules track.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        inner = re.fullmatch(r"Optional\[(?P<t>[^\]]+)\]", text)
        if inner:
            text = inner.group("t").strip()
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        head = annotation_class_name(node.value)
        if head == "Optional":
            inner_node = node.slice
            if isinstance(inner_node, ast.Index):  # pragma: no cover - py38
                inner_node = inner_node.value  # type: ignore[attr-defined]
            return annotation_class_name(inner_node)
        return head
    return None


def _call_class_name(node: ast.AST) -> Optional[str]:
    """Class name when *node* is ``X(...)``, ``X.build(...)``, ``X.from_*``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
        return name if name[:1].isupper() else None
    if isinstance(func, ast.Attribute):
        method = func.attr
        if method == "build" or method.startswith("from_"):
            base = func.value
            if isinstance(base, ast.Name) and base.id[:1].isupper():
                return base.id
            if isinstance(base, ast.Attribute) and base.attr[:1].isupper():
                return base.attr
    return None


def infer_local_types(
    scope: ast.AST, interesting: Container[str]
) -> Dict[str, str]:
    """Map local variable names to class names within *scope*.

    Purely heuristic and deliberately conservative: annotated function
    parameters, ``x: T = ...`` annotated assignments, and assignments
    from ``T(...)`` / ``T.build(...)`` / ``T.from_*(...)`` calls.  Only
    names resolving to a class in *interesting* are kept (any object
    supporting ``in`` works — a dict of class names, or an
    everything-matcher); anything the heuristic cannot see is simply
    absent (rules skip it rather than guess).
    """
    types: Dict[str, str] = {}

    def note(name: str, cls: Optional[str]) -> None:
        if cls is not None and cls in interesting:
            types[name] = cls
        elif name in types and cls is not None:
            # Reassignment to an unknown type invalidates the binding.
            del types[name]

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        params = list(args.posonlyargs) if hasattr(args, "posonlyargs") else []
        params += list(args.args) + list(args.kwonlyargs)
        for param in params:
            note(param.arg, annotation_class_name(param.annotation))

    for node in ast.walk(scope):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            note(node.target.id, annotation_class_name(node.annotation))
        elif isinstance(node, ast.Assign) and node.value is not None:
            cls = _call_class_name(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    note(target.id, cls)
    return types
