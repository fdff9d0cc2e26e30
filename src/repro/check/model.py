"""Core types of ``repro check``: findings, rules, the registry.

Deliberately parallel to :mod:`repro.diagnostics.model` — same severity
scale, same docstring conventions (rationale paragraphs, then an
optional ``Remediation:`` paragraph), same decorator-based registry —
so a reader who knows one engine knows both.  The registries stay
separate because the code families differ (``RC###`` here, single
letter + three digits there) and because source findings carry
file/line positions and optional mechanical fixes that dataset
diagnostics have no use for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
)

from ..diagnostics.model import Severity, split_docstring

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .context import ModuleSource, ProjectContext
    from .graph import ModuleFacts, ProjectGraph

__all__ = [
    "RETIRED_CODES",
    "CheckFinding",
    "CheckRule",
    "Fix",
    "WitnessStep",
    "all_check_rules",
    "check_rule_for_code",
    "register_check_rule",
    "resolve_code",
]


@dataclass(frozen=True)
class WitnessStep:
    """One step of a finding's witness path (a SARIF thread-flow
    location).

    ``path`` is repo-relative — interprocedural witnesses cross module
    boundaries, so every step carries its own file.  ``line``/``column``
    use the same 1-based/0-based convention as the finding itself.
    """

    path: str
    line: int
    column: int
    note: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "note": self.note,
        }


@dataclass(frozen=True)
class Fix:
    """A mechanically safe source rewrite attached to a finding.

    Spans are 0-based ``(line, column)`` pairs in the coordinates of the
    module's source text; ``replacement`` substitutes the spanned text
    verbatim.  Only rewrites that preserve behaviour or strictly narrow
    it (wrapping an iterable in ``sorted()``, turning a bare ``except``
    into ``except Exception``) may be emitted — ``repro check --fix``
    applies them without review.
    """

    start: tuple
    end: tuple
    replacement: str


@dataclass(frozen=True)
class CheckFinding:
    """One source-level finding: which rule fired, where, and why."""

    code: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    remediation: str = ""
    fix: Optional[Fix] = field(default=None, compare=False)
    flow: Tuple[WitnessStep, ...] = ()

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity.value}: {self.code} {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable key order)."""
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "remediation": self.remediation,
            "fixable": self.fix is not None,
        }
        if self.flow:
            payload["flow"] = [step.to_dict() for step in self.flow]
        return payload


class CheckRule:
    """Base class for one source-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`,
    which receives one parsed module at a time plus the whole-project
    context (for rules that need cross-module facts such as class
    definitions or documentation files).  The docstring documents the
    rule exactly as in the diagnostics engine: rationale first, then an
    optional ``Remediation:`` paragraph.

    ``scope`` decides how the incremental engine treats the rule.  A
    ``"module"`` rule sees one file at a time and its findings are
    cached per file (re-run only when that file's content hash
    changes).  A ``"project"`` rule implements :meth:`check_facts`
    against the distilled :class:`~repro.check.graph.ModuleFacts` and
    the :class:`~repro.check.graph.ProjectGraph` instead of the raw
    AST, so it runs on every invocation — over cached facts for
    unchanged files — and still sees the whole program.
    """

    code: str = ""
    title: str = ""
    default_severity: Severity = Severity.ERROR
    scope: str = "module"
    #: Short annotated snippet rendered by ``repro check --explain``;
    #: flow rules use it to show a concrete witness end-to-end.
    worked_example: str = ""

    def __init__(self, severity: Optional[Severity] = None) -> None:
        self.severity = severity or self.default_severity

    def check(
        self,
        module: "ModuleSource",
        project: "ProjectContext",
    ) -> Iterator[CheckFinding]:
        """Yield findings for *module* (empty iterator when clean).

        Project-scope rules route through :meth:`check_facts` so the
        in-memory and incremental engines report identically.
        """
        if self.scope == "project":
            return self.check_facts(module.facts, project.graph())
        raise NotImplementedError

    def check_facts(
        self,
        facts: "ModuleFacts",
        graph: "ProjectGraph",
    ) -> Iterator[CheckFinding]:
        """Yield findings for one module's facts (project-scope rules)."""
        raise NotImplementedError

    def finding(
        self,
        module: "ModuleSource",
        node: object,
        message: str,
        fix: Optional[Fix] = None,
    ) -> CheckFinding:
        """Build one finding at *node*'s position in *module*.

        *node* is any object with ``lineno``/``col_offset`` (an AST
        node) or a ``(line, column)`` tuple in 1-based/0-based ast
        coordinates.
        """
        if isinstance(node, tuple):
            line, column = node
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        return CheckFinding(
            code=self.code,
            severity=self.severity,
            path=module.rel,
            line=line,
            column=column,
            message=message,
            remediation=self.remediation(),
            fix=fix,
        )

    def finding_at(
        self,
        rel: str,
        line: int,
        column: int,
        message: str,
        fix: Optional[Fix] = None,
        flow: Tuple[WitnessStep, ...] = (),
    ) -> CheckFinding:
        """Build one finding from a bare position (facts-based rules).

        *flow* is the witness path for path-sensitive rules; it renders
        as indented steps in text mode and as ``codeFlows`` in SARIF.
        """
        return CheckFinding(
            code=self.code,
            severity=self.severity,
            path=rel,
            line=line,
            column=column,
            message=message,
            remediation=self.remediation(),
            fix=fix,
            flow=flow,
        )

    @classmethod
    def rationale(cls) -> str:
        """The docstring paragraphs before ``Remediation:``."""
        return split_docstring(cls)[0]

    @classmethod
    def remediation(cls) -> str:
        """The ``Remediation:`` paragraph of the docstring (or empty)."""
        return split_docstring(cls)[1]


_REGISTRY: Dict[str, Type[CheckRule]] = {}

#: Retired codes → the rule that now reports their findings (None when
#: no rule does).  A retired code is never reused; ``--select``,
#: ``# repro-check: ignore[...]`` and ``--explain`` resolve it here.
RETIRED_CODES: Dict[str, Optional[str]] = {
    "RC102": "RC111",
    "RC104": "RC110",
    "RC105": None,
}


def resolve_code(code: str) -> Optional[str]:
    """The live code *code* names: itself, or its retired successor."""
    code = code.strip().upper()
    return RETIRED_CODES.get(code, code)


def register_check_rule(rule_class: Type[CheckRule]) -> Type[CheckRule]:
    """Class decorator adding *rule_class* to the check registry.

    Codes must be unique and follow ``RC<3 digits>``; like diagnostics
    codes they are stable forever and retired codes are never reused.
    """
    code = rule_class.code
    if (
        not code
        or len(code) != 5
        or not code.startswith("RC")
        or not code[2:].isdigit()
    ):
        raise ValueError(f"malformed check rule code: {code!r}")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate check rule code: {code}")
    _REGISTRY[code] = rule_class
    return rule_class


def all_check_rules() -> List[Type[CheckRule]]:
    """Every registered check rule class, ordered by code."""
    from . import rules as _rules  # noqa: F401  (registers on import)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def check_rule_for_code(code: str) -> Optional[Type[CheckRule]]:
    """The rule class *code* (or the successor of a retired *code*)
    names, or None."""
    from . import rules as _rules  # noqa: F401

    live = resolve_code(code)
    return _REGISTRY.get(live) if live else None
