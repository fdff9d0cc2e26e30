"""Run registered check rules over a project tree and report findings.

Mirrors :mod:`repro.diagnostics.engine`: the engine instantiates every
registered rule (with optional severity overrides), feeds each parsed
module through each rule, filters findings through the inline
suppression map, and folds everything into a :class:`CheckReport` that
renders as text, JSON, or SARIF and computes a gate exit code.

Two execution paths share the rule set.  :meth:`CheckEngine.run` is the
in-memory path (tests, single fixtures): parse everything, run
everything.  :meth:`CheckEngine.analyze` is the production path: each
file's module-scope findings and distilled facts are cached against its
content hash (:mod:`repro.check.cache`), parse work for changed files
can fan out over a process pool (``--jobs``), and project-scope rules
(RC108–RC115) then run over the facts of *all* files — cached
or fresh — so whole-program analysis stays whole even when only one
file was re-read.

Suppression comments that lack the mandatory ``--  justification`` are
themselves reported (as synthetic ``RC100`` warnings) so an inert
suppression never silently masks the absence of a rationale.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..diagnostics.model import Severity
from .cache import (
    CACHE_VERSION,
    file_sha,
    finding_from_dict,
    finding_to_dict,
    load_entries,
    save_entries,
)
from .context import (
    ModuleSource,
    ProjectContext,
    docs_corpus,
    reference_corpus,
)
from .graph import ModuleFacts, ProjectGraph
from .model import CheckFinding, CheckRule, all_check_rules, resolve_code

__all__ = ["CheckEngine", "CheckReport", "load_project"]

#: Directories scanned when no explicit paths are given: the package
#: source and the repo's operational scripts.  Tests are exercised by
#: the tier-1 suite itself; fixture snippets under
#: ``tests/fixtures/check`` are *intentionally* violating and must
#: never be scanned as project code.
DEFAULT_ROOTS = ("src", "scripts")

_EXCLUDED_PATTERNS = ("*/fixtures/*", "fixtures/*")

#: Synthetic code for suppression comments missing a justification.
INERT_SUPPRESSION_CODE = "RC100"


def _iter_python_files(root: Path, targets: Sequence[str]) -> List[Path]:
    """Python files under *targets*, explicit files first.

    An explicitly named file is never excluded — passing
    ``tests/fixtures/check/rc110_bad.py`` means "analyze this file" —
    while globbed directory walks skip the exclusion patterns.
    Listing a file both ways (explicitly and via a directory that
    globs it) yields it once, as explicit, regardless of argument
    order.
    """
    explicit: List[Tuple[Path, bool]] = []
    globbed: List[Tuple[Path, bool]] = []
    for target in targets:
        base = (root / target).resolve()
        if base.is_file() and base.suffix == ".py":
            explicit.append((base, True))
            continue
        if not base.is_dir():
            continue
        globbed.extend((path, False) for path in sorted(base.rglob("*.py")))
    unique: List[Path] = []
    seen = set()
    for path, is_explicit in explicit + globbed:
        if path in seen:
            continue
        if not is_explicit and any(
            fnmatch.fnmatch(path.as_posix(), pattern)
            for pattern in _EXCLUDED_PATTERNS
        ):
            continue
        seen.add(path)
        unique.append(path)
    return unique


def load_project(
    root: Path, targets: Optional[Sequence[str]] = None
) -> ProjectContext:
    """Parse every Python file under *targets* (default: src + scripts)."""
    root = root.resolve()
    modules = [
        ModuleSource(path, root)
        for path in _iter_python_files(root, targets or DEFAULT_ROOTS)
    ]
    return ProjectContext(root, modules)


class CheckReport:
    """Outcome of one analyzer run: findings plus run metadata."""

    def __init__(
        self,
        findings: List[CheckFinding],
        rules_run: List[str],
        modules_checked: int,
        suppressed: int,
        analyzed: Optional[int] = None,
        reused: Optional[int] = None,
    ) -> None:
        self.findings = sorted(
            findings, key=lambda f: (f.path, f.line, f.column, f.code)
        )
        self.rules_run = rules_run
        self.modules_checked = modules_checked
        self.suppressed = suppressed
        #: Incremental-run accounting (None on the in-memory path).
        #: Deliberately *not* part of ``to_json``/``render_text`` so a
        #: warm run's report is byte-identical to a cold run's.
        self.analyzed = analyzed
        self.reused = reused

    def counts_by_severity(self) -> Dict[str, int]:
        """``{"error": n, ...}`` over the unsuppressed findings."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            key = finding.severity.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def exit_code(self, fail_on: str = "warning") -> int:
        """0 when clean under the gate; 1 otherwise.

        *fail_on* is ``"error"``, ``"warning"`` (default, the CI gate),
        or ``"never"`` (report-only).
        """
        if fail_on == "never":
            return 0
        threshold = Severity.parse(fail_on)
        for finding in self.findings:
            if finding.severity.at_least(threshold):
                return 1
        return 0

    def to_json(self, include_stats: bool = False) -> str:
        """Stable JSON document (used by the CI ``static-check`` job).

        *include_stats* (the ``--stats`` flag) adds a ``cache`` block
        with the incremental run's analyzed/reused counts; it is opt-in
        so the default document stays byte-identical between cold and
        warm runs.
        """
        payload: Dict[str, object] = {
            "modules_checked": self.modules_checked,
            "rules_run": self.rules_run,
            "suppressed": self.suppressed,
            "counts": self.counts_by_severity(),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        if include_stats and self.analyzed is not None:
            payload["cache"] = {
                "analyzed": self.analyzed,
                "reused": self.reused,
            }
        return json.dumps(payload, indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Human-readable report, one line per finding.

        Findings with a witness path (the flow rules) are followed by
        the indented step-by-step trace — the same steps SARIF mode
        emits as ``codeFlows``.
        """
        lines = []
        for finding in self.findings:
            lines.append(str(finding))
            for number, step in enumerate(finding.flow, start=1):
                lines.append(
                    f"    step {number}: {step.path}:{step.line}: "
                    f"{step.note}"
                )
        counts = self.counts_by_severity()
        summary = ", ".join(
            f"{counts[key]} {key}" for key in ("error", "warning", "info")
            if key in counts
        ) or "no findings"
        lines.append(
            f"checked {self.modules_checked} modules with "
            f"{len(self.rules_run)} rules: {summary}"
            + (f" ({self.suppressed} suppressed)" if self.suppressed else "")
        )
        return "\n".join(lines)


def _inert_finding(rel: str, lineno: int, codes: str) -> CheckFinding:
    """The synthetic RC100 finding for one justification-less comment."""
    return CheckFinding(
        code=INERT_SUPPRESSION_CODE,
        severity=Severity.WARNING,
        path=rel,
        line=lineno,
        column=0,
        message=(
            f"suppression of [{codes}] has no justification; "
            "add '-- <reason>' for it to take effect"
        ),
        remediation=(
            "Every inline suppression must explain itself: "
            "'# repro-check: ignore[RC###] -- reason'."
        ),
    )


def _facts_suppressed(facts: ModuleFacts, code: str, line: int) -> bool:
    """Suppression lookup against a (possibly cached) facts record."""
    for lineno, codes in facts.suppressions:
        if lineno == line and code in codes:
            return True
    return False


def _analyze_one(
    root: Path, rel: str, module_rules: Sequence[CheckRule]
) -> Dict[str, object]:
    """Parse one file, run the module-scope rules, distill the facts.

    The returned entry is exactly what the cache stores — both cold and
    warm runs consume findings through this serialized form, which is
    what makes their reports byte-identical.
    """
    module = ModuleSource(root / rel, root)
    project = ProjectContext(root, [module])
    findings: List[CheckFinding] = []
    suppressed = 0
    for rule in module_rules:
        for finding in rule.check(module, project):
            if module.is_suppressed(finding.code, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return {
        "facts": module.facts.to_dict(),
        "findings": [finding_to_dict(finding) for finding in findings],
        "suppressed": suppressed,
    }


#: One worker's job: ``(root, rels, codes, severities)``.
_Chunk = Tuple[str, Tuple[str, ...], Tuple[str, ...], Tuple[Tuple[str, str], ...]]


def _analyze_chunk(chunk: _Chunk) -> Dict[str, Dict[str, object]]:
    """Pool worker: analyze one chunk of files.

    The chunk is plain strings, and the worker rebuilds its rule
    instances from the registry, so nothing heavier than strings
    crosses the process boundary.
    """
    root_text, rels, codes, severities = chunk
    overrides = {
        code: Severity.parse(value) for code, value in severities
    }
    engine = CheckEngine(select=codes, severity_overrides=overrides)
    root = Path(root_text)
    return {rel: _analyze_one(root, rel, engine.module_rules) for rel in rels}


class CheckEngine:
    """Instantiate rules, run them over a project, gather findings."""

    def __init__(
        self,
        rules: Optional[Iterable[Type[CheckRule]]] = None,
        severity_overrides: Optional[Dict[str, Severity]] = None,
        select: Optional[Iterable[str]] = None,
    ) -> None:
        classes = list(rules) if rules is not None else all_check_rules()
        if select is not None:
            wanted = {resolve_code(code) for code in select}
            classes = [cls for cls in classes if cls.code in wanted]
        overrides = severity_overrides or {}
        self.rules = [cls(overrides.get(cls.code)) for cls in classes]

    @property
    def module_rules(self) -> List[CheckRule]:
        """Rules whose findings depend on one file only (cacheable)."""
        return [rule for rule in self.rules if rule.scope == "module"]

    @property
    def project_rules(self) -> List[CheckRule]:
        """Rules that consume the whole-program facts and graph."""
        return [rule for rule in self.rules if rule.scope == "project"]

    def fingerprint(self) -> Dict[str, object]:
        """What a cache entry is valid against: format + effective rules.

        Any change to the rule set or to an effective severity (via
        ``--select`` or ``--severity``) invalidates every entry —
        cached findings embed both.
        """
        return {
            "cache_version": CACHE_VERSION,
            "rules": [
                [rule.code, rule.severity.value] for rule in self.rules
            ],
        }

    def run(self, project: ProjectContext) -> CheckReport:
        """In-memory path: run every rule over every parsed module."""
        findings: List[CheckFinding] = []
        suppressed = 0
        for module in project.modules:
            for rule in self.rules:
                for finding in rule.check(module, project):
                    if module.is_suppressed(finding.code, finding.line):
                        suppressed += 1
                    else:
                        findings.append(finding)
            for lineno, codes in module.inert_suppressions:
                findings.append(_inert_finding(module.rel, lineno, codes))
        return CheckReport(
            findings=findings,
            rules_run=[rule.code for rule in self.rules],
            modules_checked=len(project.modules),
            suppressed=suppressed,
        )

    def analyze(
        self,
        root: Path,
        targets: Optional[Sequence[str]] = None,
        cache_path: Optional[Path] = None,
        jobs: int = 1,
    ) -> CheckReport:
        """Incremental path: hash, reuse, re-analyze, then whole-program.

        Files whose sha256 matches a cache entry contribute their
        stored facts and findings without being read again; the rest
        are analyzed (over ``jobs`` processes when ``jobs > 1``).
        Project-scope rules then run over every file's facts, so a
        one-file edit still gets whole-program analysis.
        """
        root = root.resolve()
        files = _iter_python_files(root, targets or DEFAULT_ROOTS)
        rels = [path.relative_to(root).as_posix() for path in files]
        shas = {rel: file_sha(root / rel) for rel in rels}
        fingerprint = self.fingerprint()
        cached = load_entries(cache_path, fingerprint)
        entries: Dict[str, Dict[str, object]] = {}
        misses: List[str] = []
        for rel in rels:
            entry = cached.get(rel)
            if (
                isinstance(entry, dict)
                and entry.get("sha") == shas[rel]
            ):
                entries[rel] = entry
            else:
                misses.append(rel)
        for rel in _ripple_dependents(misses, entries):
            misses.append(rel)
            entries.pop(rel, None)
        for rel, fresh in self._analyze_misses(root, misses, jobs).items():
            fresh["sha"] = shas[rel]
            entries[rel] = fresh
        # A run that reused every entry and saw no file come or go has
        # nothing new to write.
        if cache_path is not None and (misses or entries.keys() != cached.keys()):
            save_entries(cache_path, fingerprint, entries)

        findings: List[CheckFinding] = []
        suppressed = 0
        facts_list: List[ModuleFacts] = []
        for rel in rels:
            entry = entries[rel]
            facts = ModuleFacts.from_dict(entry["facts"])  # type: ignore[arg-type]
            facts_list.append(facts)
            findings.extend(
                finding_from_dict(payload)
                for payload in entry["findings"]  # type: ignore[union-attr]
            )
            suppressed += int(entry["suppressed"])  # type: ignore[arg-type]
            for lineno, codes in facts.inert_suppressions:
                findings.append(_inert_finding(facts.rel, lineno, codes))

        graph = ProjectGraph(
            facts_list, reference_corpus(root), docs_corpus(root)
        )
        for rule in self.project_rules:
            for facts in facts_list:
                for finding in rule.check_facts(facts, graph):
                    if _facts_suppressed(facts, finding.code, finding.line):
                        suppressed += 1
                    else:
                        findings.append(finding)
        return CheckReport(
            findings=findings,
            rules_run=[rule.code for rule in self.rules],
            modules_checked=len(rels),
            suppressed=suppressed,
            analyzed=len(misses),
            reused=len(rels) - len(misses),
        )

    def _analyze_misses(
        self, root: Path, misses: Sequence[str], jobs: int
    ) -> Dict[str, Dict[str, object]]:
        """Analyze changed files, serially or over ``jobs`` processes."""
        if jobs > 1 and len(misses) > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            codes = tuple(rule.code for rule in self.rules)
            severities = tuple(
                (rule.code, rule.severity.value) for rule in self.rules
            )
            size = (len(misses) + jobs - 1) // jobs
            chunks = [
                (str(root), tuple(misses[start : start + size]), codes, severities)
                for start in range(0, len(misses), size)
            ]
            merged: Dict[str, Dict[str, object]] = {}
            # Spawned workers re-import the rules; the chunks carry
            # everything else, and no forked copy of this process's
            # state (or its threads) rides along.
            with ProcessPoolExecutor(
                max_workers=len(chunks),
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                for output in pool.map(_analyze_chunk, chunks):
                    merged.update(output)
            return merged
        module_rules = self.module_rules
        return {
            rel: _analyze_one(root, rel, module_rules) for rel in misses
        }


def _ripple_dependents(
    misses: Sequence[str], entries: Dict[str, Dict[str, object]]
) -> List[str]:
    """Cached files whose flow summaries a changed file invalidates.

    Interprocedural summaries (taint returns, parameter mutations)
    cross module boundaries along import edges, so when a file changes,
    every module that imports it — transitively — must be re-analyzed
    too: its cached summaries may mention the edited callee.  Edges are
    read from the *cached* facts (the only ones available before the
    re-parse) and matched coarsely: ``from repro.core import context``
    and ``import repro.core.context`` both count as depending on
    ``repro.core.context``.  With no misses this is a no-op, keeping the
    warm-unchanged path at zero re-analyzed modules.
    """
    if not misses:
        return []

    depends: Dict[str, set] = {}
    for rel, entry in entries.items():
        facts = entry.get("facts")
        if not isinstance(facts, dict):
            continue
        sources = set()
        for imp in facts.get("imports", ()):
            source = imp.get("source") if isinstance(imp, dict) else None
            if not source:
                continue
            sources.add(str(source))
            for name in imp.get("names", ()):
                sources.add(f"{source}.{name}")
        depends[rel] = sources
    missed_rels = set(misses)
    missed_dotted = {
        dotted
        for dotted in (_ripple_name(rel) for rel in missed_rels)
        if dotted
    }
    rippled: List[str] = []
    changed = True
    while changed:
        changed = False
        for rel in sorted(depends):
            if rel in missed_rels:
                continue
            if depends[rel] & missed_dotted:
                missed_rels.add(rel)
                missed_dotted.add(_ripple_name(rel))
                rippled.append(rel)
                changed = True
    return rippled


def _ripple_name(rel: str) -> str:
    """The dotted name a changed file is importable under.

    ``src/`` files use the canonical package path; anything else (the
    ``scripts/`` tree, test projects with a flat layout) falls back to
    the path-derived name.  Matching stays coarse on purpose — a false
    positive only re-analyzes one extra file.
    """
    from .context import _dotted_name

    dotted = _dotted_name(rel)
    if dotted or not rel.endswith(".py"):
        return dotted
    return rel[: -len(".py")].replace("/", ".")
