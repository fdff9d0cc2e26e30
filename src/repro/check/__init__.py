"""``repro check`` — AST-based invariant analyzer for the repo itself.

The dataset diagnostics engine (:mod:`repro.diagnostics`) audits the
*inputs* of the inference; this package audits the *source code* that
consumes them.  The scaling work of PRs 2–4 rests on invariants that
are enforced only by convention — frozen snapshots are never mutated,
fast engines stay bit-identical to their frozen references, the asyncio
serve loop never blocks — and a single unsorted ``set`` iteration or an
unseeded ``random`` call silently breaks the reproducibility claims the
paper's §5 methodology depends on.

The analyzer mirrors the diagnostics design: small independent
:class:`~repro.check.model.CheckRule` classes register through
``@register_check_rule``, an engine runs them over parsed modules, and
the rule docstrings render into ``docs/STATIC_ANALYSIS.md``.  Findings
can be suppressed inline with a mandatory justification::

    risky_call()  # repro-check: ignore[RC110] -- why this is fine

Entry points: ``repro check`` (CLI), ``make check``, and the CI
``static-check`` job.  ``python -m repro.check.ratchet`` guards the
companion mypy strict-mode baseline in ``scripts/mypy_ratchet.json``.
"""

from .engine import CheckEngine, CheckReport, load_project
from .model import (
    CheckFinding,
    CheckRule,
    all_check_rules,
    check_rule_for_code,
    register_check_rule,
)

__all__ = [
    "CheckEngine",
    "CheckReport",
    "CheckFinding",
    "CheckRule",
    "all_check_rules",
    "check_rule_for_code",
    "load_project",
    "register_check_rule",
]
