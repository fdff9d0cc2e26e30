"""SARIF 2.1.0 emitter for ``repro check`` reports.

SARIF (Static Analysis Results Interchange Format) is what code hosts
ingest for inline PR annotations — CI uploads the output of ``repro
check --format sarif`` via ``github/codeql-action/upload-sarif`` and
findings appear on the diff instead of in a log nobody opens.

The document is minimal but schema-valid: one run, the full rule
metadata (title, rationale, remediation) under ``tool.driver.rules``,
and one ``result`` per finding.  SARIF regions are 1-based; finding
columns are 0-based ast offsets, so they shift by one on the way out.

Findings that carry a witness path (the RC113 and RC115 flow rules)
also emit it as ``codeFlows``/``threadFlows`` — one location per step,
each with its own file (interprocedural witnesses cross modules) and a
``message`` narrating the step — which code hosts render as a
clickable taint trace under the annotation.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..diagnostics.model import Severity
from .engine import INERT_SUPPRESSION_CODE, CheckReport
from .model import check_rule_for_code

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

#: SARIF result levels per severity (SARIF has no "info"; it has "note").
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rule_metadata(code: str) -> Dict[str, object]:
    """SARIF ``reportingDescriptor`` for one rule code."""
    rule = check_rule_for_code(code)
    if rule is not None:
        title = rule.title
        rationale = rule.rationale()
        remediation = rule.remediation()
        level = _LEVELS[rule.default_severity]
    elif code == INERT_SUPPRESSION_CODE:
        title = "suppression comment has no justification"
        rationale = (
            "A '# repro-check: ignore[...]' comment without the "
            "mandatory '-- reason' tail suppresses nothing and is "
            "reported so it gets fixed rather than trusted."
        )
        remediation = (
            "Add '-- <reason>' to the suppression, or delete it."
        )
        level = "warning"
    else:  # pragma: no cover - unknown codes cannot normally appear
        title = code
        rationale = ""
        remediation = ""
        level = "warning"
    descriptor: Dict[str, object] = {
        "id": code,
        "name": code,
        "shortDescription": {"text": title},
        "defaultConfiguration": {"level": level},
    }
    if rationale:
        descriptor["fullDescription"] = {"text": rationale.split("\n\n")[0]}
    if remediation:
        descriptor["help"] = {"text": remediation}
    return descriptor


def render_sarif(report: CheckReport, version: Optional[str] = None) -> str:
    """The report as a SARIF 2.1.0 JSON document."""
    codes = sorted(
        set(report.rules_run)
        | {finding.code for finding in report.findings}
    )
    rule_index = {code: index for index, code in enumerate(codes)}
    results: List[Dict[str, object]] = []
    for finding in report.findings:
        result: Dict[str, object] = {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": _LEVELS[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column + 1,
                        },
                    }
                }
            ],
        }
        if finding.flow:
            result["codeFlows"] = [
                {
                    "threadFlows": [
                        {
                            "locations": [
                                {
                                    "location": {
                                        "physicalLocation": {
                                            "artifactLocation": {
                                                "uri": step.path
                                            },
                                            "region": {
                                                "startLine": step.line,
                                                "startColumn": step.column
                                                + 1,
                                            },
                                        },
                                        "message": {"text": step.note},
                                    }
                                }
                                for step in finding.flow
                            ]
                        }
                    ]
                }
            ]
        results.append(result)
    driver: Dict[str, object] = {
        "name": "repro-check",
        "rules": [_rule_metadata(code) for code in codes],
    }
    if version:
        driver["version"] = version
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
