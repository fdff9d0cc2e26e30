"""Engine, report, catalog, and repo-cleanliness tests for repro check."""

import json
from pathlib import Path

import pytest

from repro.check import CheckEngine, load_project
from repro.check.catalog import render_check_catalog
from repro.diagnostics.model import Severity

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "check"


def test_repo_is_clean():
    """The tentpole guarantee: `repro check` exits 0 on this repository.

    Every pre-existing violation was fixed or suppressed with an inline
    justification; this test keeps it that way.
    """
    report = CheckEngine().run(load_project(REPO_ROOT))
    assert report.modules_checked > 100
    assert not report.findings, [str(f) for f in report.findings]
    assert report.exit_code("warning") == 0


def test_default_targets_skip_fixture_snippets():
    project = load_project(REPO_ROOT)
    assert not any("fixtures" in m.rel for m in project.modules)


def test_globbed_directory_skips_fixtures_explicit_file_does_not():
    globbed = load_project(REPO_ROOT, ["tests"])
    assert not any("fixtures" in m.rel for m in globbed.modules)
    explicit = load_project(
        REPO_ROOT, ["tests/fixtures/check/rc106_bad.py"]
    )
    assert [m.rel for m in explicit.modules] == [
        "tests/fixtures/check/rc106_bad.py"
    ]


def test_file_listed_both_ways_loads_once():
    rel = "tests/fixtures/check/rc106_bad.py"
    for targets in ([rel, "tests"], ["tests", rel]):
        project = load_project(REPO_ROOT, targets)
        hits = [m.rel for m in project.modules if m.rel == rel]
        assert hits == [rel], targets


def test_exit_code_gates():
    report = CheckEngine(select=["RC106"]).run(
        load_project(FIXTURES, ["rc106_bad.py"])
    )
    assert report.findings
    assert report.exit_code("error") == 1
    assert report.exit_code("warning") == 1
    assert report.exit_code("never") == 0


def test_severity_override_downgrades_gate():
    engine = CheckEngine(
        select=["RC106"],
        severity_overrides={"RC106": Severity.INFO},
    )
    report = engine.run(load_project(FIXTURES, ["rc106_bad.py"]))
    assert report.findings
    assert report.exit_code("warning") == 0
    assert report.exit_code("never") == 0


def test_json_report_shape():
    report = CheckEngine(select=["RC106"]).run(
        load_project(FIXTURES, ["rc106_bad.py"])
    )
    payload = json.loads(report.to_json())
    assert payload["modules_checked"] == 1
    assert payload["rules_run"] == ["RC106"]
    assert payload["counts"]["error"] == len(payload["findings"])
    first = payload["findings"][0]
    assert set(first) == {
        "code", "severity", "path", "line", "column",
        "message", "remediation", "fixable",
    }


def test_text_report_mentions_summary():
    report = CheckEngine(select=["RC106"]).run(
        load_project(FIXTURES, ["rc106_bad.py"])
    )
    text = report.render_text()
    assert "rc106_bad.py" in text
    assert "checked 1 modules" in text


def test_findings_sorted_and_stable():
    report = CheckEngine().run(
        load_project(FIXTURES, ["rc103_bad.py", "rc106_bad.py"])
    )
    keys = [(f.path, f.line, f.column, f.code) for f in report.findings]
    assert keys == sorted(keys)


def test_catalog_lists_every_rule():
    from repro.check import all_check_rules

    catalog = render_check_catalog()
    for rule in all_check_rules():
        assert rule.code in catalog
        assert rule.title in catalog


def test_committed_static_analysis_doc_in_sync():
    committed = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(
        encoding="utf-8"
    )
    assert committed == render_check_catalog() + "\n", (
        "docs/STATIC_ANALYSIS.md is stale; run `make docs`"
    )


def test_cli_check_subcommand(capsys):
    from repro.cli import main

    code = main(
        [
            "check",
            "--root", str(FIXTURES),
            "--select", "RC106",
            "--format", "json",
            "--no-cache",
            "rc106_bad.py",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["findings"]


def test_cli_check_clean_repo(capsys):
    from repro.cli import main

    code = main(["check", "--root", str(REPO_ROOT)])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "no findings" in captured.out


@pytest.mark.parametrize(
    "option, value",
    [
        ("--select", "RC999"),
        ("--select", "RC113,RC114"),
        ("--jobs", "0"),
        ("--jobs", "-3"),
    ],
)
def test_cli_check_rejects_unknown_codes_and_job_counts(option, value, capsys):
    """A mistyped CI gate must fail loudly, not run zero rules."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--no-cache", "--root", str(FIXTURES), option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and repr(value) in err
