"""Incremental-cache, parallel fan-out, and SARIF emitter coverage.

The contract under test: a warm cached run re-analyzes only changed
files yet reports byte-for-byte what a cold run reports, any change to
the effective rule set invalidates the cache wholesale, and the SARIF
document is structurally valid 2.1.0.
"""

import json
import os

import pytest

from repro.check import CheckEngine
from repro.check.cache import (
    DEFAULT_CACHE_NAME,
    file_sha,
    load_entries,
)
from repro.check.sarif import SARIF_SCHEMA_URI, SARIF_VERSION, render_sarif
from repro.diagnostics.model import Severity

BAD_SOURCE = (
    "def swallow(fn):\n"
    "    try:\n"
    "        return fn()\n"
    "    except ValueError:\n"
    "        pass\n"
)

CLEAN_SOURCE = "def fine():\n    return 1\n"


@pytest.fixture()
def project(tmp_path):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    (tmp_path / "clean.py").write_text(CLEAN_SOURCE)
    return tmp_path


def _analyze(root, cache_path, select=("RC106",), jobs=1, **kwargs):
    engine = CheckEngine(select=list(select), **kwargs)
    return engine.analyze(root, ["."], cache_path=cache_path, jobs=jobs)


# -- cache behaviour ------------------------------------------------------


def test_cold_then_warm_reuses_everything(project):
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache)
    assert cold.analyzed == 2 and cold.reused == 0
    assert [f.code for f in cold.findings] == ["RC106"]
    warm = _analyze(project, cache)
    assert warm.analyzed == 0 and warm.reused == 2
    assert warm.to_json() == cold.to_json()
    assert warm.render_text() == cold.render_text()


def _age(path):
    """Backdate *path*'s mtime to the epoch, so any rewrite shows."""
    os.utime(path, ns=(0, 0))


def test_unchanged_warm_run_does_not_rewrite_the_cache(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    _age(cache)
    warm = _analyze(project, cache)
    assert warm.analyzed == 0 and warm.reused == 2
    assert cache.stat().st_mtime_ns == 0


def test_deleted_file_still_rewrites_the_cache(project):
    cache = project / DEFAULT_CACHE_NAME
    engine = CheckEngine(select=["RC106"])
    engine.analyze(project, ["."], cache_path=cache)
    _age(cache)
    (project / "clean.py").unlink()
    report = engine.analyze(project, ["."], cache_path=cache)
    assert report.analyzed == 0 and report.reused == 1
    assert cache.stat().st_mtime_ns != 0
    assert set(load_entries(cache, engine.fingerprint())) == {"bad.py"}


def test_edit_reanalyzes_only_the_changed_file(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    (project / "clean.py").write_text("def fine():\n    return 2\n")
    warm = _analyze(project, cache)
    assert warm.analyzed == 1 and warm.reused == 1
    assert [f.code for f in warm.findings] == ["RC106"]


def test_edit_that_introduces_a_finding_is_seen_warm(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    (project / "clean.py").write_text(BAD_SOURCE)
    warm = _analyze(project, cache)
    assert warm.analyzed == 1
    assert sorted(f.path for f in warm.findings) == ["bad.py", "clean.py"]


def test_rule_set_change_invalidates_the_cache(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    other = _analyze(project, cache, select=("RC106", "RC103"))
    assert other.analyzed == 2 and other.reused == 0


def test_severity_override_invalidates_the_cache(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    downgraded = _analyze(
        project,
        cache,
        severity_overrides={"RC106": Severity.INFO},
    )
    assert downgraded.analyzed == 2
    assert downgraded.findings[0].severity is Severity.INFO


def test_corrupt_cache_is_discarded_not_fatal(project):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    cache.write_text("{not json")
    report = _analyze(project, cache)
    assert report.analyzed == 2
    assert [f.code for f in report.findings] == ["RC106"]


def test_load_entries_rejects_foreign_fingerprints(project):
    cache = project / DEFAULT_CACHE_NAME
    engine = CheckEngine(select=["RC106"])
    engine.analyze(project, ["."], cache_path=cache)
    good = load_entries(cache, engine.fingerprint())
    assert set(good) == {"bad.py", "clean.py"}
    assert good["bad.py"]["sha"] == file_sha(project / "bad.py")
    assert load_entries(cache, {"cache_version": -1}) == {}
    assert load_entries(None, engine.fingerprint()) == {}


def test_no_cache_path_never_writes(project):
    report = _analyze(project, None)
    assert report.analyzed == 2
    assert not (project / DEFAULT_CACHE_NAME).exists()


def test_suppressions_survive_the_cache(project):
    suppressed = BAD_SOURCE.replace(
        "    except ValueError:",
        "    except ValueError:  "
        "# repro-check: ignore[RC106] -- probe is best effort",
    )
    (project / "bad.py").write_text(suppressed)
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache)
    assert not cold.findings and cold.suppressed == 1
    warm = _analyze(project, cache)
    assert warm.analyzed == 0
    assert not warm.findings and warm.suppressed == 1


def test_inert_suppression_reported_from_cache(project):
    inert = BAD_SOURCE.replace(
        "    except ValueError:",
        "    except ValueError:  # repro-check: ignore[RC106]",
    )
    (project / "bad.py").write_text(inert)
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache)
    warm = _analyze(project, cache)
    for report in (cold, warm):
        codes = sorted(f.code for f in report.findings)
        assert codes == ["RC100", "RC106"]
    assert warm.to_json() == cold.to_json()


def test_project_rules_see_cached_facts(project):
    # RC112 runs on every invocation, over facts that are entirely
    # cached on the warm run — the dead export must still be found.
    (project / "bad.py").write_text(
        "__all__ = ['dead_export']\n"
        "def dead_export():\n"
        "    return 1\n"
    )
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache, select=("RC112",))
    warm = _analyze(project, cache, select=("RC112",))
    assert warm.analyzed == 0 and warm.reused == 2
    for report in (cold, warm):
        assert [f.code for f in report.findings] == ["RC112"]
        assert "dead_export" in report.findings[0].message


def test_cache_version_bump_invalidates_everything(project, monkeypatch):
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    # A shipped format change bumps CACHE_VERSION; every entry written
    # under the old version must be discarded, never reinterpreted.
    import repro.check.engine as engine_mod

    monkeypatch.setattr(
        engine_mod, "CACHE_VERSION", engine_mod.CACHE_VERSION + 1
    )
    bumped = _analyze(project, cache)
    assert bumped.analyzed == 2 and bumped.reused == 0


def test_import_edge_ripple_reanalyzes_dependents(project):
    # leaf.py is imported by user.py: touching the leaf must also
    # re-analyze the dependent, or its interprocedural facts go stale.
    (project / "leaf.py").write_text("def helper():\n    return 1\n")
    (project / "user.py").write_text(
        "import leaf\n\n\ndef use():\n    return leaf.helper()\n"
    )
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache)
    assert cold.analyzed == 4
    (project / "leaf.py").write_text("def helper():\n    return 2\n")
    warm = _analyze(project, cache)
    # leaf.py (content change) + user.py (ripple); the two unrelated
    # files stay cached.
    assert warm.analyzed == 2 and warm.reused == 2
    assert warm.to_json() == cold.to_json()
    assert warm.render_text() == cold.render_text()


def test_ripple_is_transitive(project):
    (project / "leaf.py").write_text("def helper():\n    return 1\n")
    (project / "mid.py").write_text("import leaf\n")
    (project / "top.py").write_text("import mid\n")
    cache = project / DEFAULT_CACHE_NAME
    _analyze(project, cache)
    (project / "leaf.py").write_text("def helper():\n    return 2\n")
    warm = _analyze(project, cache)
    # leaf + mid + top re-analyzed; bad.py/clean.py reused.
    assert warm.analyzed == 3 and warm.reused == 2


def test_parallel_jobs_match_serial_output(project):
    serial = _analyze(project, None, select=("RC103", "RC106"))
    parallel = _analyze(
        project, None, select=("RC103", "RC106"), jobs=2
    )
    assert parallel.to_json() == serial.to_json()
    assert parallel.analyzed == 2


# -- SARIF ----------------------------------------------------------------


def _sarif_for(project, select=("RC106",)):
    report = _analyze(project, None, select=select)
    return json.loads(render_sarif(report)), report


def test_sarif_document_shape(project):
    document, report = _sarif_for(project)
    assert document["version"] == SARIF_VERSION == "2.1.0"
    assert document["$schema"] == SARIF_SCHEMA_URI
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-check"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert "RC106" in rule_ids
    assert len(run["results"]) == len(report.findings)


def test_sarif_results_reference_rules_and_shift_columns(project):
    document, report = _sarif_for(project)
    (run,) = document["runs"]
    driver_rules = run["tool"]["driver"]["rules"]
    for result, finding in zip(run["results"], report.findings):
        assert result["ruleId"] == finding.code
        assert driver_rules[result["ruleIndex"]]["id"] == finding.code
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.column + 1  # 1-based
        assert result["message"]["text"] == finding.message


def test_sarif_rule_metadata_carries_docs(project):
    document, _report = _sarif_for(project)
    (rule,) = [
        rule
        for rule in document["runs"][0]["tool"]["driver"]["rules"]
        if rule["id"] == "RC106"
    ]
    assert rule["shortDescription"]["text"]
    assert rule["fullDescription"]["text"]
    assert rule["help"]["text"]
    assert rule["defaultConfiguration"]["level"] in (
        "error", "warning", "note",
    )


def test_sarif_covers_synthetic_rc100(project):
    (project / "bad.py").write_text(
        BAD_SOURCE.replace(
            "    except ValueError:",
            "    except ValueError:  # repro-check: ignore[RC106]",
        )
    )
    document, report = _sarif_for(project)
    assert {f.code for f in report.findings} == {"RC100", "RC106"}
    rule_ids = {
        rule["id"]
        for rule in document["runs"][0]["tool"]["driver"]["rules"]
    }
    assert "RC100" in rule_ids  # synthetic code still gets metadata


def test_sarif_severity_level_mapping(project):
    report = _analyze(
        project,
        None,
        severity_overrides={"RC106": Severity.INFO},
    )
    document = json.loads(render_sarif(report))
    levels = {r["level"] for r in document["runs"][0]["results"]}
    assert levels == {"note"}  # SARIF spells info "note"


TAINTED_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def result_digest(payload):\n"
    "    return payload\n"
    "\n"
    "\n"
    "def stamp_and_commit():\n"
    "    stamp = time.time()\n"
    "    result_digest(stamp)\n"
)


def test_sarif_flow_findings_carry_code_flows(project):
    (project / "tainted.py").write_text(TAINTED_SOURCE)
    document, report = _sarif_for(project, select=("RC113",))
    flow_findings = [f for f in report.findings if f.flow]
    assert flow_findings, "RC113 produced no witness path"
    flowed = [
        result
        for result in document["runs"][0]["results"]
        if "codeFlows" in result
    ]
    assert len(flowed) == len(flow_findings)
    for result in flowed:
        (code_flow,) = result["codeFlows"]
        (thread_flow,) = code_flow["threadFlows"]
        locations = thread_flow["locations"]
        assert len(locations) >= 2  # source step plus sink step
        for location in locations:
            physical = location["location"]["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == "tainted.py"
            assert physical["region"]["startLine"] >= 1
            assert location["location"]["message"]["text"]


def test_text_report_renders_witness_steps(project):
    (project / "tainted.py").write_text(TAINTED_SOURCE)
    report = _analyze(project, None, select=("RC113",))
    text = report.render_text()
    assert "step 1:" in text and "step 2:" in text


def test_stats_opt_in_json_shape(project):
    cache = project / DEFAULT_CACHE_NAME
    cold = _analyze(project, cache)
    plain = json.loads(cold.to_json())
    assert "cache" not in plain  # stats stay out unless asked for
    warm = _analyze(project, cache)
    stats = json.loads(warm.to_json(include_stats=True))
    assert stats["cache"] == {"analyzed": 0, "reused": 2}


# -- CLI surface ----------------------------------------------------------


def test_cli_sarif_format(project, capsys):
    from repro.cli import main

    code = main(
        [
            "check",
            "--root", str(project),
            "--select", "RC106",
            "--format", "sarif",
            "--no-cache",
            ".",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    document = json.loads(captured.out)
    assert document["version"] == SARIF_VERSION


def test_cli_stats_flag_reports_cache_counters(project, capsys):
    from repro.cli import main

    code = main(
        [
            "check",
            "--root", str(project),
            "--select", "RC106",
            "--format", "json",
            "--stats",
            "--no-cache",
            "--fail-on", "never",
            ".",
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cache"] == {"analyzed": 2, "reused": 0}


def test_cli_explain_prints_rule_model(capsys):
    from repro.cli import main

    assert main(["check", "--explain", "RC113"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("RC113:")
    assert "Remediation:" in out
    assert "Worked example:" in out


def test_cli_explain_unknown_code_fails(capsys):
    from repro.cli import main

    assert main(["check", "--explain", "RC999"]) == 1
    assert "RC999" in capsys.readouterr().err


def test_cli_cache_and_jobs_flags(project, capsys):
    from repro.cli import main

    cache = project / "custom-cache.json"
    argv = [
        "check",
        "--root", str(project),
        "--select", "RC106",
        "--cache", str(cache),
        "--jobs", "2",
        ".",
    ]
    assert main(argv) == 1
    cold = capsys.readouterr()
    assert "analyzed 2 changed files, reused 0 cached" in cold.err
    assert cache.exists()
    assert main(argv) == 1
    warm = capsys.readouterr()
    assert "analyzed 0 changed files, reused 2 cached" in warm.err
    assert warm.out == cold.out  # warm report is byte-identical
