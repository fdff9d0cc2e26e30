"""Fixture-driven coverage for every ``repro check`` rule.

Each rule has at least one ``rc###_bad*.py`` fixture it must fire on
and one ``rc###_good*.py`` fixture it must stay silent on; the
meta-test enforces that the pairing exists for *every* registered rule,
so a new rule cannot land untested.
"""

from pathlib import Path

import pytest

from repro.check import CheckEngine, all_check_rules, load_project

FIXTURES = Path(__file__).parent / "fixtures" / "check"


def _findings_for(code, fixture_name):
    engine = CheckEngine(select=[code])
    project = load_project(FIXTURES, [fixture_name])
    assert project.modules, f"fixture {fixture_name} did not load"
    report = engine.run(project)
    return [finding for finding in report.findings if finding.code == code]


def _fixture_names(code, kind):
    return sorted(
        path.name for path in FIXTURES.glob(f"{code.lower()}_{kind}*.py")
    )


def test_every_rule_has_fixture_pair():
    """Meta-test: each registered rule ships a failing and a passing
    fixture."""
    rules = all_check_rules()
    assert len(rules) >= 8
    for rule in rules:
        assert _fixture_names(rule.code, "bad"), (
            f"{rule.code} has no bad fixture under tests/fixtures/check"
        )
        assert _fixture_names(rule.code, "good"), (
            f"{rule.code} has no good fixture under tests/fixtures/check"
        )


@pytest.mark.parametrize("rule", all_check_rules(), ids=lambda r: r.code)
def test_rule_fires_on_bad_and_passes_good(rule):
    for name in _fixture_names(rule.code, "bad"):
        assert _findings_for(rule.code, name), (
            f"{rule.code} stayed silent on {name}"
        )
    for name in _fixture_names(rule.code, "good"):
        findings = _findings_for(rule.code, name)
        assert not findings, (
            f"{rule.code} fired on {name}: {[str(f) for f in findings]}"
        )


#: Every finding the flow rules report on their bad fixtures.  The
#: meta-test above asks for one finding per file, so a second shape in
#: the same file (``leak_on_raise`` beside ``leak_on_branch``) could go
#: quiet unnoticed; this list cannot.
FLOW_FINDINGS = [
    ("RC110", "rc110_bad.py", 17),
    ("RC110", "rc110_bad.py", 17),
    ("RC110", "rc110_bad.py", 25),
    ("RC110", "rc110_bad_direct.py", 8),
    ("RC110", "rc110_bad_direct.py", 10),
    ("RC110", "rc110_bad_direct.py", 11),
    ("RC110", "rc110_bad_direct.py", 16),
    ("RC111", "rc111_bad.py", 17),
    ("RC111", "rc111_bad.py", 18),
    ("RC111", "rc111_bad.py", 28),
    ("RC111", "rc111_bad_direct.py", 10),
    ("RC111", "rc111_bad_direct.py", 15),
    ("RC111", "rc111_bad_direct.py", 20),
    ("RC111", "rc111_bad_direct.py", 24),
    ("RC111", "rc111_bad_direct.py", 28),
    ("RC113", "rc113_bad.py", 23),
    ("RC113", "rc113_bad.py", 29),
    ("RC113", "rc113_bad.py", 35),
    ("RC113", "rc113_bad_interproc.py", 23),
    ("RC113", "rc113_bad_interproc.py", 32),
    ("RC114", "rc114_bad.py", 16),
    ("RC114", "rc114_bad.py", 23),
    ("RC114", "rc114_bad_interproc.py", 15),
    ("RC115", "rc115_bad.py", 11),
    ("RC115", "rc115_bad_interproc.py", 21),
]


def test_flow_rules_report_every_bad_fixture_finding():
    found = sorted(
        (code, name, finding.line)
        for code in ("RC110", "RC111", "RC113", "RC114", "RC115")
        for name in _fixture_names(code, "bad")
        for finding in _findings_for(code, name)
    )
    assert found == FLOW_FINDINGS


def test_rule_codes_unique_and_well_formed():
    rules = all_check_rules()
    codes = [rule.code for rule in rules]
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert code.startswith("RC") and code[2:].isdigit()


def test_every_rule_documents_itself():
    for rule in all_check_rules():
        assert rule.title, f"{rule.code} has no title"
        assert rule.rationale(), f"{rule.code} has no rationale"
        assert rule.remediation(), f"{rule.code} has no remediation"


def test_rc101_pinpoints_every_import_form():
    findings = _findings_for("RC101", "rc101_bad.py")
    assert len(findings) == 3  # import, from-import, from-concurrent


def test_rc102_sees_all_mutation_shapes():
    """The retired RC102's cases, now RC111 at depth 0."""
    messages = [
        f.message for f in _findings_for("RC111", "rc111_bad_direct.py")
    ]
    assert len(messages) == 5
    assert any("del" in message for message in messages)
    assert any("LeaseIndex" in message for message in messages)
    assert any("RibSnapshot" in message for message in messages)


def test_rc103_separates_sets_random_and_clock():
    messages = [f.message for f in _findings_for("RC103", "rc103_bad.py")]
    assert sum("PYTHONHASHSEED" in m for m in messages) == 4
    assert sum("unseeded global generator" in m for m in messages) == 1
    assert sum("wall clock" in m for m in messages) == 1


def test_rc103_offers_sorted_fixes():
    engine = CheckEngine(select=["RC103"])
    report = engine.run(load_project(FIXTURES, ["rc103_bad.py"]))
    fixable = [f for f in report.findings if f.fix is not None]
    assert fixable, "set-iteration findings should carry sorted() fixes"
    for finding in fixable:
        assert finding.fix.replacement.startswith("sorted(")


def test_rc104_names_the_coroutine():
    """The retired RC104's cases, now RC110 at depth 0."""
    findings = _findings_for("RC110", "rc110_bad_direct.py")
    assert len(findings) == 4
    assert {"handler", "slow_config"} == {
        f.message.rsplit(" ", 1)[-1] for f in findings
    }


def test_retired_codes_act_on_their_successor(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "serve.py").write_text(
        "import time\n"
        "async def tick():\n"
        "    time.sleep(1)\n"
        "async def tock():\n"
        "    time.sleep(1)  # repro-check: ignore[RC104] -- test fixture\n"
    )
    report = CheckEngine(select=["RC104"]).run(
        load_project(tmp_path, ["serve.py"])
    )
    assert report.rules_run == ["RC110"]
    assert [(f.code, f.line) for f in report.findings] == [("RC110", 3)]
    assert report.suppressed == 1
    assert CheckEngine(select=["RC105"]).rules == []

    assert main(["check", "--explain", "RC104"]) == 0
    out = capsys.readouterr().out
    assert "RC104 is retired; its findings are reported by RC110" in out
    assert "RC110: no blocking calls" in out
    assert main(["check", "--explain", "RC105"]) == 0
    assert "reported by no rule" in capsys.readouterr().out


def test_rc106_flags_bare_and_silent_separately():
    messages = [f.message for f in _findings_for("RC106", "rc106_bad.py")]
    assert any("bare except" in m for m in messages)
    assert any("swallowed" in m for m in messages)


def test_rc107_names_the_tainted_symbol():
    messages = [f.message for f in _findings_for("RC107", "rc107_bad.py")]
    assert any("LeafClassifier" in m for m in messages)
    assert any("AnalysisContext" in m for m in messages)


def test_rc108_reports_the_flag():
    findings = _findings_for("RC108", "rc108_bad_cli.py")
    assert any(
        "--totally-undocumented-flag" in f.message for f in findings
    )


def test_rc109_names_both_layers():
    messages = [f.message for f in _findings_for("RC109", "rc109_bad.py")]
    assert len(messages) == 2  # module-level and deferred import
    assert any("'core' may not import layer 'serve'" in m for m in messages)
    assert any("'core' may not import layer 'cli'" in m for m in messages)


def test_rc109_detects_import_cycles(tmp_path):
    (tmp_path / "first.py").write_text(
        "# repro-check: module=repro.core.first\n"
        "from repro.core.second import helper\n"
    )
    (tmp_path / "second.py").write_text(
        "# repro-check: module=repro.core.second\n"
        "from repro.core.first import helper\n"
    )
    report = CheckEngine(select=["RC109"]).run(
        load_project(tmp_path, ["first.py", "second.py"])
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 1  # reported once, at the cycle's anchor
    assert "import cycle: repro.core.first -> repro.core.second" in (
        messages[0]
    )


def test_rc109_deferred_import_breaks_the_cycle(tmp_path):
    (tmp_path / "first.py").write_text(
        "# repro-check: module=repro.core.first\n"
        "def late():\n"
        "    from repro.core.second import helper\n"
        "    return helper\n"
    )
    (tmp_path / "second.py").write_text(
        "# repro-check: module=repro.core.second\n"
        "from repro.core.first import late\n"
    )
    report = CheckEngine(select=["RC109"]).run(
        load_project(tmp_path, ["first.py", "second.py"])
    )
    assert not report.findings


def test_rc110_reports_the_blocking_path():
    messages = [f.message for f in _findings_for("RC110", "rc110_bad.py")]
    assert any(
        "time.sleep() reachable from async def handler via _retry" in m
        for m in messages
    )
    assert any("open() reachable from async def handler" in m for m in messages)
    assert any(
        ".read_text() reachable from async def load" in m for m in messages
    )


def test_rc111_names_the_mutating_parameter():
    messages = [f.message for f in _findings_for("RC111", "rc111_bad.py")]
    assert any(
        "AnalysisContext instance 'ctx' passed into mutating "
        "parameter 'context' of _poison()" in m
        for m in messages
    )
    assert any("_forward()" in m for m in messages)  # fixpoint hop
    assert any(
        "LeaseIndex instance 'index' passed into mutating "
        "parameter 'index' of Swapper._stamp()" in m
        for m in messages
    )


def test_rc112_flags_both_faces():
    messages = [f.message for f in _findings_for("RC112", "rc112_bad.py")]
    assert any(
        "__all__ export 'forgotten_helper' is never used" in m
        for m in messages
    )
    assert any("'STALE_CONSTANT'" in m for m in messages)
    assert any(
        "rule class OrphanRule subclasses CheckRule but is never "
        "registered" in m
        for m in messages
    )


def test_rc112_export_lives_when_another_module_uses_it(tmp_path):
    (tmp_path / "library.py").write_text(
        "__all__ = ['shared_helper']\n"
        "def shared_helper():\n"
        "    return 1\n"
    )
    (tmp_path / "client.py").write_text(
        "from library import shared_helper\n"
        "print(shared_helper())\n"
    )
    report = CheckEngine(select=["RC112"]).run(
        load_project(tmp_path, ["library.py", "client.py"])
    )
    assert not report.findings


def test_rc113_guards_the_pipeline_trajectory_writer(tmp_path):
    (tmp_path / "bench.py").write_text(
        "import time\n"
        "def write_benchmark(report, path):\n"
        "    path.write_text(str(report))\n"
        "def record(path):\n"
        "    write_benchmark({'t': time.time()}, path)\n"
        "def record_timings(path):\n"
        "    write_benchmark({'t': time.perf_counter()}, path)\n"
    )
    report = CheckEngine(select=["RC113"]).run(
        load_project(tmp_path, ["bench.py"])
    )
    assert [(f.code, f.line) for f in report.findings] == [("RC113", 5)]


@pytest.mark.parametrize(
    "source, lines",
    [
        pytest.param(
            "async def dial(loop, host, port):\n"
            "    return await loop.create_connection(object, host, port)\n",
            [],
            id="asyncio-create-connection",
        ),
        pytest.param(
            "from pathlib import Path\n"
            "def read(p):\n"
            "    return Path(p).open()\n",
            [],
            id="path-open",
        ),
        pytest.param(
            "def dial(socket):\n"
            "    return socket()\n",
            [],
            id="bare-socket",
        ),
        pytest.param(
            "def read(p):\n"
            "    return open(p)\n",
            [2],
            id="return-open",
        ),
        pytest.param(
            "import socket\n"
            "def dial(host, port):\n"
            "    conn = socket.create_connection((host, port))\n"
            "    sock = socket.socket()\n"
            "    return conn, sock\n",
            [3, 4],
            id="socket-module",
        ),
        # The shapes the path-sensitive analysis cleared: a release in
        # ``finally``, one on both arms of an ``if``, and a handle
        # handed back to the caller.
        pytest.param(
            "def read(p):\n"
            "    handle = open(p)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n",
            [2],
            id="close-in-finally",
        ),
        pytest.param(
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def make(name, skip):\n"
            "    segment = SharedMemory(name=name, create=True)\n"
            "    if skip:\n"
            "        segment.close()\n"
            "        return None\n"
            "    segment.close()\n"
            "    segment.unlink()\n",
            [3],
            id="release-both-branches",
        ),
        pytest.param(
            "def hand_back(p):\n"
            "    handle = open(p)\n"
            "    return handle\n",
            [2],
            id="hand-back",
        ),
    ],
)
def test_rc114_fires_on_every_acquisition_outside_a_with_item(
    tmp_path, source, lines
):
    (tmp_path / "acquire.py").write_text(source)
    report = CheckEngine(select=["RC114"]).run(
        load_project(tmp_path, ["acquire.py"])
    )
    assert [f.line for f in report.findings] == lines


def test_rc114_finds_nothing_in_src_scripts_or_bench():
    """Every file or socket the project opens is ``with``-managed."""
    root = FIXTURES.parents[2]
    project = load_project(root, ["src", "scripts", "bench"])
    tops = {module.rel.split("/", 1)[0] for module in project.modules}
    assert tops == {"src", "scripts", "bench"}
    report = CheckEngine(select=["RC114"]).run(project)
    assert [str(f) for f in report.findings] == []
    assert report.suppressed == 0


def test_suppression_requires_justification(tmp_path):
    source = (
        "def swallow(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except ValueError:  "
        "# repro-check: ignore[RC106] -- best effort probe\n"
        "        pass\n"
    )
    target = tmp_path / "suppressed.py"
    target.write_text(source)
    report = CheckEngine(select=["RC106"]).run(
        load_project(tmp_path, ["suppressed.py"])
    )
    assert not report.findings
    assert report.suppressed == 1

    bare = source.replace(" -- best effort probe", "")
    target.write_text(bare)
    report = CheckEngine(select=["RC106"]).run(
        load_project(tmp_path, ["suppressed.py"])
    )
    codes = {finding.code for finding in report.findings}
    assert "RC106" in codes, "unjustified suppression must not suppress"
    assert "RC100" in codes, "inert suppression must be reported"


def test_standalone_suppression_covers_next_line(tmp_path):
    source = (
        "def swallow(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    # repro-check: ignore[RC106] -- demo justification above\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    target = tmp_path / "above.py"
    target.write_text(source)
    report = CheckEngine(select=["RC106"]).run(
        load_project(tmp_path, ["above.py"])
    )
    assert not report.findings
    assert report.suppressed == 1


def test_docstring_mention_is_not_a_suppression(tmp_path):
    source = (
        '"""Docs may say repro-check: ignore[RC106] freely."""\n'
        "def swallow(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    target = tmp_path / "doc.py"
    target.write_text(source)
    report = CheckEngine(select=["RC106"]).run(
        load_project(tmp_path, ["doc.py"])
    )
    assert [f.code for f in report.findings] == ["RC106"]
