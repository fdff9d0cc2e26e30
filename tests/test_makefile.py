"""The Makefile runs from a plain checkout, without ``make install``."""

import shlex
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MAKEFILE = ROOT / "Makefile"


def _recipes():
    """``(target, command)`` for each recipe command, continuations joined."""
    recipes, current, target = [], "", None
    for line in MAKEFILE.read_text().splitlines():
        if not current and not line.startswith("\t"):
            if ":" in line and not line.startswith((" ", "#")):
                target = line.split(":", 1)[0].strip()
            continue
        current += line.rstrip("\\").strip() + " "
        if not line.endswith("\\"):
            recipes.append((target, current.strip()))
            current = ""
    return recipes


def test_every_python_module_run_puts_src_on_the_path():
    runs = [
        line
        for _target, line in _recipes()
        if "-m repro" in line or "-m pytest" in line
    ]
    assert len(runs) >= 8
    missing = [line for line in runs if "PYTHONPATH=src" not in line]
    assert missing == []


def test_clean_removes_no_tracked_file():
    removed = [
        word
        for target, command in _recipes()
        if target == "clean" and command.startswith("rm ")
        for word in shlex.split(command)[1:]
        if not word.startswith("-")
    ]
    assert "data/" in removed
    listed = subprocess.run(
        ["git", "ls-files", "--", *removed],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    assert listed.stdout.split() == []
