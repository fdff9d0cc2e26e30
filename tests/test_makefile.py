"""The Makefile runs from a plain checkout, without ``make install``."""

from pathlib import Path

MAKEFILE = Path(__file__).resolve().parents[1] / "Makefile"


def _recipe_lines():
    """Each recipe command, its backslash continuations joined."""
    lines, current = [], ""
    for line in MAKEFILE.read_text().splitlines():
        if not current and not line.startswith("\t"):
            continue
        current += line.rstrip("\\").strip() + " "
        if not line.endswith("\\"):
            lines.append(current.strip())
            current = ""
    return lines


def test_every_python_module_run_puts_src_on_the_path():
    runs = [
        line
        for line in _recipe_lines()
        if "-m repro" in line or "-m pytest" in line
    ]
    assert len(runs) >= 8
    missing = [line for line in runs if "PYTHONPATH=src" not in line]
    assert missing == []
