"""The tool-free unused-import floor of ``scripts/lint.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "lint.py"
_spec = importlib.util.spec_from_file_location("repo_lint", SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_dead_import_is_reported():
    source = (
        "import os\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "\n"
        "def size(items: List[int]) -> int:\n"
        "    return len(items)\n"
    )
    assert lint.unused_imports(source) == [(1, "os"), (3, "Dict")]


def test_reads_that_count_as_use():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import xml.dom\n"
        "from typing import TYPE_CHECKING, Optional, Tuple\n"
        "from collections import OrderedDict\n"
        "from enum import Enum  # noqa: F401\n"
        "from decimal import Decimal  # noqa\n"
        "from fractions import Fraction\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path, PurePath\n"
        "__all__ = ['Fraction']\n"
        "Pair = Tuple['PurePath', int]\n"
        "def load(path: 'Optional[Path]') -> 'OrderedDict':\n"
        "    return json.loads(xml.dom.__name__)\n"
    )
    assert lint.unused_imports(source) == []


def test_noqa_for_another_code_does_not_hide_f401():
    source = "import os  # noqa: E402\n"
    assert lint.unused_imports(source) == [(1, "os")]


def test_tree_is_clean():
    assert lint.check_unused_imports() == []
