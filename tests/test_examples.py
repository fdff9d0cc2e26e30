"""Integration tests: every example script runs end to end.

Each example is executed in a subprocess (with reduced scale where the
script supports it) and its output is checked for the landmark lines a
reader would look for.  This keeps the examples from rotting as the
library evolves.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "Leased" in output
        assert "213.210.33.0/24 is inferred LEASED" in output
        assert "AS15169" in output

    def test_regional_census(self):
        output = run_example("regional_census.py", "--scale", "400")
        assert "Table 1" in output
        assert "Table 3" in output
        assert "leased prefixes" in output

    def test_broker_evaluation(self):
        output = run_example("broker_evaluation.py", "--scale", "400")
        assert "Table 2" in output
        assert "Prehn 2020" in output
        assert "Error anatomy" in output

    def test_abuse_audit(self):
        output = run_example("abuse_audit.py", "--scale", "400")
        assert "Serial-hijacker overlap" in output
        assert "ASN-DROP" in output
        assert "Top originators" in output

    def test_lease_timeline(self):
        output = run_example("lease_timeline.py", "--scale", "400")
        assert "Fig. 3 timeline" in output
        assert "AS0" in output
        assert "INVALID" in output

    def test_dataset_pipeline(self, tmp_path):
        output = run_example(
            "dataset_pipeline.py",
            "--scale",
            "400",
            "--out",
            str(tmp_path / "data"),
        )
        assert "round trip OK" in output
        assert "rib.mrt" in output
        assert "Table 1" in output

    def test_market_dynamics(self):
        output = run_example("market_dynamics.py", "--scale", "400")
        assert "turnover rate" in output
        assert "re-leased" in output

    def test_whois_service(self):
        output = run_example("whois_service.py")
        assert "WHOIS server listening" in output
        assert "inetnum:" in output
        assert "no entries found" in output


class TestDocstringCoverage:
    """Every public module, class, and function carries a docstring."""

    def test_public_api_documented(self):
        import importlib
        import inspect
        import pkgutil

        import repro

        missing = []
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            if not module.__doc__:
                missing.append(module_info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []
