"""``bench/run.py --quick`` end to end, and its refusal of wrong answers."""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

ROW = re.compile(r"^\s+(\S+)\s+(-?\d+(?:\.\d+)?)\s+(\S+)$")


def _run(args, code=None):
    command = [sys.executable]
    command += ["-c", code] if code else ["bench/run.py"]
    return subprocess.run(
        command + args, cwd=ROOT, capture_output=True, text=True, timeout=170
    )


def test_quick_run_prints_every_declared_metric():
    proc = _run(["--workload", "lookup-churn", "--seed", "3", "--seconds",
                 "12", "--trace", "1", "--quick"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        match = ROW.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["name"] in printed, metric["name"]
        assert printed[metric["name"]][1] == metric["unit"], metric["name"]
    assert re.search(r"^\s+ops_failed\s+0$", proc.stdout, re.M)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        metric["name"] for metric in declared["per_layer"]
    }


def test_a_corrupted_oracle_fails_the_run():
    # Flip the category the cold-start probe expects, so the served
    # answer (which is right) disagrees with the oracle.
    code = textwrap.dedent(
        """
        import sys
        sys.path[:0] = ["src", "."]
        import bench.inputs as inputs
        import bench.run as run

        real = inputs.make_inputs

        def corrupted(*args, **kwargs):
            made = real(*args, **kwargs)
            made.oracle.categories[made.probe] = "NOT_A_CATEGORY"
            return made

        inputs.make_inputs = corrupted
        sys.exit(run.main(sys.argv[1:]))
        """
    )
    proc = _run(["--workload", "lookup-zipf", "--seed", "3", "--seconds",
                 "4", "--quick"], code=code)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
