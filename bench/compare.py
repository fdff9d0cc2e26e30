"""Compare benchmark runs of a parent commit with runs of a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [CHANGE2.jsonl ...]

Each file holds one JSON record per line, as ``bench/run.py --out FILE``
appends them (``workload``, ``seed`` and ``measured``, every metric the
run took, or else ``result``, the run's printed JSON).  For every
workload and metric the table shows each side's median and quartiles,
and for end-to-end metrics a verdict against the bounds in
``BENCHMARK.json``:

* ``improved`` — the change wins at least 9 of every 10 runs paired by
  seed (ties count for neither side) and the medians differ, in the
  better direction, by more than the parent's interquartile range;
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's own spread (interquartile range over
  median) is wider than the bound, and not every change run beats every
  parent run;
* ``unchanged`` — otherwise.

Per-layer metrics have no bound: they read ``improved`` or ``worse`` by
the same 9-of-10 rule, and ``-`` otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``(workload, metric) -> {seed: value}``
Runs = Dict[Tuple[str, str], Dict[int, float]]


def load_runs(path: Path) -> Runs:
    runs: Runs = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = record.get("measured", record["result"]["metrics"])
        for name, metric in metrics.items():
            runs.setdefault((record["workload"], name), {})[
                record["seed"]
            ] = metric["value"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Dict[int, float],
    change: Dict[int, float],
    lower_is_better: bool,
    bound: Optional[float],
) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_median, p_q3 = quartiles(list(parent.values()))
    _c_q1, c_median, _c_q3 = quartiles(list(change.values()))
    pairs = sorted(set(parent) & set(change))
    wins = sum(
        1 for seed in pairs if sign * (change[seed] - parent[seed]) < 0
    )
    losses = sum(
        1 for seed in pairs if sign * (change[seed] - parent[seed]) > 0
    )
    gain = sign * (p_median - c_median)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > p_q3 - p_q1:
            return "worse"
        return "-"
    if -gain > bound * abs(p_median):
        return "regressed"
    all_better = all(
        sign * (c - p) < 0 for c in change.values() for p in parent.values()
    )
    if (p_q3 - p_q1) > bound * abs(p_median) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(
    parent: Runs, change: Runs, declared: Dict[str, dict]
) -> List[str]:
    lines = [
        f"{'workload':<16} {'metric':<36} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30}  verdict"
    ]
    for workload, name in sorted(set(parent) & set(change)):
        spec = declared.get(name)
        if spec is None:
            continue
        before = parent[(workload, name)]
        after = change[(workload, name)]
        p = quartiles(list(before.values()))
        c = quartiles(list(after.values()))
        lines.append(
            f"{workload:<16} {name:<36} "
            f"{p[0]:>9.4g} {p[1]:>9.4g} {p[2]:>9.4g}  "
            f"{c[0]:>9.4g} {c[1]:>9.4g} {c[2]:>9.4g}  "
            + verdict(before, after, spec["better"] == "lower",
                      spec.get("bound"))
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("changes", type=Path, nargs="+")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    declared = {
        metric["name"]: metric
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    parent = load_runs(args.parent)
    for path in args.changes:
        print(f"== {args.parent} -> {path}")
        print("\n".join(compare(parent, load_runs(path), declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
