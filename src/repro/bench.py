"""Pipeline benchmark harness: the perf trajectory behind BENCH_pipeline.json.

Times the three stages of a full reproduction run — world generation,
tree build, classification — for both engine modes (the frozen
reference engine and the fast serial engine) over synthetic worlds of
increasing size, and **appends** the run to the
``BENCH_pipeline.json`` trajectory so every future PR has a number to
beat and the history survives regeneration.  Every mode's output is
digested and checked equivalent to its reference engine; a benchmark
that produces different classifications reports ``"equivalent": false``
and exits non-zero.

Methodology notes (they matter on small machines):

* Each mode runs on a **fresh pipeline** instance.  Keeping a previous
  engine's allocation trees alive would charge one mode for another's
  garbage.
* Results are digested and dropped immediately, and ``gc.collect()``
  runs between repeats, for the same reason.
* Wall times are best-of-``repeats``; throughput is classifiable
  leaves per second of full run (tree build + classify).
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import LeaseInferencePipeline
from .core.results import InferenceResult
from .simulation import BENCH_SIZES, DEFAULT_BENCH_SIZES, bench_world, build_world

__all__ = [
    "SCHEMA_VERSION",
    "all_equivalent",
    "load_trajectory",
    "run_benchmark",
    "write_benchmark",
    "schema_shape",
]

#: v2: per-world ``extensions`` section (legacy / RPKI / longitudinal
#: engine timings) and append-trajectory files — ``write_benchmark``
#: accumulates runs instead of overwriting (the one v1 run is
#: ``runs[0]``).
#: v3: memory accounting — per-mode ``payload_bytes`` (what each spawn
#: worker unpickles) and ``segment_bytes`` (the shared-memory context),
#: ``--memory`` peak-RSS columns, and a cpus-aware ``speedup_vs_serial``
#: that reports ``"insufficient_cpus"`` instead of a misleading ratio
#: when the host has fewer cores than the mode has workers.  Runs
#: recorded before the shared-memory context became the only pool
#: transport also carry ``parallel-N-shm`` / ``spawn-N`` /
#: ``spawn-N-shm`` modes; from then on ``parallel-N`` *is* the
#: shared-memory transport.
#: v4: no process pool — every world and extension times ``reference``
#: against ``serial`` only.  The per-mode ``workers``, ``shard_size``,
#: ``payload_bytes``, ``segment_bytes``, ``speedup_vs_serial`` and
#: ``peak_child_rss_bytes`` fields and ``config.workers`` are gone;
#: v3 runs keep them as recorded.
#: v5: no extension pipelines — ``config.extensions`` and the
#: per-world ``extensions`` section are gone, since the legacy, RPKI
#: and longitudinal analyses have one engine each; v2–v4 runs keep
#: theirs as recorded.
SCHEMA_VERSION = 5

#: A digest of one result: enough to prove equivalence, small enough to
#: keep alive across modes.
_Digest = List[Tuple[str, int, int, str]]


def _digest(result: InferenceResult) -> _Digest:
    return [
        (
            inference.rir.name,
            inference.prefix.network,
            inference.prefix.length,
            inference.category.name,
        )
        for inference in result
    ]


def _time_mode(
    make_pipeline: Callable[[], LeaseInferencePipeline],
    run: Callable[[LeaseInferencePipeline], InferenceResult],
    repeats: int,
) -> Tuple[float, Dict[str, float], _Digest, Optional[Dict[str, object]]]:
    """Best wall time, its stage split, the digest and the cache stats
    of the best run."""
    best_wall: Optional[float] = None
    best_stages: Dict[str, float] = {}
    digest: _Digest = []
    cache: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeats)):
        pipeline = make_pipeline()
        gc.collect()
        started = time.perf_counter()
        result = run(pipeline)
        wall = time.perf_counter() - started
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_stages = dict(pipeline.timings)
            digest = _digest(result)
            try:
                cache = pipeline.cache_stats().as_dict()
            except RuntimeError:
                cache = None
        del result, pipeline
    assert best_wall is not None
    return best_wall, best_stages, digest, cache


def _peak_rss() -> Optional[int]:
    """High-water RSS bytes of this process.

    ``ru_maxrss`` is a lifetime maximum, so per-mode values are
    monotonically non-decreasing across a bench run: a mode's number is
    the peak *up to and including* that mode.  Linux reports kilobytes;
    returns None where :mod:`resource` is unavailable.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    unit = 1024 if sys.platform != "darwin" else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit


def run_benchmark(
    sizes: Optional[Sequence[str]] = None,
    repeats: int = 2,
    seed: int = 20240401,
    quick: bool = False,
    memory: bool = False,
    internet_scale: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the harness and return one ``BENCH_pipeline.json`` run payload.

    ``quick`` is the CI smoke configuration: one repeat and — unless
    ``sizes`` is given explicitly — the small world only.  ``memory``
    records peak RSS per mode.  ``internet_scale`` overrides the
    downsampling divisor of the ``xlarge`` / ``internet`` tiers (larger
    divisor, smaller world).
    """

    def say(message: str) -> None:
        if log is not None:
            log(message)

    if quick:
        sizes = list(sizes) if sizes else ["small"]
        repeats = 1
    sizes = list(sizes) if sizes is not None else list(DEFAULT_BENCH_SIZES)

    worlds: List[Dict[str, object]] = []
    for size in sizes:
        say(f"[bench] building {size} world (seed {seed}) ...")
        started = time.perf_counter()
        scale = internet_scale if size in ("xlarge", "internet") else None
        world = build_world(bench_world(size, seed=seed, scale=scale))
        generate_s = time.perf_counter() - started

        def make_pipeline() -> LeaseInferencePipeline:
            return LeaseInferencePipeline(
                world.whois,
                world.routing_table,
                world.relationships,
                world.as2org,
            )

        say(f"[bench] {size}: generate {generate_s:.2f}s; reference run ...")
        ref_wall, ref_stages, ref_digest, _ = _time_mode(
            make_pipeline, lambda p: p.run_reference(), repeats
        )
        leaves = len(ref_digest)

        modes: List[Dict[str, object]] = [
            _mode_payload(
                "reference",
                wall=ref_wall,
                stages=ref_stages,
                leaves=leaves,
                ref_wall=ref_wall,
                cache=None,
                equivalent=True,
                memory=memory,
            )
        ]

        say(f"[bench] {size}: {leaves} leaves; serial run ...")
        serial_wall, serial_stages, serial_digest, serial_cache = _time_mode(
            make_pipeline, lambda p: p.run(), repeats
        )
        modes.append(
            _mode_payload(
                "serial",
                wall=serial_wall,
                stages=serial_stages,
                leaves=leaves,
                ref_wall=ref_wall,
                cache=serial_cache,
                equivalent=serial_digest == ref_digest,
                memory=memory,
            )
        )

        world_payload: Dict[str, object] = {
            "size": size,
            "seed": seed,
            "classifiable_leaves": leaves,
            "routed_prefixes": world.routing_table.num_prefixes(),
            "stages": {"generate_s": round(generate_s, 4)},
            "modes": modes,
        }
        worlds.append(world_payload)
        del make_pipeline, world
        gc.collect()

    return {
        "schema": {"name": "BENCH_pipeline", "version": SCHEMA_VERSION},
        "config": {
            "seed": seed,
            "sizes": sizes,
            "repeats": max(1, repeats),
            "quick": quick,
            "memory": memory,
            "internet_scale": internet_scale,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": _cpu_count(),
        },
        "worlds": worlds,
    }


def _mode_payload(
    mode: str,
    wall: float,
    stages: Dict[str, float],
    leaves: int,
    ref_wall: float,
    cache: Optional[Dict[str, object]],
    equivalent: bool,
    memory: bool = False,
) -> Dict[str, object]:
    return {
        "mode": mode,
        "wall_s": round(wall, 4),
        "leaves_per_s": round(leaves / wall, 1) if wall else 0.0,
        "speedup_vs_reference": round(ref_wall / wall, 2) if wall else 0.0,
        "peak_rss_bytes": _peak_rss() if memory else None,
        "stages": {name: round(value, 4) for name, value in stages.items()},
        "cache": cache,
        "equivalent": equivalent,
    }


def _cpu_count() -> int:
    try:
        import os

        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        import os

        return os.cpu_count() or 1


def all_equivalent(report: Dict[str, object]) -> bool:
    """True when every mode of every world matched its reference engine."""
    return all(
        bool(mode["equivalent"])
        for world in report["worlds"]  # type: ignore[union-attr]
        for mode in world["modes"]  # type: ignore[index]
    )


def load_trajectory(path: Path) -> List[Dict[str, object]]:
    """The runs already recorded at *path* (empty for new/unreadable files)."""
    if not path.exists():
        return []
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if isinstance(existing, dict):
        runs = existing.get("runs")
        if isinstance(runs, list):
            return runs
    return []


def write_benchmark(report: Dict[str, object], path: Path) -> None:
    """Append one run payload to the ``BENCH_pipeline.json`` trajectory.

    The file accumulates one entry per run —
    ``{"schema": {"name": "BENCH_pipeline", "version": ...}, "runs":
    [oldest, ..., newest]}`` — so the perf history survives regeneration
    instead of being overwritten.
    """
    runs = load_trajectory(path)
    runs.append(report)
    payload = {
        "schema": {"name": "BENCH_pipeline", "version": SCHEMA_VERSION},
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def schema_shape(value: object) -> object:
    """The payload with every number replaced by its type name.

    Two runs of the same configuration must produce identical shapes —
    that is the schema-determinism contract the tests pin (timings and
    throughputs differ run to run; keys, modes, and orderings may not).
    """
    if isinstance(value, dict):
        return {key: schema_shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [schema_shape(item) for item in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return type(value).__name__
    return value


def run_from_args(args) -> int:
    """CLI entry: ``repro bench``."""
    from .reporting import render_bench_report

    sizes = None
    if getattr(args, "sizes", None):
        sizes = [size.strip() for size in args.sizes.split(",") if size.strip()]
        unknown = [size for size in sizes if size not in BENCH_SIZES]
        if unknown:
            print(f"unknown bench sizes: {', '.join(unknown)} "
                  f"(expected {', '.join(BENCH_SIZES)})")
            return 2
    report = run_benchmark(
        sizes=sizes,
        repeats=args.repeats,
        seed=args.seed,
        quick=args.quick,
        memory=getattr(args, "memory", False),
        internet_scale=getattr(args, "xlarge_scale", None),
        log=print,
    )
    write_benchmark(report, args.out)
    print(render_bench_report(report))
    print(f"wrote {args.out}")
    if not all_equivalent(report):
        print("FAIL: a mode diverged from the reference engine")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    from .cli import main

    sys.exit(main(["bench"] + sys.argv[1:]))
