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
import random
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    IncrementalEngine,
    LeaseInferencePipeline,
    clone_routing_table,
    replay_into_table,
    result_digest,
)
from .core.results import InferenceResult
from .simulation import (
    BENCH_SIZES,
    DEFAULT_BENCH_SIZES,
    bench_world,
    build_world,
    bursts_from_replay,
    evolve_world,
    render_replay_log,
    simulate_update_bursts,
)
from .temporal import (
    DEFAULT_EVOLUTION_SEED,
    build_temporal_product,
    index_encoded_bytes,
)

__all__ = [
    "SCHEMA_VERSION",
    "STREAM_SCHEMA_VERSION",
    "all_equivalent",
    "append_trajectory",
    "load_trajectory",
    "run_benchmark",
    "run_stream_benchmark",
    "stream_from_args",
    "temporal_from_args",
    "write_benchmark",
    "schema_shape",
]

#: v2: per-world ``extensions`` section (legacy / RPKI / longitudinal
#: engine timings) and append-trajectory files — ``write_benchmark``
#: accumulates runs instead of overwriting (v1 payloads migrate to
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
    """The runs already recorded at *path* (empty for new/unreadable files).

    v1 files hold a single run payload at top level; it becomes
    ``runs[0]`` of the migrated trajectory, keeping its own v1
    ``schema`` stamp as provenance.
    """
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
        if "worlds" in existing:
            return [existing]
    return []


def append_trajectory(
    report: Dict[str, object],
    path: Path,
    name: str,
    version: int = SCHEMA_VERSION,
) -> None:
    """Append one run payload to the schema-v2 trajectory at *path*.

    The file accumulates one entry per run —
    ``{"schema": {"name": ..., "version": ...}, "runs": [oldest, ...,
    newest]}`` — so a perf history survives regeneration instead of
    being overwritten.  Pre-v2 single-run files are migrated in place.
    Shared by the pipeline (``BENCH_pipeline.json``), streaming
    (``BENCH_stream.json``) and temporal (``BENCH_temporal.json``)
    benchmarks.
    """
    runs = load_trajectory(path)
    runs.append(report)
    payload = {
        "schema": {"name": name, "version": version},
        "runs": runs,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_benchmark(report: Dict[str, object], path: Path) -> None:
    """Append the run to the ``BENCH_pipeline.json`` trajectory."""
    append_trajectory(report, path, "BENCH_pipeline", SCHEMA_VERSION)


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


# -- streaming benchmark ---------------------------------------------------

#: v1: one run per streaming session — config, baseline full-run time,
#: per-burst incremental-vs-rebuild rows, and the single-update probe
#: behind the headline speedup.
STREAM_SCHEMA_VERSION = 1

#: The simulator's default stream seed (distinct from the world seed so
#: the same world can carry many different feeds).
DEFAULT_STREAM_SEED = 20240403


def run_stream_benchmark(
    size: str = "small",
    seed: int = 20240401,
    stream_seed: int = DEFAULT_STREAM_SEED,
    bursts: int = 3,
    burst_size: int = 32,
    verify: bool = True,
    replay_text: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Dict[str, object], Optional[str]]:
    """One ``BENCH_stream.json`` run: burst-by-burst incremental latency.

    Builds the bench world, runs the full pipeline once (the rebuild
    baseline and the incremental engine's starting state), then applies
    generated update bursts — measuring, per burst, the incremental
    apply against a from-scratch rebuild on the identically mutated
    table, with a digest comparison when ``verify`` is on.  A final
    **single-update** probe captures the headline number: how much
    faster one prefix's churn lands incrementally than via rebuild.

    ``replay_text`` substitutes a committed replay-log fixture for the
    generated feed (the single-update probe is skipped — a replay means
    "reproduce exactly this").  Returns ``(report, replay_json)`` where
    ``replay_json`` re-renders the applied feed for ``--record``.
    """

    def say(message: str) -> None:
        if log is not None:
            log(message)

    replaying = replay_text is not None
    if replay_text is not None:
        size, seed, feed = bursts_from_replay(replay_text)
        probe = None
        bursts = len(feed)
        say(f"[stream] building {size} world (seed {seed}) ...")
        world = build_world(bench_world(size, seed=seed))
    else:
        say(f"[stream] building {size} world (seed {seed}) ...")
        world = build_world(bench_world(size, seed=seed))
        # One extra burst supplies the single-update probe; trimming it
        # to its first message keeps the feed state-consistent because
        # nothing is generated after it.
        feed = simulate_update_bursts(
            world, bursts + 1, burst_size, stream_seed
        )
        probe = feed[bursts][:1]
        feed = feed[:bursts]

    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    say("[stream] baseline full run ...")
    started = time.perf_counter()
    baseline = pipeline.run()
    full_run_s = time.perf_counter() - started
    context = pipeline.context
    assert context is not None
    started = time.perf_counter()
    engine = IncrementalEngine(context)
    engine_build_s = time.perf_counter() - started
    baseline_identical = result_digest(baseline) == engine.digest()
    del baseline
    mutated = clone_routing_table(world.routing_table)

    def rebuild() -> Tuple[float, str]:
        gc.collect()
        restarted = time.perf_counter()
        scratch = LeaseInferencePipeline(
            world.whois, mutated, world.relationships, world.as2org
        ).run()
        wall = time.perf_counter() - restarted
        return wall, result_digest(scratch)

    def measure(
        label: str, burst, burst_index: int
    ) -> Tuple[Dict[str, object], bool]:
        restarted = time.perf_counter()
        report = engine.apply(burst)
        incremental_s = time.perf_counter() - restarted
        replay_into_table(mutated, burst)
        rebuild_s, scratch_digest = rebuild()
        identical = (not verify) or scratch_digest == engine.digest()
        say(
            f"[stream] {label}: {len(burst)} updates, "
            f"{report.reclassified} reclassified, "
            f"incremental {incremental_s * 1000:.1f}ms vs rebuild "
            f"{rebuild_s * 1000:.1f}ms, identical={identical}"
        )
        row: Dict[str, object] = {
            "burst": burst_index,
            "updates": len(burst),
            "applied": report.applied,
            "ignored": report.ignored,
            "changed_prefixes": len(report.changed_prefixes),
            "dirty_roots": len(report.dirty_roots),
            "reclassified": report.reclassified,
            "changed_rows": len(report.changed),
            "incremental_s": round(incremental_s, 6),
            "rebuild_s": round(rebuild_s, 4),
            "speedup_vs_rebuild": (
                round(rebuild_s / incremental_s, 1) if incremental_s else 0.0
            ),
            "bit_identical": identical,
        }
        return row, identical

    rows: List[Dict[str, object]] = []
    all_identical = baseline_identical
    for index, burst in enumerate(feed):
        row, identical = measure(f"burst {index}", burst, index)
        rows.append(row)
        all_identical = all_identical and identical

    single: Optional[Dict[str, object]] = None
    if probe:
        single, identical = measure("single-update probe", probe, bursts)
        all_identical = all_identical and identical

    report_payload: Dict[str, object] = {
        "schema": {"name": "BENCH_stream", "version": STREAM_SCHEMA_VERSION},
        "config": {
            "size": size,
            "seed": seed,
            "stream_seed": None if replaying else stream_seed,
            "bursts": bursts,
            "burst_size": None if replaying else burst_size,
            "verify": verify,
            "replay": replaying,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": _cpu_count(),
        },
        "world": {
            "classifiable_leaves": context.total_leaves(),
            "routed_prefixes": world.routing_table.num_prefixes(),
        },
        "baseline": {
            "full_run_s": round(full_run_s, 4),
            "engine_build_s": round(engine_build_s, 4),
            "baseline_identical": baseline_identical,
        },
        "bursts": rows,
        "single_update": single,
        "totals": {
            "updates": sum(int(str(row["updates"])) for row in rows),
            "reclassified": sum(
                int(str(row["reclassified"])) for row in rows
            ),
            "all_identical": all_identical,
        },
    }
    applied_feed = list(feed) + ([probe] if probe else [])
    replay_json = render_replay_log(size, seed, applied_feed)
    return report_payload, replay_json


def stream_from_args(args) -> int:
    """CLI entry: ``repro stream``."""
    replay_text: Optional[str] = None
    if getattr(args, "replay", None):
        try:
            replay_text = Path(args.replay).read_text()
        except OSError as exc:
            print(f"cannot read replay log {args.replay}: {exc}")
            return 2
    elif args.size not in BENCH_SIZES:
        print(f"unknown world size {args.size!r} "
              f"(expected {', '.join(BENCH_SIZES)})")
        return 2
    report, replay_json = run_stream_benchmark(
        size=args.size,
        seed=args.seed,
        stream_seed=args.stream_seed,
        bursts=args.bursts,
        burst_size=args.burst_size,
        verify=not getattr(args, "no_verify", False),
        replay_text=replay_text,
        log=print,
    )
    append_trajectory(
        report, args.out, "BENCH_stream", STREAM_SCHEMA_VERSION
    )
    print(f"wrote {args.out}")
    if getattr(args, "record", None):
        Path(args.record).write_text(replay_json + "\n")
        print(f"recorded replay log at {args.record}")
    totals = report["totals"]
    assert isinstance(totals, dict)
    if not bool(totals["all_identical"]):
        print("FAIL: incremental result diverged from a from-scratch run")
        return 1
    single = report["single_update"]
    if isinstance(single, dict):
        print(
            f"single-update probe: {single['speedup_vs_rebuild']}x faster "
            "than a full rebuild"
        )
    return 0


# ---------------------------------------------------------------------------
# Temporal benchmark (BENCH_temporal.json)

TEMPORAL_SCHEMA_VERSION = 1

#: Point-in-time lookups sampled per temporal bench run.
_TEMPORAL_QUERY_SAMPLES = 64


def _index_image(index) -> Tuple[object, ...]:
    """Everything observable through one index's query surface."""
    return (
        {str(p): index.exact(p) for p in index.prefixes()},
        dict(index.origin_rows()),
        index.category_tallies(),
        index.leased_count,
    )


def _verify_timelines(product, evolution) -> bool:
    """Inferred timelines must reproduce the generator's schedule."""
    for prefix, entries in sorted(evolution.schedule.items()):
        payload = product.timelines.history_payload(prefix)
        if payload is None:
            return False
        want_leases = sum(1 for _, holder in entries if holder is not None)
        want_gaps = sum(1 for _, holder in entries if holder is None)
        want_lessees = sorted(
            {holder for _, holder in entries if holder is not None}
        )
        if payload["lease_count"] != want_leases:
            return False
        if payload["as0_gaps"] != want_gaps:
            return False
        if payload["distinct_lessees"] != want_lessees:
            return False
    return True


def run_temporal_benchmark(
    size: str = "small",
    seed: int = 20240401,
    evolution_seed: int = DEFAULT_EVOLUTION_SEED,
    epochs: int = 12,
    checkpoint_interval: Optional[int] = None,
    verify: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """One ``BENCH_temporal.json`` run: delta encoding vs naive history.

    Builds the bench world, evolves *epochs* epochs of lease churn,
    freezes the temporal index, and measures (a) point-in-time query
    latency through the delta encoding and (b) encoded bytes per epoch
    against the naive one-full-index-per-epoch baseline.  With
    ``verify`` on, every epoch's delta-materialized view is checked
    bit-identical to a from-scratch pipeline run over the identically
    mutated routing table, and the inferred per-prefix timelines are
    checked against the generator's ground-truth lease schedule.
    """
    def say(message: str) -> None:
        if log is not None:
            log(message)

    say(f"[temporal] building {size} world (seed {seed}) ...")
    world = build_world(bench_world(size, seed=seed))
    pipeline = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    started = time.perf_counter()
    result = pipeline.run()
    full_run_s = time.perf_counter() - started
    context = pipeline.context
    assert context is not None

    say(f"[temporal] evolving {epochs} epochs of lease churn ...")
    started = time.perf_counter()
    evolution = evolve_world(
        world,
        [inference.prefix for inference in result],
        epochs=epochs,
        seed=evolution_seed,
    )
    product, base, epoch_reports = build_temporal_product(
        context, result, evolution, checkpoint_interval
    )
    build_s = time.perf_counter() - started

    temporal_index = product.index
    sizes = temporal_index.delta_encoded_bytes()
    record_bytes = sizes["record_bytes"]
    assert isinstance(record_bytes, list)

    # Naive baseline: one full index per epoch (epoch 0 included) —
    # measured over the *same* views, which verification below proves
    # bit-identical to from-scratch builds.
    naive_bytes = [
        index_encoded_bytes(temporal_index.index_for_epoch(epoch))
        for epoch in range(epochs + 1)
    ]
    base_bytes = int(str(sizes["base_bytes"]))
    records_total = int(str(sizes["records_total_bytes"]))
    delta_total = base_bytes + records_total
    naive_total = sum(naive_bytes)

    epoch_rows: List[Dict[str, object]] = []
    for number, burst_report in enumerate(epoch_reports, 1):
        epoch_rows.append({
            "epoch": number,
            "timestamp": evolution.epoch_timestamps[number - 1],
            "updates": len(evolution.epoch_bursts[number - 1]),
            "changed_rows": len(burst_report.changed),
            "record_bytes": record_bytes[number - 1],
            "naive_bytes": naive_bytes[number],
        })

    say("[temporal] sampling point-in-time queries ...")
    rng = random.Random(evolution_seed)
    span_start = evolution.base_timestamp
    span_end = evolution.epoch_timestamps[-1] + 1
    targets = sorted(evolution.schedule)
    resolve_times: List[float] = []
    for _probe in range(_TEMPORAL_QUERY_SAMPLES):
        at = rng.randrange(span_start, span_end)
        target = targets[rng.randrange(len(targets))]
        started = time.perf_counter()
        located = temporal_index.index_at(at)
        assert located is not None
        _epoch, view = located
        view.resolve_text(str(target))
        resolve_times.append(time.perf_counter() - started)

    differential = True
    timelines_ok = True
    if verify:
        say("[temporal] differential verify: every epoch vs rebuild ...")
        mutated = clone_routing_table(world.routing_table)
        from .core.leaseindex import LeaseIndex

        for epoch in range(epochs + 1):
            if epoch > 0:
                replay_into_table(
                    mutated, list(evolution.epoch_bursts[epoch - 1])
                )
            scratch_pipeline = LeaseInferencePipeline(
                world.whois, mutated, world.relationships, world.as2org
            )
            scratch_result = scratch_pipeline.run()
            assert scratch_pipeline.context is not None
            scratch = LeaseIndex.build(
                scratch_pipeline.context, scratch_result
            )
            identical = _index_image(scratch) == _index_image(
                temporal_index.index_for_epoch(epoch)
            )
            differential = differential and identical
            say(f"[temporal] epoch {epoch}: identical={identical}")
        timelines_ok = _verify_timelines(product, evolution)
        say(f"[temporal] timelines match ground truth: {timelines_ok}")

    return {
        "schema": {
            "name": "BENCH_temporal",
            "version": TEMPORAL_SCHEMA_VERSION,
        },
        "config": {
            "size": size,
            "seed": seed,
            "evolution_seed": evolution_seed,
            "epochs": epochs,
            "checkpoint_interval": temporal_index.stats()[
                "checkpoint_interval"
            ],
            "verify": verify,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": _cpu_count(),
        },
        "world": {
            "classifiable_leaves": context.total_leaves(),
            "routed_prefixes": world.routing_table.num_prefixes(),
            "churn_targets": len(evolution.schedule),
        },
        "build": {
            "full_run_s": round(full_run_s, 4),
            "temporal_build_s": round(build_s, 4),
        },
        "epochs": epoch_rows,
        "encoding": {
            "base_bytes": base_bytes,
            "records_total_bytes": records_total,
            "delta_total_bytes": delta_total,
            "naive_total_bytes": naive_total,
            "delta_bytes_per_epoch": round(records_total / epochs, 1),
            "naive_bytes_per_epoch": round(naive_total / (epochs + 1), 1),
            "delta_vs_naive_ratio": round(delta_total / naive_total, 4),
        },
        "queries": {
            "samples": len(resolve_times),
            "avg_ms": round(
                sum(resolve_times) / len(resolve_times) * 1000.0, 4
            ),
            "max_ms": round(max(resolve_times) * 1000.0, 4),
        },
        "verification": {
            "differential_identical": differential,
            "timelines_match_ground_truth": timelines_ok,
        },
    }


def temporal_from_args(args) -> int:
    """CLI entry: ``repro bench-temporal``."""
    if args.size not in BENCH_SIZES:
        print(f"unknown world size {args.size!r} "
              f"(expected {', '.join(BENCH_SIZES)})")
        return 2
    if args.epochs < 1:
        print(f"--epochs must be >= 1, got {args.epochs}")
        return 2
    report = run_temporal_benchmark(
        size=args.size,
        seed=args.seed,
        evolution_seed=args.evolution_seed,
        epochs=args.epochs,
        checkpoint_interval=args.checkpoint_interval,
        verify=not getattr(args, "no_verify", False),
        log=print,
    )
    append_trajectory(
        report, args.out, "BENCH_temporal", TEMPORAL_SCHEMA_VERSION
    )
    print(f"wrote {args.out}")
    encoding = report["encoding"]
    assert isinstance(encoding, dict)
    print(
        f"delta encoding: {encoding['delta_total_bytes']:,} bytes vs "
        f"naive {encoding['naive_total_bytes']:,} "
        f"(ratio {encoding['delta_vs_naive_ratio']})"
    )
    verification = report["verification"]
    assert isinstance(verification, dict)
    if not bool(verification["differential_identical"]):
        print("FAIL: a historical view diverged from a from-scratch run")
        return 1
    if not bool(verification["timelines_match_ground_truth"]):
        print("FAIL: inferred timelines diverged from the lease schedule")
        return 1
    return 0


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
