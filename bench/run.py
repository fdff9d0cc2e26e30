"""One benchmark run: dataset files on disk to served HTTP answers.

    python3 bench/run.py --workload lookup-zipf --seed 1 --seconds 12 \\
        --trace 0

A run is five rounds.  Each round

1. sets up from nothing, timed as ``setup_s`` (the median over rounds
   is reported): it generates the inputs from ``--seed`` (the ``medium``
   world tier, or ``small`` with ``--quick``) and writes them to disk,
   computes the oracle, starts a fresh server process (``bench/host.py``)
   on the files, waits for its first correct ``/v1/prefix`` answer (the
   spawn-to-answer part is ``ungated.ready_s``), checks its
   ``result_digest``, and warms it up; then
2. measures for a fifth of ``--seconds``, driving the server from this
   one process over two keep-alive connections: open loop at 1000 and at
   3000 req/s, and a closed loop with 16 requests in flight per
   connection.

Rounds interleave the measurements so that each metric samples the
whole run rather than one stretch of it: on a shared machine the CPU's
speed drifts over seconds.  Latencies and throughput slices are pooled
over the rounds.

Every answer is checked against the frozen reference engine's result,
and for ``lookup-churn`` the last server's engine against a from-scratch
pipeline over the replayed feed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` or, with ``--trace 1``,
its per-layer metrics, for which the last round's server start is
traced).  Lookup timings are per-layer metrics named ``ungated.*``:
their run-to-run spread on a shared VM is wider than any bound a
regression gate could use.  Any wrong answer, failed digest, or
client-bound phase exits non-zero.
"""

import argparse
import asyncio
import gc
import http.client
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: ``workload -> (request mix, with feed churn)``.  Why each exists:
#: zipf keys hit the server's response cache most of the time; uniform
#: keys over every leaf (plus bulk calls) mostly miss it, so index
#: lookups and JSON rendering do the work; churn is the zipf mix while
#: update bursts publish new generations, which invalidate the cache and
#: compete for the interpreter lock.
WORKLOADS = {
    "lookup-zipf": ("zipf", False),
    "lookup-uniform": ("uniform", False),
    "lookup-churn": ("zipf", True),
}

ROUNDS = 5
#: ``(phase, open-loop rate or None for the closed loop, share)``: each
#: round measures a phase for this share of ``--seconds / ROUNDS``.  The
#: rates are assumed loads, well below the closed loop's throughput.
PHASES = (
    ("r1000", 1000, 0.35),
    ("r3000", 3000, 0.35),
    ("closed", None, 0.25),
)
MEASURED = tuple(name for name, _rate, _share in PHASES)
#: The warm-up ending each set-up: open loop at this rate and share.
WARMUP_RATE = 3000
WARMUP_SHARE = 0.05
#: Closed loop: requests in flight per connection.
WINDOW = 16
CONNECTIONS = 2
#: Closed-loop requests are drawn ahead at this rate, then cycled.
CLOSED_DRAW_RATE = 40000
#: ``lookup-churn`` applies one feed burst this often (assumed rate).
CHURN_INTERVAL_S = 0.1
#: A phase whose generator runs this late at the median, or whose client
#: is this busy, measures the client rather than the server.  (The p99
#: of lateness is reported but not judged: on a shared VM a single
#: scheduling hiccup lifts it past 2 ms while the client idles.)
CLIENT_LAG_LIMIT_MS = 2.0
CLIENT_CPU_LIMIT = 0.9
#: Stop waiting on a hung server well inside the 180 s run limit.
WATCHDOG_S = 170

#: ``(span name, per-layer metric)``: self times of the traced start.
#: The root span's own time is what no layer accounts for.
LAYER_METRICS = (
    ("host.interpreter", "host.interpreter_s"),
    ("host.imports", "host.imports_s"),
    ("simulation.io", "simulation.io.self_s"),
    ("whois.parse", "whois.parse_s"),
    ("bgp.mrt.read", "bgp.mrt.read_s"),
    ("bgp.rib.build", "bgp.rib.build_s"),
    ("asdata.parse", "asdata.parse_s"),
    ("rpki.parse", "rpki.parse_s"),
    ("core.context", "core.context.self_s"),
    ("core.context.rib_snapshot", "core.context.rib_snapshot_s"),
    ("core.context.related_sets", "core.context.related_sets_s"),
    ("core.allocation_tree.scan", "core.allocation_tree.scan_s"),
    ("core.pipeline.classify", "core.pipeline.classify_s"),
    ("core.leaseindex.build", "core.leaseindex.build_s"),
    ("serve.start", "serve.start_s"),
    ("bench.probe", "bench.probe_s"),
    ("gc.pause", "gc.pause_s"),
    ("ready", "trace.unattributed_s"),
)
#: Memo caches of the pipeline's shard classifier (``CacheStats``).
CLASSIFIER_CACHES = ("category", "root_origin", "relatedness", "assigned")
ENDPOINTS = ("prefix", "asn", "bulk")

UNITS = {"setup_s": "s", "rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def _checkout_ready() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


# -- the server process ----------------------------------------------------
class HostProcess:
    """One ``bench.host`` process and its line-based control pipe."""

    def __init__(
        self,
        data_dir: Path,
        feed: Optional[Path],
        trace_run: Optional[str],
        host_cpus: Set[int],
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.spawned_at = time.perf_counter()
        command = [sys.executable, "-m", "bench.host", "--data", str(data_dir),
                   "--spawned-at", repr(self.spawned_at)]
        if feed is not None:
            command += ["--feed", str(feed)]
        if trace_run is not None:
            command += ["--trace-run", trace_run]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        if host_cpus:
            os.sched_setaffinity(self.proc.pid, host_cpus)
        try:
            event = self._read()
        except BaseException:
            self.stop()
            raise
        self.port: int = event["port"]
        self.spans: List[Dict[str, Any]] = event.get("spans", [])

    def _read(self) -> Dict[str, Any]:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(
                f"server process exited early (code {self.proc.poll()})"
            )
        return json.loads(line)

    def command(self, name: str, **arguments: Any) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(dict(cmd=name, **arguments)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        utime, stime = fields.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                assert self.proc.stdin is not None
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _pin_client() -> Set[int]:
    """Keep this process on one CPU; return the CPUs left for servers.

    Left to the scheduler on a 2-vCPU VM, the client and the server kept
    waking on the same CPU: generator lateness spiked to several
    milliseconds and closed-loop throughput with one request in flight
    halved (8.8k against 18k req/s).  With a single usable CPU nothing
    is pinned and the servers share it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set()
    os.sched_setaffinity(0, {allowed[-1]})
    return set(allowed[:-1])


def _get(port: int, target: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _probe_ok(port: int, key: str, expected: str) -> bool:
    status, body = _get(port, "/v1/prefix/" + key)
    return (
        status == 200
        and json.loads(body)["answer"]["category_code"] == expected
    )


def _host_counters(host: HostProcess) -> Dict[str, float]:
    """The server's cumulative counters, flattened, plus its CPU time."""
    status, body = _get(host.port, "/v1/stats")
    if status != 200:
        raise BenchError(f"/v1/stats answered {status}")
    stats = json.loads(body)
    counters = {
        "hits": stats["cache"]["hits"],
        "misses": stats["cache"]["misses"],
        "evictions": stats["cache"]["evictions"],
        "host_cpu_s": host.cpu_seconds(),
        "host_wall_s": time.perf_counter(),
    }
    for endpoint in ENDPOINTS:
        entry = stats["endpoints"].get(endpoint, {})
        counters[f"{endpoint}_requests"] = entry.get("requests", 0)
        counters[f"{endpoint}_total_ms"] = entry.get("total_ms", 0.0)
    collector = host.command("stats")
    counters["gc_pause_s"] = collector["gc_pause_s"]
    counters["gc_gen2"] = collector["gc_gen2"]
    return counters


# -- one run ---------------------------------------------------------------
class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.mix, self.churn = WORKLOADS[args.workload]
        self.tier = "small" if args.quick else "medium"
        self.work = ROOT / ".bench_work" / (
            f"{args.workload}-s{args.seed}-p{os.getpid()}"
        )
        self.attempted = 0
        self.failed = 0
        #: Answers that disagree with the oracle beyond single requests.
        self.wrong: List[str] = []
        #: Reasons the measurement itself cannot be trusted.
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layer: Dict[str, Tuple[float, str]] = {}
        self.hosts: List[HostProcess] = []
        self.inputs: Any = None
        self.setup_samples: List[float] = []
        self.ready_samples: List[float] = []
        self.phases: Dict[str, list] = {name: [] for name in MEASURED}
        self.totals: Dict[str, Dict[str, float]] = {
            name: {} for name in MEASURED
        }
        self.churn_records: List[Dict[str, float]] = []
        self.generations = 0
        self.host_cpus = _pin_client()

    def seconds(self, share: float) -> float:
        return share * self.args.seconds / ROUNDS

    # -- set-up ------------------------------------------------------------
    def set_up(
        self, number: int, trace_run: Optional[str]
    ) -> Tuple[HostProcess, float]:
        """Make round *number*'s inputs and start a server on them.

        Starts the ``setup_s`` clock, which :meth:`lookups` stops once
        the server is warm.  Returns the server and its spawn-to-answer
        time.
        """
        from bench.inputs import RequestStream, Verifier, make_inputs

        self.release_inputs()
        round_s = self.seconds(WARMUP_SHARE + sum(
            share for _name, _rate, share in PHASES
        ))
        bursts = int(round_s / CHURN_INTERVAL_S) + 20 if self.churn else 0
        self.setup_started = time.perf_counter()
        self.inputs = make_inputs(self.tier, self.args.seed,
                                  self.work / f"round-{number}", bursts)
        self.stream = RequestStream(self.mix, self.inputs.oracle,
                                    self.args.seed + 7 + number)
        self.verify = Verifier(self.inputs.oracle)
        host, ready = self.spawn(trace_run)
        if host.command("digest")["digest"] != self.inputs.oracle.digest:
            self.wrong.append(f"round {number}: served digest != reference")
        return host, ready

    def release_inputs(self) -> None:
        """Drop the last round's inputs, untimed, so rounds start alike."""
        if self.inputs is not None:
            shutil.rmtree(self.inputs.data_dir.parent)
            self.inputs = self.stream = self.verify = None
        gc.unfreeze()
        gc.collect()

    def spawn(self, trace_run: Optional[str]) -> Tuple[HostProcess, float]:
        host = HostProcess(self.inputs.data_dir, self.inputs.feed_path,
                           trace_run, self.host_cpus)
        self.hosts.append(host)
        probe = self.inputs.probe
        self.attempted += 1
        if not _probe_ok(host.port, probe, self.inputs.oracle.categories[probe]):
            self.failed += 1
        self.probe_done = time.perf_counter()
        return host, self.probe_done - host.spawned_at

    def retire(self, host: HostProcess) -> None:
        host.stop()
        self.hosts.remove(host)

    def trace_layers(self, host: HostProcess, ready: float) -> None:
        """Per-layer metrics from the traced start's spans."""
        from bench.trace import Tracer, layer_table

        runner = Tracer(f"{self.args.workload}-s{self.args.seed}")
        root = runner.open("ready", start=host.spawned_at)
        offset = len(runner.spans)
        for span in host.spans:
            span = dict(span, id=span["id"] + offset)
            span["parent"] = (
                root["id"] if span["parent"] is None
                else span["parent"] + offset
            )
            runner.spans.append(span)
        last_host_end = max(span["end"] for span in host.spans)
        runner.record("bench.probe", last_host_end, self.probe_done)
        runner.close(root, end=host.spawned_at + ready)
        self.tracer = runner
        self.layer_rows = layer_table(runner.spans)
        for span_name, metric in LAYER_METRICS:
            row = self.layer_rows.get(span_name, {"self_s": 0.0})
            self.layer_metric(metric, row["self_s"], "s")
        self.layer_metric("gc.gen2_collections", sum(
            1 for span in runner.spans
            if span["name"] == "gc.pause"
            and span["counters"].get("generation") == 2
        ), "count")
        classify = next(span for span in runner.spans
                        if span["name"] == "core.pipeline.classify")
        for cache in CLASSIFIER_CACHES:
            self.layer_metric(f"core.sharding.hit_rate.{cache}",
                              classify["counters"].get(cache, 0.0), "ratio")
        self.layer_metric("trace.ready_s", ready, "s")
        self.layer_metric("trace.overhead_s",
                          ready - statistics.median(self.ready_samples), "s")

    def layer_metric(self, name: str, value: float, unit: str) -> None:
        self.layer[name] = (value, unit)

    # -- lookups -------------------------------------------------------------
    def draw(self, count: float) -> Iterator[Tuple[str, object, bytes]]:
        """The next *count* requests, drawn before a phase is timed."""
        return iter(list(itertools.islice(self.stream, int(count))))

    async def lookups(self, host: HostProcess) -> None:
        """Warm *host* up, which ends the set-up, then run the phases."""
        from bench.client import LoadClient

        client = LoadClient(self.verify, trace=bool(self.args.trace))
        await client.connect("127.0.0.1", host.port, CONNECTIONS)
        try:
            if self.churn:
                await asyncio.to_thread(
                    host.command, "churn_start", interval_s=CHURN_INTERVAL_S
                )
            seconds = self.seconds(WARMUP_SHARE)
            phase = await client.open_loop(
                "warmup", self.draw(WARMUP_RATE * seconds), WARMUP_RATE,
                seconds,
            )
            self.setup_s = time.perf_counter() - self.setup_started
            self.attempted += phase.sent
            self.failed += phase.failed
            # Keep the world out of the client's collections while it
            # measures.
            gc.collect()
            gc.freeze()
            for name, rate, share in PHASES:
                seconds = self.seconds(share)
                if rate is None:
                    requests = itertools.cycle(
                        self.draw(CLOSED_DRAW_RATE * seconds)
                    )
                else:
                    requests = self.draw(rate * seconds)
                before = await asyncio.to_thread(_host_counters, host)
                if rate is None:
                    phase = await client.closed_loop(
                        name, requests, WINDOW, seconds
                    )
                else:
                    phase = await client.open_loop(
                        name, requests, rate, seconds
                    )
                after = await asyncio.to_thread(_host_counters, host)
                self.attempted += phase.sent
                self.failed += phase.failed
                self.phases[name].append(phase)
                totals = self.totals[name]
                for key, value in after.items():
                    totals[key] = totals.get(key, 0) + value - before[key]
                for key, value in (("client_cpu_s", phase.client_cpu_s),
                                   ("client_wall_s", phase.wall_s)):
                    totals[key] = totals.get(key, 0) + value
            if self.churn:
                report = await asyncio.to_thread(host.command, "churn_stop")
                self.churn_records += report["records"]
                self.generations += report["applied"]
                self.applied = report["applied"]
        finally:
            client.close()

    def lookup_metrics(self) -> None:
        from bench.client import percentile

        def pooled(name: str, field: str) -> List[float]:
            return [value for phase in self.phases[name]
                    for value in getattr(phase, field)]

        # Timings are reported, not gated: on a shared VM their spread
        # across runs (10-63% IQR over median) exceeds any usable bound.
        for name in ("r1000", "r3000"):
            latencies = pooled(name, "latencies")
            for share in (50, 99):
                self.layer_metric(
                    f"ungated.p{share}_ms.{name}",
                    percentile(latencies, share / 100) * 1e3, "ms",
                )
        self.layer_metric("ungated.saturated_rps", statistics.median(
            rate for phase in self.phases["closed"]
            for rate in phase.slice_rates()
        ), "req/s")
        for name in MEASURED:
            totals = self.totals[name]
            lookups = totals["hits"] + totals["misses"]
            self.layer_metric(f"serve.cache.hit_rate.{name}",
                              totals["hits"] / max(1, lookups), "ratio")
            self.layer_metric(f"serve.cache.evictions.{name}",
                              totals["evictions"], "count")
            for endpoint in ENDPOINTS:
                requests = totals[f"{endpoint}_requests"]
                self.layer_metric(
                    f"serve.{endpoint}_ms.{name}",
                    totals[f"{endpoint}_total_ms"] / requests if requests
                    else 0.0,
                    "ms",
                )
            self.layer_metric(f"gc.pause_s.{name}", totals["gc_pause_s"], "s")
            self.layer_metric(f"gc.gen2_collections.{name}",
                              totals["gc_gen2"], "count")
            self.layer_metric(f"host.cpu_util.{name}",
                              totals["host_cpu_s"] / totals["host_wall_s"],
                              "ratio")
            client_util = totals["client_cpu_s"] / totals["client_wall_s"]
            self.layer_metric(f"client.cpu_util.{name}", client_util, "ratio")
            lag_ms = 0.0
            if name != "closed":
                lateness = pooled(name, "lateness")
                lag_ms = percentile(lateness, 0.50) * 1e3
                self.layer_metric(f"client.lag_p99_ms.{name}",
                                  percentile(lateness, 0.99) * 1e3, "ms")
            if lag_ms > CLIENT_LAG_LIMIT_MS or client_util >= CLIENT_CPU_LIMIT:
                self.problems.append(
                    f"phase {name} is client-bound (lag p50 {lag_ms:.2f} ms, "
                    f"client cpu {client_util:.2f})"
                )
        for key, metric, unit in (
            ("apply_ms", "core.incremental.apply_ms", "ms"),
            ("with_updates_ms", "core.leaseindex.with_updates_ms", "ms"),
            ("reclassified", "core.incremental.reclassified", "count"),
            ("freshness_ms", "serve.freshness_ms", "ms"),
        ):
            values = [record[key] for record in self.churn_records] or [0.0]
            self.layer_metric(metric, statistics.median(values), unit)
        self.layer_metric("serve.generations", self.generations, "count")

    # -- checks on the last server -------------------------------------------
    def end_checks(self, host: HostProcess) -> None:
        self.metrics["rss_mb"] = host.command("stats")["peak_rss_kb"] / 1024
        if self.churn:
            served = host.command("digest")["digest"]
            if served != self.replayed_digest(self.applied):
                self.wrong.append(
                    f"engine digest after {self.applied} bursts != "
                    "from-scratch digest"
                )

    def replayed_digest(self, applied: int) -> str:
        from repro.core import LeaseInferencePipeline
        from repro.core.incremental import (
            clone_routing_table,
            replay_into_table,
            result_digest,
        )

        world = self.inputs.world
        table = clone_routing_table(world.routing_table)
        for burst in self.inputs.bursts[:applied]:
            replay_into_table(table, burst)
        return result_digest(
            LeaseInferencePipeline(
                world.whois, table, world.relationships, world.as2org
            ).run()
        )

    # -- the whole run -------------------------------------------------------
    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            for number in range(ROUNDS):
                last = number == ROUNDS - 1
                traced = bool(self.args.trace) and last
                host, ready = self.set_up(
                    number,
                    f"{self.args.workload}-s{self.args.seed}" if traced
                    else None,
                )
                if traced:
                    self.trace_layers(host, ready)
                asyncio.run(self.lookups(host))
                if not traced:
                    # The traced start is slower; it times layers instead.
                    self.ready_samples.append(ready)
                    self.setup_samples.append(self.setup_s)
                if last:
                    self.end_checks(host)
                self.retire(host)
        finally:
            for host in list(self.hosts):
                self.retire(host)
            shutil.rmtree(self.work, ignore_errors=True)
        self.metrics["setup_s"] = statistics.median(self.setup_samples)
        self.layer_metric("ungated.ready_s",
                          statistics.median(self.ready_samples), "s")
        self.lookup_metrics()
        if self.args.trace:
            self.write_trace()

    def write_trace(self) -> None:
        extra = []
        for name, phases in self.phases.items():
            for number, phase in enumerate(phases):
                for index, due, written, done in phase.samples:
                    extra.append({
                        "name": f"client.request.{name}", "start": due,
                        "end": done, "parent": None,
                        "run": self.tracer.run_id,
                        "id": f"{name}-{number}-{index}",
                        "counters": {"write": written, "round": number},
                    })
        path = ROOT / ".bench_work" / "traces" / (
            f"{self.args.workload}-s{self.args.seed}.jsonl"
        )
        self.tracer.write_jsonl(path, extra)
        self.trace_path = path


# -- reporting ---------------------------------------------------------------
def _print_report(run: Run) -> None:
    print(f"workload {run.args.workload}  seed {run.args.seed}  tier "
          f"{run.tier}  seconds {run.args.seconds}")
    for label, samples in (("set-ups", run.setup_samples),
                           ("cold starts", run.ready_samples)):
        print(f"  {label}: {', '.join(f'{s:.3f}' for s in samples)} s")
    for name, value in run.metrics.items():
        print(f"  {name:<40} {value:12.4f} {UNITS[name]}")
    for name, (value, unit) in sorted(run.layer.items()):
        print(f"  {name:<40} {value:12.4f} {unit}")
    print(f"  {'ops':<40} {run.attempted:12d}")
    print(f"  {'ops_failed':<40} {run.failed:12d}")
    if run.args.trace:
        ready = run.layer["trace.ready_s"][0]
        print(f"layers of the traced cold start ({ready:.4f} s), self times:")
        rows = sorted(run.layer_rows.items(), key=lambda item: -item[1]["self_s"])
        for name, row in rows:
            label = "(unattributed)" if name == "ready" else name
            print(f"  {label:<36} x{int(row['calls']):<3} self "
                  f"{row['self_s']:8.4f} s  {row['self_s'] / ready:6.1%}")
        print(f"  trace written to {run.trace_path.relative_to(ROOT)}")
    for problem in run.wrong:
        print(f"WRONG: {problem}")
    for problem in run.problems:
        print(f"INVALID: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small world instead of medium (smoke tests)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run's record to a JSONL file")
    args = parser.parse_args(argv)
    if not _checkout_ready():
        print(f"no program sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # Import this directory as the ``bench`` package, never as top-level
    # modules (``trace`` would shadow the standard library's).
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path if entry and Path(entry).resolve() != here
    ]

    def stop(signum, _frame):
        # Unwind through Run.execute, which stops the servers it started.
        raise BenchError(f"stopped by {signal.Signals(signum).name} "
                         f"(watchdog {WATCHDOG_S} s)")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(WATCHDOG_S)
    run = Run(args)
    try:
        run.execute()
    finally:
        signal.alarm(0)
    _print_report(run)
    correct = run.failed == 0 and not run.wrong
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in run.layer.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in run.metrics.items()}
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.out is not None:
        measured = {name: {"value": value, "unit": UNITS[name]}
                    for name, value in run.metrics.items()}
        measured.update({name: {"value": value, "unit": unit}
                         for name, (value, unit) in run.layer.items()})
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "tier": run.tier, "result": result, "measured": measured}
        with args.out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct and not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
