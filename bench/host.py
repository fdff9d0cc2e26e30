"""The lease-lookup server process the benchmark drives.

``python -m bench.host --data DIR`` makes the calls ``repro serve
--data`` makes — ``load_datasets`` → ``AnalysisContext.build`` →
``LeaseInferencePipeline.run(context=)`` → ``LeaseIndex.build`` →
``SnapshotManager`` → ``LeaseQueryServer.start_async`` — in its own
process, so the load client never shares its interpreter lock.

It talks to the runner over stdin/stdout, one JSON object per line.
Once listening it prints ``{"event": "listening", "port": ...}`` (with
its spans when traced), then answers commands: ``stats`` (peak RSS and
collector totals), ``digest`` (the served rows' ``result_digest``),
``churn_start`` / ``churn_stop`` (apply one feed burst every interval on
a thread, off the event loop: ``IncrementalEngine.apply`` then
``SnapshotManager.apply_updates`` with ``with_updates``), and ``quit``.
End of input also quits.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from repro.asdata.as2org import AS2Org  # noqa: E402
from repro.asdata.relationships import ASRelationships  # noqa: E402
from repro.bgp.rib import RoutingTable  # noqa: E402
from repro.core import context as context_module  # noqa: E402
from repro.core import (  # noqa: E402
    AnalysisContext,
    IncrementalEngine,
    LeaseInferencePipeline,
    RibSnapshot,
)
from repro.core.incremental import result_digest  # noqa: E402
from repro.core.leaseindex import LeaseIndex  # noqa: E402
from repro.rpki.archive import RpkiArchive  # noqa: E402
from repro.rpki.roa import RoaSet  # noqa: E402
from repro.serve import LeaseQueryServer, SnapshotManager  # noqa: E402
from repro.simulation import bursts_from_replay  # noqa: E402
from repro.simulation import io as sim_io  # noqa: E402
from repro.whois.database import WhoisDatabase  # noqa: E402

from bench.trace import Tracer  # noqa: E402

IMPORTED = time.perf_counter()

#: ``(owner, attribute, span name, materialize)`` for every timed layer.
#: The owner is where the caller looks the name up.
LAYERS = (
    (sim_io, "load_datasets", "simulation.io", False),
    (WhoisDatabase, "from_text", "whois.parse", False),
    (sim_io, "read_mrt", "bgp.mrt.read", True),
    (RoutingTable, "from_entries", "bgp.rib.build", False),
    (ASRelationships, "from_text", "asdata.parse", False),
    (AS2Org, "from_jsonl", "asdata.parse", False),
    (RoaSet, "from_csv", "rpki.parse", False),
    (RpkiArchive, "from_directory", "rpki.parse", False),
    (AnalysisContext, "build", "core.context", False),
    (RibSnapshot, "from_routing_table", "core.context.rib_snapshot", False),
    (context_module, "build_related_sets", "core.context.related_sets", False),
    (context_module, "AllocationScan", "core.allocation_tree.scan", False),
    (LeaseInferencePipeline, "run", "core.pipeline.classify", False),
    (LeaseIndex, "build", "core.leaseindex.build", False),
)


class Built:
    """What the serve path holds once the index exists."""

    def __init__(self, data_dir: Path) -> None:
        bundle = sim_io.load_datasets(data_dir)
        self.context = AnalysisContext.build(
            bundle.whois,
            bundle.routing_table,
            bundle.relationships,
            bundle.as2org,
        )
        self.pipeline = LeaseInferencePipeline(
            bundle.whois,
            bundle.routing_table,
            bundle.relationships,
            bundle.as2org,
        )
        self.result = self.pipeline.run(context=self.context)
        self.index = LeaseIndex.build(self.context, self.result)


def build_traced(data_dir: Path, tracer: Tracer) -> Built:
    """:class:`Built` with every layer in :data:`LAYERS` timed."""
    for owner, attr, name, materialize in LAYERS:
        tracer.wrap(owner, attr, name, materialize)
    try:
        built = Built(data_dir)
    finally:
        tracer.restore()
    for span in tracer.spans:
        if span["name"] == "core.pipeline.classify":
            span["counters"].update(built.pipeline.cache_stats().hit_rates())
    return built


class Churn:
    """Applies feed bursts on a thread at a fixed cadence."""

    def __init__(self, built: Built, manager: SnapshotManager, feed: Path):
        _size, _seed, self.bursts = bursts_from_replay(feed.read_text())
        self.context = built.context
        self.manager = manager
        self.engine = IncrementalEngine(built.context)
        self.stop = threading.Event()
        self.thread: Optional[threading.Thread] = None
        self.records: List[Dict[str, float]] = []

    def start(self, interval_s: float) -> None:
        self.thread = threading.Thread(
            target=self._run, args=(interval_s,), daemon=True
        )
        self.thread.start()

    def finish(self) -> Dict[str, Any]:
        self.stop.set()
        assert self.thread is not None
        self.thread.join()
        return {"applied": len(self.records), "records": self.records}

    def _run(self, interval_s: float) -> None:
        started = time.perf_counter()
        for position, burst in enumerate(self.bursts):
            due = started + position * interval_s
            if self.stop.wait(max(0.0, due - time.perf_counter())):
                return
            applied = time.perf_counter()
            report = self.engine.apply(burst)
            engine_done = time.perf_counter()
            timing: Dict[str, float] = {}

            def updater(index: LeaseIndex) -> LeaseIndex:
                begun = time.perf_counter()
                patched = index.with_updates(self.context, report.changed)
                timing["with_updates_ms"] = (time.perf_counter() - begun) * 1e3
                return patched

            self.manager.apply_updates(updater)
            published = time.perf_counter()
            timing.update(
                apply_ms=(engine_done - applied) * 1e3,
                reclassified=report.reclassified,
                freshness_ms=(published - due) * 1e3,
            )
            self.records.append(timing)


def _peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _control(
    built: Built,
    manager: SnapshotManager,
    feed: Optional[Path],
    tracer: Optional[Tracer],
    loop: asyncio.AbstractEventLoop,
    done: asyncio.Event,
) -> None:
    """Answer runner commands until ``quit`` or end of input.

    A bad command raises here, which ends the thread and the process;
    the runner then sees the pipe close instead of a reply.
    """
    churn: Optional[Churn] = None
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "quit":
                break
            if name == "stats":
                _reply({
                    "peak_rss_kb": _peak_rss_kb(),
                    "gc_pause_s": tracer.gc_pause_s if tracer else 0.0,
                    "gc_gen2": tracer.gc_gen2 if tracer else 0,
                })
            elif name == "digest":
                rows = built.result if churn is None else churn.engine.result()
                _reply({"digest": result_digest(rows)})
            elif name == "churn_start" and feed is not None:
                churn = Churn(built, manager, feed)
                churn.start(float(command["interval_s"]))
                _reply({"started": True})
            elif name == "churn_stop" and churn is not None:
                _reply(churn.finish())
            else:
                raise RuntimeError(f"cannot run command {name!r} now")
    finally:
        loop.call_soon_threadsafe(done.set)


async def _serve(args: argparse.Namespace) -> None:
    tracer: Optional[Tracer] = None
    if args.trace_run:
        tracer = Tracer(args.trace_run)
        tracer.watch_gc()
        tracer.record("host.interpreter", args.spawned_at, STARTED)
        tracer.record("host.imports", STARTED, IMPORTED)
        built = build_traced(args.data, tracer)
        span = tracer.open("serve.start")
    else:
        built = Built(args.data)
    manager = SnapshotManager(built.index)
    server = LeaseQueryServer(manager)
    _host, port = await server.start_async()
    event: Dict[str, Any] = {"event": "listening", "port": port}
    if tracer is not None:
        tracer.close(span)
        event["spans"] = tracer.spans
    _reply(event)

    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    control = threading.Thread(
        target=_control,
        args=(built, manager, args.feed, tracer, loop, done),
        daemon=True,
    )
    control.start()
    await done.wait()
    # Skip loop and interpreter teardown: freeing the heap only delays
    # the next cold start, and Python 3.11 logs a spurious CancelledError
    # for every connection handler still open when the loop shuts down.
    sys.stdout.flush()
    os._exit(0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--feed", type=Path, default=None)
    parser.add_argument("--trace-run", default=None,
                        help="record spans under this run id")
    parser.add_argument("--spawned-at", type=float, default=STARTED,
                        help="the runner's perf_counter() at spawn")
    asyncio.run(_serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
