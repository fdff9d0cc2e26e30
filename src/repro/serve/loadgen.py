"""Closed-loop load generator for the lease-lookup service.

``repro loadgen`` self-hosts: it builds an index, starts a
:class:`~repro.serve.http.LeaseQueryServer` on an ephemeral port, and
drives it with *concurrency* closed-loop clients — each waits for its
response before issuing the next request, so the measured latency is
honest service time, not queueing backlog from an open-loop firehose.

The query mix is seeded and deterministic: every client owns a
``random.Random`` derived from the run seed, drawing from the same
weighted mix —

* **hot prefixes** (a small fixed pool, exercising the LRU cache),
* cold prefix lookups across the whole snapshot,
* deliberate misses (a prefix no classified leaf covers),
* ASN and organisation lookups,
* bulk batches, and
* ``/v1/stats`` polls.

Results — throughput, client-side latency percentiles per query kind,
and the server's own cache/endpoint counters — are appended to the
``BENCH_serve.json`` trajectory in the bench schema-v2 format, next to
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import asyncio
import json
import platform
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench import _cpu_count
from ..core.leaseindex import LeaseIndex
from ..net import Prefix
from .http import DEFAULT_CACHE_SIZE, LeaseQueryServer
from .reload import SnapshotManager

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "run_loadgen",
    "validate_serve_run",
]

#: Version stamp of one ``BENCH_serve.json`` run payload.
SERVE_SCHEMA_VERSION = 2

#: Hot-pool size: repeated queries that must produce LRU cache hits.
_HOT_POOL = 8

#: Per-bulk-call batch size used by the generator.
_BULK_BATCH = 16

#: ``(kind, cumulative weight)`` — the deterministic query mix.
_MIX: Tuple[Tuple[str, float], ...] = (
    ("prefix_hot", 0.40),
    ("prefix", 0.60),
    ("miss", 0.70),
    ("asn", 0.80),
    ("org", 0.90),
    ("bulk", 0.95),
    ("stats", 1.00),
)

#: Expected status per query kind; anything else counts as an error.
_EXPECTED_STATUS = {
    "prefix_hot": 200,
    "prefix": 200,
    "miss": 404,
    "asn": 200,
    "org": 200,
    "bulk": 200,
    "stats": 200,
}


class _Workload:
    """Deterministic request factory over one snapshot's contents."""

    def __init__(self, index: LeaseIndex, seed: int) -> None:
        self.prefixes = [str(prefix) for prefix in index.prefixes()]
        self.asns = [str(asn) for asn in index.asns()]
        self.orgs = index.orgs()
        if not self.prefixes:
            raise ValueError("cannot generate load for an empty index")
        chooser = random.Random(seed)
        pool = list(self.prefixes)
        chooser.shuffle(pool)
        self.hot = pool[:_HOT_POOL]
        self.miss = self._find_miss(index)

    @staticmethod
    def _find_miss(index: LeaseIndex) -> str:
        """A prefix no classified leaf covers (404 by construction)."""
        for candidate in ("240.0.0.0/24", "0.0.0.0/32", "255.255.255.0/30"):
            if index.resolve(Prefix.parse(candidate)) is None:
                return candidate
        raise ValueError(
            "index covers every miss candidate"
        )  # pragma: no cover - needs /0-scale coverage

    def next_request(
        self, rng: random.Random
    ) -> Tuple[str, str, str, Optional[bytes]]:
        """One ``(kind, method, target, body)`` draw from the mix."""
        roll = rng.random()
        kind = _MIX[-1][0]
        for name, ceiling in _MIX:
            if roll < ceiling:
                kind = name
                break
        if kind == "prefix_hot":
            return kind, "GET", "/v1/prefix/" + rng.choice(self.hot), None
        if kind == "prefix":
            return kind, "GET", "/v1/prefix/" + rng.choice(self.prefixes), None
        if kind == "miss":
            return kind, "GET", "/v1/prefix/" + self.miss, None
        if kind == "asn" and self.asns:
            return kind, "GET", "/v1/asn/" + rng.choice(self.asns), None
        if kind == "org" and self.orgs:
            return kind, "GET", "/v1/org/" + rng.choice(self.orgs), None
        if kind == "bulk":
            batch = [
                rng.choice(self.prefixes) for _ in range(_BULK_BATCH)
            ]
            body = json.dumps({"prefixes": batch}).encode("utf-8")
            return kind, "POST", "/v1/bulk", body
        if kind == "stats":
            return kind, "GET", "/v1/stats", None
        # asn/org fallback when the snapshot has no such entries.
        return (
            "prefix_hot", "GET", "/v1/prefix/" + rng.choice(self.hot), None,
        )


async def _http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    body: Optional[bytes],
) -> Tuple[int, bytes]:
    """One keep-alive request/response on an open connection."""
    payload = body or b""
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        "Host: loadgen\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    response = await reader.readexactly(length) if length else b""
    return status, response


async def _fetch_json(
    host: str, port: int, target: str
) -> Dict[str, object]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        _status, body = await _http_request(reader, writer, "GET", target, None)
    finally:
        writer.close()
    return json.loads(body.decode("utf-8"))


Sample = Tuple[str, int, float]


async def _worker(
    host: str,
    port: int,
    workload: _Workload,
    rng: random.Random,
    stop: "asyncio.Event",
    budget: Optional[List[int]],
    samples: List[Sample],
) -> None:
    """One closed-loop client: request, await, record, repeat."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        while not stop.is_set():
            if budget is not None:
                if budget[0] <= 0:
                    break
                budget[0] -= 1
            kind, method, target, body = workload.next_request(rng)
            started = time.perf_counter()
            status, _body = await _http_request(
                reader, writer, method, target, body
            )
            samples.append((kind, status, time.perf_counter() - started))
    finally:
        writer.close()


async def _drive(
    host: str,
    port: int,
    workload: _Workload,
    duration_s: float,
    requests: Optional[int],
    seed: int,
    concurrency: int,
) -> Tuple[List[Sample], float, Dict[str, object]]:
    """Run the workers; returns samples, wall time, and server stats."""
    samples: List[Sample] = []
    stop = asyncio.Event()
    budget = [requests] if requests is not None else None
    workers = [
        asyncio.ensure_future(
            _worker(
                host,
                port,
                workload,
                random.Random(seed * 1000 + lane),
                stop,
                budget,
                samples,
            )
        )
        for lane in range(max(1, concurrency))
    ]
    started = time.perf_counter()
    if requests is None:
        await asyncio.sleep(duration_s)
        stop.set()
    await asyncio.gather(*workers)
    wall = time.perf_counter() - started
    server_stats = await _fetch_json(host, port, "/v1/stats")
    return samples, wall, server_stats


def _percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile over pre-sorted values (empty -> 0)."""
    if not sorted_values:
        return 0.0
    rank = round(quantile * (len(sorted_values) - 1))
    return sorted_values[int(rank)]


def _latency_summary(latencies_s: List[float]) -> Dict[str, float]:
    values = sorted(latencies_s)
    count = len(values)
    return {
        "mean": round(sum(values) / count * 1000.0, 3) if count else 0.0,
        "p50": round(_percentile(values, 0.50) * 1000.0, 3),
        "p90": round(_percentile(values, 0.90) * 1000.0, 3),
        "p99": round(_percentile(values, 0.99) * 1000.0, 3),
        "max": round(values[-1] * 1000.0, 3) if count else 0.0,
    }


def run_loadgen(
    index: LeaseIndex,
    duration_s: float = 5.0,
    requests: Optional[int] = None,
    seed: int = 7,
    concurrency: int = 4,
    cache_size: int = DEFAULT_CACHE_SIZE,
    world: str = "small",
) -> Dict[str, object]:
    """Self-host *index*, drive it, and return one bench run payload.

    ``requests`` bounds the run by request count (deterministic volume);
    otherwise ``duration_s`` bounds it by wall time.  ``world`` is
    provenance only — it names the snapshot's source in the record.
    """
    manager = SnapshotManager(index)
    server = LeaseQueryServer(manager, cache_size=cache_size)
    workload = _Workload(index, seed)
    with server:
        host, port = server.address
        samples, wall, server_stats = asyncio.run(
            _drive(
                host, port, workload, duration_s, requests, seed, concurrency
            )
        )

    by_kind: Dict[str, List[Sample]] = {}
    for sample in samples:
        by_kind.setdefault(sample[0], []).append(sample)
    errors = sum(
        1
        for kind, status, _latency in samples
        if status != _EXPECTED_STATUS[kind]
    )
    kinds: Dict[str, object] = {}
    for kind in sorted(by_kind):
        rows = by_kind[kind]
        kind_latency = _latency_summary([row[2] for row in rows])
        kinds[kind] = {
            "requests": len(rows),
            "errors": sum(
                1 for row in rows if row[1] != _EXPECTED_STATUS[kind]
            ),
            "p50_ms": kind_latency["p50"],
            "p99_ms": kind_latency["p99"],
        }

    return {
        "schema": {"name": "BENCH_serve", "version": SERVE_SCHEMA_VERSION},
        "config": {
            "seed": seed,
            "duration_s": duration_s,
            "requests": requests,
            "concurrency": max(1, concurrency),
            "cache_size": cache_size,
            "world": world,
        },
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": _cpu_count(),
        },
        "totals": {
            "requests": len(samples),
            "errors": errors,
            "wall_s": round(wall, 4),
            "req_per_s": round(len(samples) / wall, 1) if wall else 0.0,
        },
        "latency_ms": _latency_summary([row[2] for row in samples]),
        "kinds": kinds,
        "server": {
            "generation": server_stats["generation"],
            "cache": server_stats["cache"],
            "endpoints": server_stats["endpoints"],
        },
    }


def validate_serve_run(run: object) -> List[str]:
    """Structural validation of one ``BENCH_serve.json`` run record.

    Returns a list of problems (empty when the record is schema-valid);
    the CI smoke job and the tests gate on it.
    """
    problems: List[str] = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    if not isinstance(run, dict):
        return ["run record is not an object"]
    schema = run.get("schema")
    require(
        isinstance(schema, dict)
        and schema.get("name") == "BENCH_serve"
        and schema.get("version") == SERVE_SCHEMA_VERSION,
        "schema stamp missing or wrong "
        f"(want BENCH_serve v{SERVE_SCHEMA_VERSION})",
    )
    for section in ("config", "host", "totals", "latency_ms", "kinds",
                    "server"):
        require(isinstance(run.get(section), dict),
                f"missing section: {section}")
    totals = run.get("totals")
    if isinstance(totals, dict):
        for key in ("requests", "errors"):
            require(
                isinstance(totals.get(key), int) and totals[key] >= 0,
                f"totals.{key} must be a non-negative integer",
            )
        for key in ("wall_s", "req_per_s"):
            require(
                isinstance(totals.get(key), (int, float))
                and totals[key] >= 0,
                f"totals.{key} must be a non-negative number",
            )
    latency = run.get("latency_ms")
    if isinstance(latency, dict):
        for key in ("mean", "p50", "p90", "p99", "max"):
            require(
                isinstance(latency.get(key), (int, float))
                and latency[key] >= 0,
                f"latency_ms.{key} must be a non-negative number",
            )
        if not problems:
            require(
                latency["p50"] <= latency["p99"] <= latency["max"],
                "latency percentiles must be ordered p50 <= p99 <= max",
            )
    server = run.get("server")
    if isinstance(server, dict):
        require(
            isinstance(server.get("generation"), int)
            and server["generation"] >= 1,
            "server.generation must be a positive integer",
        )
        cache = server.get("cache")
        require(isinstance(cache, dict), "missing server.cache")
        if isinstance(cache, dict):
            for key in ("hits", "misses", "evictions", "size", "capacity"):
                require(
                    isinstance(cache.get(key), int) and cache[key] >= 0,
                    f"server.cache.{key} must be a non-negative integer",
                )
    return problems
