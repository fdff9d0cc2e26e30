"""Everything one benchmark run needs, generated from its seed.

:func:`make_inputs` is the timed set-up: it builds a seeded world,
writes its datasets the way ``repro generate`` does (minus ``rib.txt``,
so the server parses the binary MRT RIB collectors publish), writes a
BGP update feed for the churn workload, and computes the correctness
oracle with the frozen reference engine.  :class:`RequestStream` draws
the request mixes from that oracle; the server only ever sees the files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core import AnalysisContext, IncrementalEngine, LeaseInferencePipeline
from repro.core.incremental import result_digest
from repro.net import Prefix
from repro.simulation import (
    bench_world,
    build_world,
    render_replay_log,
    simulate_update_bursts,
)
from repro.simulation.io import write_world

# The traffic below is assumed, not taken from a measured query log or
# collector feed; bench/README.md ("Where the traffic comes from") says
# what each value is chosen to exercise.

#: Updates per feed burst; one burst lands every 100 ms, a stress rate
#: for the index's update path.
BURST_SIZE = 32

#: Zipf exponent of the skewed key popularity, more skewed than the
#: 0.64-0.83 of web proxy traces (Breslau et al., INFOCOM 1999).
ZIPF_S = 1.1

#: Prefixes per ``POST /v1/bulk`` call.
BULK_SIZE = 16

#: ``limit`` on ASN listings, so one answer stays a few KB.
ASN_LIMIT = 100

#: Distinct never-covered prefixes the 404 share draws from.
MISS_POOL = 4096


@dataclass
class Oracle:
    """What every correct answer must agree with."""

    digest: str
    categories: Dict[str, str]
    asn_totals: Dict[int, int]
    #: Leaves (and ASNs) whose answers the update feed may move; the
    #: churn workload checks only their status and matched prefix.
    volatile_prefixes: Set[str] = field(default_factory=set)
    volatile_asns: Set[int] = field(default_factory=set)


@dataclass
class Inputs:
    """The files on disk plus what the runner keeps to check them."""

    world: object
    data_dir: Path
    feed_path: Optional[Path]
    bursts: List[list]
    oracle: Oracle
    probe: str


def make_inputs(
    tier: str, seed: int, directory: Path, bursts: int
) -> Inputs:
    """Generate, write and oracle one world; *bursts* sizes the feed."""
    world = build_world(bench_world(tier, seed=seed))
    data_dir = directory / "data"
    write_world(world, data_dir)
    (data_dir / "rib.txt").unlink()

    reference = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    ).run_reference()
    categories: Dict[str, str] = {}
    origins: Dict[str, FrozenSet[int]] = {}
    asn_totals: Dict[int, int] = {}
    for inference in reference:
        key = str(inference.prefix)
        categories[key] = inference.category.name
        origins[key] = inference.leaf_origins
        for asn in inference.leaf_origins:
            asn_totals[asn] = asn_totals.get(asn, 0) + 1
    oracle = Oracle(result_digest(reference), categories, asn_totals)

    feed: List[list] = []
    feed_path: Optional[Path] = None
    if bursts:
        feed = simulate_update_bursts(world, bursts, BURST_SIZE, seed + 2)
        feed_path = directory / "feed.json"
        feed_path.write_text(render_replay_log(tier, seed, feed))
        engine = IncrementalEngine(
            AnalysisContext.build(
                world.whois,
                world.routing_table,
                world.relationships,
                world.as2org,
            )
        )
        for burst in feed:
            for row in engine.apply(burst).changed:
                key = str(row.prefix)
                oracle.volatile_prefixes.add(key)
                oracle.volatile_asns.update(row.leaf_origins)
                oracle.volatile_asns.update(origins[key])
    stable = sorted(set(categories) - oracle.volatile_prefixes)
    probe = stable[random.Random(seed).randrange(len(stable))]
    return Inputs(world, data_dir, feed_path, feed, oracle, probe)


#: One prepared request: ``(kind, key, bytes on the wire)``.
Request = Tuple[str, object, bytes]


def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def post_request(target: str, body: bytes) -> bytes:
    head = (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}"
        "\r\n\r\n"
    )
    return head.encode("ascii") + body


def _miss_pool(oracle: Oracle, rng: random.Random) -> List[str]:
    """/24s in 240.0.0.0/8 that no classified leaf covers."""
    leaves = {Prefix.parse(key) for key in oracle.categories}
    pool: List[str] = []
    while len(pool) < MISS_POOL:
        candidate = Prefix.parse(
            f"240.{rng.randrange(256)}.{rng.randrange(256)}.0/24"
        )
        if not any(
            candidate.supernet(length) in leaves for length in range(25)
        ):
            pool.append(str(candidate))
    return pool


class RequestStream:
    """An endless, seeded draw from one workload's request mix.

    ``zipf``: 90% ``/v1/prefix`` over leaves ranked by a seeded shuffle
    with Zipf(1.1) popularity, 5% ``/v1/asn/{asn}?limit=100``, 5%
    prefixes nothing covers.  ``uniform``: 90% ``/v1/prefix`` over all
    leaves with equal weight, 10% ``/v1/bulk`` of 16 such leaves.  The
    shares are assumptions that give every endpoint some traffic.
    """

    def __init__(self, mix: str, oracle: Oracle, seed: int) -> None:
        self.mix = mix
        self._rng = random.Random(seed)
        self._leaves = sorted(oracle.categories)
        self._prefix_bytes = {
            key: get_request("/v1/prefix/" + key) for key in self._leaves
        }
        ranked = list(self._leaves)
        self._rng.shuffle(ranked)
        self._ranked = ranked
        self._cumulative = list(
            itertools.accumulate(
                rank ** -ZIPF_S for rank in range(1, len(ranked) + 1)
            )
        )
        self._asns = sorted(oracle.asn_totals)
        self._misses = [
            (key, get_request("/v1/prefix/" + key))
            for key in _miss_pool(oracle, self._rng)
        ]

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        rng = self._rng
        roll = rng.random()
        if self.mix == "zipf":
            if roll < 0.90:
                key = rng.choices(self._ranked, cum_weights=self._cumulative)[0]
                return "prefix", key, self._prefix_bytes[key]
            if roll < 0.95:
                asn = self._asns[rng.randrange(len(self._asns))]
                target = f"/v1/asn/{asn}?limit={ASN_LIMIT}"
                return "asn", asn, get_request(target)
            key, data = self._misses[rng.randrange(len(self._misses))]
            return "miss", key, data
        if roll < 0.90:
            key = self._leaves[rng.randrange(len(self._leaves))]
            return "prefix", key, self._prefix_bytes[key]
        keys = tuple(
            self._leaves[rng.randrange(len(self._leaves))]
            for _ in range(BULK_SIZE)
        )
        body = json.dumps({"prefixes": list(keys)}).encode("ascii")
        return "bulk", keys, post_request("/v1/bulk", body)


class Verifier:
    """Checks one response against the oracle; False marks a failed op."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle

    def __call__(self, kind: str, key: object, status: int, body: bytes) -> bool:
        if kind == "miss":
            return status == 404
        if kind == "prefix":
            return status == 200 and self._leaf_ok(key, json.loads(body))
        if kind == "asn":
            return self._listing_ok(key, status, body)
        if kind == "bulk":
            if status != 200:
                return False
            results = json.loads(body)["results"]
            return len(results) == len(key) and all(
                item["status"] == 200 and self._leaf_ok(text, item["result"])
                for text, item in zip(key, results)
            )
        return False

    def _leaf_ok(self, key: object, doc: dict) -> bool:
        if doc.get("matched_prefix") != key:
            return False
        if key in self.oracle.volatile_prefixes:
            return True
        return doc["answer"]["category_code"] == self.oracle.categories[key]

    def _listing_ok(self, asn: object, status: int, body: bytes) -> bool:
        if asn in self.oracle.volatile_asns:
            return status in (200, 404)
        if status != 200:
            return False
        doc = json.loads(body)
        total = self.oracle.asn_totals[asn]
        return doc["total"] == total and len(doc["answers"]) == min(
            total, ASN_LIMIT
        )
