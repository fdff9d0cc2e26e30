"""Synthetic BGP update feeds emitted between collector dumps.

A world's routing table is the collector's RIB *dump*; this module
generates what happens **between** dumps — seeded bursts of withdraw /
re-announce / origin-flap messages over the world's advertised space,
rendered as the sequenced BGP4MP feed of :mod:`repro.bgp.updates`.

The generator mirrors real churn shapes: withdraws evict an advertised
prefix wholly, re-announces bring a withdrawn prefix back (sometimes
from a *different* origin — the lease-turnover signal the paper's §6.5
timeline is built on), and origin flaps add a second origin to a live
prefix (the MOAS events hijack detection feeds on).  AS paths walk the
world's provider chains from the new origin so the lines look like the
collector's table-dump rows.

Everything is deterministic in ``(world, seed)``: choices come from one
``random.Random`` and draw from sorted views of the mutating state, and
sequence numbers run continuously across bursts from one
:class:`~repro.bgp.updates.SequenceGenerator`.
"""

from __future__ import annotations

import bisect
import random
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Set, Tuple

from ..bgp.history import AnnounceUpdate, WithdrawUpdate
from ..bgp.aspath import ASPath
from ..bgp.updates import (
    ReplayLog,
    SequencedUpdate,
    SequenceGenerator,
    format_sequenced,
)
from ..net import Prefix

if TYPE_CHECKING:
    from .world import World

__all__ = [
    "DEFAULT_STREAM_START",
    "bursts_from_replay",
    "render_replay_log",
    "simulate_update_bursts",
]

#: Feed timestamps start here by default (2024-04-03 00:00 UTC, the
#: morning after the worlds' RIB-dump epoch) — a fixed constant because
#: recorded artifacts must not read the wall clock.
DEFAULT_STREAM_START = 1712102400

#: Seconds between bursts: the RIS update-file cadence.
_BURST_INTERVAL_S = 300


def simulate_update_bursts(
    world: World,
    bursts: int,
    burst_size: int,
    seed: int,
    start_timestamp: int = DEFAULT_STREAM_START,
) -> List[List[SequencedUpdate]]:
    """Generate *bursts* bursts of *burst_size* updates over *world*.

    The stream is stateful: a withdraw leaves the prefix eligible for
    re-announcement in a later burst, and every message is consistent
    with the mutated table state at its point in the feed (no withdraw
    of a never-advertised prefix, no announce duplicating a live
    origin).  Deterministic in ``seed`` for a given world.
    """
    if bursts < 0:
        raise ValueError(f"bursts must be >= 0, got {bursts}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    rng = random.Random(seed)
    sequences = SequenceGenerator()

    active: Dict[Prefix, Set[int]] = {
        prefix: set(origins) for prefix, origins in world.routing_table.items()
    }
    advertised: List[Prefix] = sorted(active)
    gone: Dict[Prefix, FrozenSet[int]] = {}
    gone_list: List[Prefix] = []
    origin_pool: List[int] = sorted(
        {origin for origins in active.values() for origin in origins}
    )
    peer = world.collector_peers[0]
    path_cache: Dict[int, Tuple[int, ...]] = {}

    def path_for(origin: int) -> ASPath:
        chain = path_cache.get(origin)
        if chain is None:
            hops = [origin]
            current = origin
            for _hop in range(12):
                providers = world.topology.providers(current)
                if not providers:
                    break
                current = min(providers)
                hops.append(current)
            chain = tuple(reversed(hops))
            if chain[0] != peer:
                chain = (peer,) + chain
            path_cache[origin] = chain
        return ASPath(chain)

    def pick(prefixes: List[Prefix]) -> Prefix:
        return prefixes[rng.randrange(len(prefixes))]

    def emit_withdraw(timestamp: int) -> SequencedUpdate:
        prefix = pick(advertised)
        gone[prefix] = frozenset(active.pop(prefix))
        advertised.pop(bisect.bisect_left(advertised, prefix))
        bisect.insort(gone_list, prefix)
        return sequences.stamp(
            WithdrawUpdate(timestamp=timestamp, prefix=prefix, peer_asn=peer)
        )

    def emit_announce(
        timestamp: int, prefix: Prefix, origin: int
    ) -> SequencedUpdate:
        origins = active.get(prefix)
        if origins is None:
            active[prefix] = {origin}
            bisect.insort(advertised, prefix)
        else:
            origins.add(origin)
        return sequences.stamp(
            AnnounceUpdate(
                timestamp=timestamp,
                prefix=prefix,
                path=path_for(origin),
                peer_asn=peer,
            )
        )

    def emit_reannounce(timestamp: int) -> SequencedUpdate:
        prefix = pick(gone_list)
        previous = gone.pop(prefix)
        gone_list.pop(bisect.bisect_left(gone_list, prefix))
        if rng.random() < 0.5:
            # Lease turnover: the prefix comes back from a fresh origin.
            origin = origin_pool[rng.randrange(len(origin_pool))]
        else:
            choices = sorted(previous)
            origin = choices[rng.randrange(len(choices))]
        return emit_announce(timestamp, prefix, origin)

    def emit_flap(timestamp: int) -> SequencedUpdate:
        prefix = pick(advertised)
        current = active[prefix]
        extra = [asn for asn in origin_pool if asn not in current]
        if extra:
            origin = extra[rng.randrange(len(extra))]
        else:
            origin = sorted(current)[0]
        return emit_announce(timestamp, prefix, origin)

    feed: List[List[SequencedUpdate]] = []
    for burst_index in range(bursts):
        timestamp = start_timestamp + burst_index * _BURST_INTERVAL_S
        burst: List[SequencedUpdate] = []
        for _op in range(burst_size):
            roll = rng.random()
            if roll < 0.45 and advertised:
                burst.append(emit_withdraw(timestamp))
            elif roll < 0.80 and gone_list:
                burst.append(emit_reannounce(timestamp))
            elif advertised:
                burst.append(emit_flap(timestamp))
            elif gone_list:
                burst.append(emit_reannounce(timestamp))
        feed.append(burst)
    return feed


def render_replay_log(
    world_size: str,
    world_seed: int,
    bursts: List[List[SequencedUpdate]],
) -> str:
    """Serialize a generated feed as committed-fixture JSON."""
    return ReplayLog(
        world_size=world_size,
        world_seed=world_seed,
        bursts=tuple(
            tuple(format_sequenced(message) for message in burst)
            for burst in bursts
        ),
    ).to_json()


def bursts_from_replay(text: str) -> Tuple[str, int, List[List[SequencedUpdate]]]:
    """Load a replay-log fixture: ``(world_size, world_seed, bursts)``.

    The inverse of :func:`render_replay_log`; parsing is strict, so a
    hand-edited fixture that breaks the line format fails loudly.
    """
    log = ReplayLog.from_json(text)
    return log.world_size, log.world_seed, log.burst_updates()
