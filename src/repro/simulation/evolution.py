"""Seeded multi-epoch world evolution: lease churn with ground truth.

:mod:`repro.simulation.stream` generates minutes-scale update bursts
between collector dumps; this module generates **months** — a schedule
of lease turnover over a fixed set of candidate prefixes, rendered as
the three artifacts the temporal subsystem consumes:

* one BGP update burst per epoch (withdraws when a lease ends,
  announces from the new lessee when one begins),
* one RPKI snapshot per epoch in a dedicated
  :class:`~repro.rpki.archive.RpkiArchive` — ``ROA(prefix, lessee)``
  while leased, ``ROA(prefix, AS0)`` in the between-leases gap the
  paper observes IPXO publishing (§6.5), and
* the generating schedule itself, per prefix, so tests can assert the
  inferred timelines reproduce the ground truth exactly.

Each candidate walks a two-state machine: ``LEASED(asn)`` → withdraw +
AS0 ROA → ``GAP`` → announce from a *different* ASN + its ROA →
``LEASED(asn')``.  Every lease change therefore passes through an AS0
marker, the §6.5 signature.  Everything is deterministic in
``(world, candidates, seed)``: one ``random.Random``, sorted iteration
over all mutating state.

Layering note: this module (like all of ``simulation``) may not import
``core`` — callers supply *candidates* (typically the classifiable
leaves of an ``AnalysisContext``) instead of this module deriving them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bgp.aspath import ASPath
from ..bgp.history import AnnounceUpdate, Update, WithdrawUpdate
from ..bgp.updates import SequencedUpdate, SequenceGenerator
from ..net import Prefix
from ..rpki.archive import RpkiArchive
from ..rpki.roa import AS0, ROA, RoaSet
from .stream import DEFAULT_STREAM_START
from .world import World

__all__ = [
    "DEFAULT_EPOCH_INTERVAL_S",
    "WorldEvolution",
    "evolve_world",
]

#: Seconds between lease-churn epochs: one week, the cadence at which
#: the paper's longitudinal snapshots (§6.5) observe turnover.
DEFAULT_EPOCH_INTERVAL_S = 7 * 24 * 3600

#: Per-candidate, per-epoch chance of a state transition.
_TRANSITION_P = 0.45


@dataclass(frozen=True)
class WorldEvolution:
    """One generated multi-epoch history over a world's leased space.

    ``schedule`` is the ground truth: for each candidate, the
    ``(timestamp, lessee)`` change points of its lease state —
    ``lessee`` is the holding ASN while leased and ``None`` during an
    AS0 gap.  The first entry is always at ``base_timestamp``.
    """

    base_timestamp: int
    epoch_timestamps: Tuple[int, ...]
    base_burst: Tuple[SequencedUpdate, ...]
    epoch_bursts: Tuple[Tuple[SequencedUpdate, ...], ...]
    archive: RpkiArchive
    schedule: Dict[Prefix, Tuple[Tuple[int, Optional[int]], ...]]
    #: The churn seed this history was generated from.
    seed: int

    @property
    def epochs(self) -> int:
        return len(self.epoch_timestamps)

    def all_updates(self) -> List[SequencedUpdate]:
        """The whole feed (base burst first), for history replay."""
        flat: List[SequencedUpdate] = list(self.base_burst)
        for burst in self.epoch_bursts:
            flat.extend(burst)
        return flat

    def lease_counts(self) -> Dict[Prefix, int]:
        """Ground-truth number of lease periods per candidate."""
        return {
            prefix: sum(1 for _, lessee in entries if lessee is not None)
            for prefix, entries in self.schedule.items()
        }

    def gap_counts(self) -> Dict[Prefix, int]:
        """Ground-truth number of AS0 gaps per candidate."""
        return {
            prefix: sum(1 for _, lessee in entries if lessee is None)
            for prefix, entries in self.schedule.items()
        }


def evolve_world(
    world: World,
    candidates: Sequence[Prefix],
    epochs: int,
    seed: int,
    base_timestamp: int = DEFAULT_STREAM_START,
    epoch_interval: int = DEFAULT_EPOCH_INTERVAL_S,
) -> WorldEvolution:
    """Generate *epochs* epochs of lease churn over *candidates*.

    Candidates are filtered to prefixes the world's routing table
    advertises from exactly one origin (the clean single-origin leases
    the state machine models); at least one must survive.  Every epoch
    transitions a seeded subset of them and always at least one, so
    each epoch carries a non-empty change set.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if epoch_interval < 1:
        raise ValueError(
            f"epoch_interval must be >= 1, got {epoch_interval}"
        )
    table = world.routing_table
    targets: List[Prefix] = sorted(
        prefix
        for prefix in set(candidates)
        if len(table.exact_origins(prefix)) == 1
    )
    if not targets:
        raise ValueError(
            "no single-origin routed candidates to evolve"
        )
    pool: List[int] = sorted(
        {origin for _, origins in table.items() for origin in origins}
    )
    if len(pool) < 2:
        raise ValueError("world has fewer than two candidate lessees")

    rng = random.Random(seed)
    sequences = SequenceGenerator()
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

    def stamp(update: Update) -> SequencedUpdate:
        return sequences.stamp(update)

    # State: current lessee per target (None = AS0 gap) and the lessee
    # to avoid when re-leasing (no back-to-back identical leases).
    lessee: Dict[Prefix, Optional[int]] = {}
    previous_lessee: Dict[Prefix, int] = {}
    schedule: Dict[Prefix, List[Tuple[int, Optional[int]]]] = {}

    base_burst: List[SequencedUpdate] = []
    base_roas = RoaSet()
    for target in targets:
        (origin,) = table.exact_origins(target)
        lessee[target] = origin
        previous_lessee[target] = origin
        schedule[target] = [(base_timestamp, origin)]
        base_burst.append(
            stamp(
                AnnounceUpdate(
                    timestamp=base_timestamp,
                    prefix=target,
                    path=path_for(origin),
                    peer_asn=peer,
                )
            )
        )
        base_roas.add(ROA(prefix=target, asn=origin))
    archive = RpkiArchive()
    archive.add_snapshot(base_timestamp, base_roas)

    def transition(target: Prefix, timestamp: int) -> SequencedUpdate:
        holder = lessee[target]
        if holder is not None:
            # Lease ends: withdraw, and mark the space AS0.
            previous_lessee[target] = holder
            lessee[target] = None
            schedule[target].append((timestamp, None))
            return stamp(
                WithdrawUpdate(
                    timestamp=timestamp, prefix=target, peer_asn=peer
                )
            )
        # Gap ends: a fresh lessee announces.
        avoid = previous_lessee[target]
        choices = [asn for asn in pool if asn != avoid]
        fresh = choices[rng.randrange(len(choices))]
        lessee[target] = fresh
        schedule[target].append((timestamp, fresh))
        return stamp(
            AnnounceUpdate(
                timestamp=timestamp,
                prefix=target,
                path=path_for(fresh),
                peer_asn=peer,
            )
        )

    epoch_timestamps: List[int] = []
    epoch_bursts: List[Tuple[SequencedUpdate, ...]] = []
    for number in range(1, epochs + 1):
        timestamp = base_timestamp + number * epoch_interval
        burst: List[SequencedUpdate] = []
        for target in targets:
            if rng.random() < _TRANSITION_P:
                burst.append(transition(target, timestamp))
        if not burst:
            # Every epoch must carry churn: force one transition.
            forced = targets[rng.randrange(len(targets))]
            burst.append(transition(forced, timestamp))
        snapshot = RoaSet()
        for target in targets:
            holder = lessee[target]
            snapshot.add(
                ROA(
                    prefix=target,
                    asn=AS0 if holder is None else holder,
                )
            )
        archive.add_snapshot(timestamp, snapshot)
        epoch_timestamps.append(timestamp)
        epoch_bursts.append(tuple(burst))

    return WorldEvolution(
        base_timestamp=base_timestamp,
        epoch_timestamps=tuple(epoch_timestamps),
        base_burst=tuple(base_burst),
        epoch_bursts=tuple(epoch_bursts),
        archive=archive,
        schedule={
            target: tuple(entries)
            for target, entries in schedule.items()
        },
        seed=seed,
    )
