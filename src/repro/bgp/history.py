"""BGP update streams and historical origin reconstruction.

The Fig. 3 BGP series comes from *historical* routing data: for one
prefix, which origin AS announced it when.  This module models the
update plane — timestamped announcements and withdrawals — and replays a
stream into per-prefix origin histories (the
:class:`~repro.core.timeline.BgpOriginHistory` the timeline consumes) or
into the routing table state at any instant.

The on-disk format is the one-line-per-message ``bgpdump -m`` style used
for updates::

    BGP4MP|<ts>|A|<peer_ip>|<peer_asn>|<prefix>|<as_path>|IGP   (announce)
    BGP4MP|<ts>|W|<peer_ip>|<peer_asn>|<prefix>                 (withdraw)
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Union

from ..net import Prefix
from .aspath import ASPath
from .rib import RoutingTable

__all__ = [
    "AnnounceUpdate",
    "WithdrawUpdate",
    "UpdateStream",
    "UpdateStreamError",
    "parse_update_line",
    "format_update",
]

_MARKER = "BGP4MP"


class UpdateStreamError(ValueError):
    """An update file that cannot be decoded; the message names the line."""


@dataclass(frozen=True, order=True)
class AnnounceUpdate:
    """An announce message: *prefix* reachable via *path* at *timestamp*."""

    timestamp: int
    prefix: Prefix
    path: ASPath
    peer_asn: int = 0
    peer_address: str = "0.0.0.0"

    @property
    def origin(self) -> int:
        """The origin AS of the announcement."""
        return self.path.origin


@dataclass(frozen=True, order=True)
class WithdrawUpdate:
    """A withdraw message: *prefix* no longer reachable at *timestamp*."""

    timestamp: int
    prefix: Prefix
    peer_asn: int = 0
    peer_address: str = "0.0.0.0"


Update = Union[AnnounceUpdate, WithdrawUpdate]


def format_update(update: Update) -> str:
    """Render one update in the pipe format."""
    if isinstance(update, AnnounceUpdate):
        return "|".join(
            (
                _MARKER,
                str(update.timestamp),
                "A",
                update.peer_address,
                str(update.peer_asn),
                str(update.prefix),
                str(update.path),
                "IGP",
            )
        )
    return "|".join(
        (
            _MARKER,
            str(update.timestamp),
            "W",
            update.peer_address,
            str(update.peer_asn),
            str(update.prefix),
        )
    )


def parse_update_line(line: str) -> Update:
    """Parse one pipe-format update line."""
    fields = line.rstrip("\n").split("|")
    if len(fields) < 6 or fields[0] != _MARKER:
        raise ValueError(f"malformed update line: {line!r}")
    timestamp = int(fields[1])
    kind = fields[2]
    peer_address, peer_asn = fields[3], int(fields[4])
    prefix = Prefix.parse(fields[5])
    if kind == "W":
        return WithdrawUpdate(
            timestamp=timestamp,
            prefix=prefix,
            peer_asn=peer_asn,
            peer_address=peer_address,
        )
    if kind == "A":
        if len(fields) < 7:
            raise ValueError(f"announce without path: {line!r}")
        return AnnounceUpdate(
            timestamp=timestamp,
            prefix=prefix,
            path=ASPath.parse(fields[6]),
            peer_asn=peer_asn,
            peer_address=peer_address,
        )
    raise ValueError(f"unknown update kind {kind!r}")


class UpdateStream:
    """A time-ordered collection of BGP updates with replay queries."""

    def __init__(self, updates: Iterable[Update] = ()) -> None:
        self._updates: List[Update] = sorted(
            updates,
            key=lambda u: (u.timestamp, isinstance(u, AnnounceUpdate)),
        )

    def add(self, update: Update) -> None:
        """Insert one update, keeping time order."""
        keys = [u.timestamp for u in self._updates]
        index = bisect.bisect_right(keys, update.timestamp)
        self._updates.insert(index, update)

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    # -- text format -------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "UpdateStream":
        """Parse a pipe-format update file.

        A malformed line raises :class:`UpdateStreamError` whose message
        starts with its 1-based line number (``"line 7: ..."``).
        """
        updates: List[Update] = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                updates.append(parse_update_line(line))
            except ValueError as exc:
                raise UpdateStreamError(f"line {number}: {exc}") from None
        return cls(updates)

    def to_text(self) -> str:
        """Render the stream back to pipe-format text."""
        lines = [format_update(update) for update in self._updates]
        return "\n".join(lines) + ("\n" if lines else "")

    # -- replay ------------------------------------------------------------
    def table_at(self, timestamp: int) -> RoutingTable:
        """The merged routing state after applying updates up to *timestamp*.

        Withdrawals remove only the withdrawing origin's route for the
        prefix (per-origin granularity is what the inference needs).
        """
        active: Dict[Prefix, Set[int]] = defaultdict(set)
        origin_of_peer: Dict[tuple, int] = {}
        for update in self._updates:
            if update.timestamp > timestamp:
                break
            key = (update.prefix, update.peer_asn, update.peer_address)
            if isinstance(update, AnnounceUpdate):
                previous = origin_of_peer.get(key)
                if previous is not None:
                    active[update.prefix].discard(previous)
                origin_of_peer[key] = update.origin
                active[update.prefix].add(update.origin)
            else:
                previous = origin_of_peer.pop(key, None)
                if previous is not None:
                    active[update.prefix].discard(previous)
        table = RoutingTable()
        for prefix, origins in active.items():
            for origin in origins:
                table.add_route(prefix, origin)
        return table

    def origin_history(self, prefix: Prefix):
        """Replay the stream into the per-prefix origin time series.

        Returns a :class:`repro.core.timeline.BgpOriginHistory` ready for
        :func:`repro.core.timeline.build_timeline`.
        """
        from ..core.timeline import BgpOriginHistory

        history = BgpOriginHistory()
        current: Set[int] = set()
        origin_of_peer: Dict[tuple, int] = {}
        last_timestamp: Optional[int] = None
        for update in self._updates:
            if update.prefix != prefix:
                continue
            if last_timestamp is not None and update.timestamp != last_timestamp:
                history.add_observation(last_timestamp, frozenset(current))
            key = (update.peer_asn, update.peer_address)
            if isinstance(update, AnnounceUpdate):
                previous = origin_of_peer.get(key)
                if previous is not None:
                    current.discard(previous)
                origin_of_peer[key] = update.origin
                current.add(update.origin)
            else:
                previous = origin_of_peer.pop(key, None)
                if previous is not None:
                    current.discard(previous)
            last_timestamp = update.timestamp
        if last_timestamp is not None:
            history.add_observation(last_timestamp, frozenset(current))
        return history

    def prefixes(self) -> Set[Prefix]:
        """All prefixes the stream touches."""
        return {update.prefix for update in self._updates}
