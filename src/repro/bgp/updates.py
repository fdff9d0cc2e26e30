"""Sequenced BGP4MP update feeds (the streaming wire format).

Between collector RIB dumps the simulator emits announce/withdraw
messages in the one-line-per-message ``bgpdump -m`` style, extended with
a trailing monotonic **sequence number** column (the ``rv_ingest``
idiom: every message carries the position the collector assigned at
ingest, so consumers can detect gaps and reordering without trusting
timestamps)::

    BGP4MP|<ts>|A|<peer_ip>|<peer_asn>|<prefix>|<as_path>|IGP|<seq>
    BGP4MP|<ts>|W|<peer_ip>|<peer_asn>|<prefix>|<seq>

Unlike the lenient historical reader in :mod:`repro.bgp.history` (which
skims real archives where trailing attribute columns vary), this parser
is **strict**: exact field counts, numeric fields that must parse, a
known protocol token, and strictly increasing sequence numbers across a
feed.  A streaming consumer that silently accepted malformed or
reordered input would corrupt the incremental engine's overlay — better
to reject at the boundary.

:class:`ReplayLog` is the committed-fixture form of a generated update
stream: the world it was generated against plus the burst lines, JSON
round-trippable so shrunk hypothesis failures land in
``tests/fixtures/stream/`` as regression cases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from ..net import AddressError, Prefix
from .aspath import ASPath
from .history import AnnounceUpdate, Update, WithdrawUpdate

__all__ = [
    "ReplayLog",
    "SequenceError",
    "SequenceGenerator",
    "SequencedUpdate",
    "UpdateParseError",
    "format_sequenced",
    "parse_sequenced_line",
    "read_updates",
    "write_updates",
]

_MARKER = "BGP4MP"
_ANNOUNCE_FIELDS = 9
_WITHDRAW_FIELDS = 7
_PROTOCOLS = frozenset({"IGP", "EGP", "INCOMPLETE"})


class UpdateParseError(ValueError):
    """Raised on a malformed sequenced update line."""


class SequenceError(ValueError):
    """Raised when a feed's sequence numbers are not strictly increasing."""


@dataclass(frozen=True, order=True)
class SequencedUpdate:
    """One feed message: the collector-assigned sequence plus the update."""

    sequence: int
    update: Update

    @property
    def prefix(self) -> Prefix:
        return self.update.prefix

    @property
    def is_announce(self) -> bool:
        return isinstance(self.update, AnnounceUpdate)


class SequenceGenerator:
    """Monotonic sequence numbers, continuous across bursts.

    One generator lives for the whole feed; every emitted message takes
    the next number, so burst boundaries never reset the sequence and a
    consumer can splice bursts back into one ordered feed.
    """

    def __init__(self, start: int = 1) -> None:
        if start < 0:
            raise ValueError(f"sequence start must be >= 0, got {start}")
        self._next = start

    def take(self) -> int:
        """The next sequence number (each call advances)."""
        value = self._next
        self._next += 1
        return value

    def stamp(self, update: Update) -> SequencedUpdate:
        """Wrap *update* with the next sequence number."""
        return SequencedUpdate(sequence=self.take(), update=update)


def format_sequenced(message: SequencedUpdate) -> str:
    """Render one sequenced update as a pipe line."""
    update = message.update
    if isinstance(update, AnnounceUpdate):
        fields = (
            _MARKER,
            str(update.timestamp),
            "A",
            update.peer_address,
            str(update.peer_asn),
            str(update.prefix),
            str(update.path),
            "IGP",
            str(message.sequence),
        )
    else:
        fields = (
            _MARKER,
            str(update.timestamp),
            "W",
            update.peer_address,
            str(update.peer_asn),
            str(update.prefix),
            str(message.sequence),
        )
    return "|".join(fields)


def _parse_int(text: str, what: str, line: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UpdateParseError(
            f"non-numeric {what} {text!r} in line {line!r}"
        ) from exc


def parse_sequenced_line(line: str) -> SequencedUpdate:
    """Parse one sequenced update line, rejecting anything malformed.

    Announce lines must have exactly nine fields, withdraw lines exactly
    seven; timestamps, peer ASNs, and sequence numbers must be integers;
    the prefix and AS path must parse; the protocol token must be one of
    ``IGP``/``EGP``/``INCOMPLETE``.
    """
    stripped = line.rstrip("\n")
    fields = stripped.split("|")
    if len(fields) < 3:
        raise UpdateParseError(f"too few fields: {stripped!r}")
    if fields[0] != _MARKER:
        raise UpdateParseError(f"unexpected marker {fields[0]!r}")
    kind = fields[2]
    if kind == "A":
        if len(fields) != _ANNOUNCE_FIELDS:
            raise UpdateParseError(
                f"announce needs {_ANNOUNCE_FIELDS} fields, "
                f"got {len(fields)}: {stripped!r}"
            )
    elif kind == "W":
        if len(fields) != _WITHDRAW_FIELDS:
            raise UpdateParseError(
                f"withdraw needs {_WITHDRAW_FIELDS} fields, "
                f"got {len(fields)}: {stripped!r}"
            )
    else:
        raise UpdateParseError(f"unknown update kind {kind!r}: {stripped!r}")
    timestamp = _parse_int(fields[1], "timestamp", stripped)
    peer_address = fields[3]
    peer_asn = _parse_int(fields[4], "peer ASN", stripped)
    try:
        prefix = Prefix.parse(fields[5])
    except (AddressError, ValueError) as exc:
        raise UpdateParseError(
            f"unparseable prefix {fields[5]!r} in line {stripped!r}"
        ) from exc
    if kind == "A":
        try:
            path = ASPath.parse(fields[6])
        except ValueError as exc:
            raise UpdateParseError(
                f"unparseable AS path {fields[6]!r} in line {stripped!r}"
            ) from exc
        if fields[7] not in _PROTOCOLS:
            raise UpdateParseError(
                f"unknown protocol {fields[7]!r} in line {stripped!r}"
            )
        sequence = _parse_int(fields[8], "sequence", stripped)
        update: Update = AnnounceUpdate(
            timestamp=timestamp,
            prefix=prefix,
            path=path,
            peer_asn=peer_asn,
            peer_address=peer_address,
        )
    else:
        sequence = _parse_int(fields[6], "sequence", stripped)
        update = WithdrawUpdate(
            timestamp=timestamp,
            prefix=prefix,
            peer_asn=peer_asn,
            peer_address=peer_address,
        )
    if sequence < 0:
        raise UpdateParseError(f"negative sequence in line {stripped!r}")
    return SequencedUpdate(sequence=sequence, update=update)


def read_updates(
    source: Union[str, TextIO, Iterable[str]]
) -> Iterator[SequencedUpdate]:
    """Yield sequenced updates from feed text, a file, or lines.

    Strict on both axes: any malformed line raises
    :class:`UpdateParseError`, and sequence numbers must be strictly
    increasing across the whole feed or :class:`SequenceError` is raised
    (a duplicate or backwards sequence means the transport reordered or
    replayed messages — the overlay must not apply them).  Either
    message starts with the offending 1-based line (``"line 7: ..."``).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    last: Optional[int] = None
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            message = parse_sequenced_line(line)
        except UpdateParseError as exc:
            raise UpdateParseError(f"line {number}: {exc}") from None
        if last is not None and message.sequence <= last:
            raise SequenceError(
                f"line {number}: sequence {message.sequence} after {last}: "
                "feed is out of order"
            )
        last = message.sequence
        yield message


def write_updates(messages: Iterable[SequencedUpdate]) -> str:
    """Render a feed to text (one line per message, trailing newline)."""
    rendered: List[str] = [format_sequenced(message) for message in messages]
    return "\n".join(rendered) + ("\n" if rendered else "")


@dataclass(frozen=True)
class ReplayLog:
    """A committed, replayable update stream: world recipe plus bursts.

    ``world_size``/``world_seed`` name the :func:`bench_world` the
    stream was generated against; ``bursts`` holds each burst's lines in
    feed order.  The JSON form is what lands under
    ``tests/fixtures/stream/`` when a differential-harness failure is
    shrunk to a regression case.
    """

    world_size: str
    world_seed: int
    bursts: Tuple[Tuple[str, ...], ...]

    def burst_updates(self) -> List[List[SequencedUpdate]]:
        """Parse every burst back into sequenced updates (strict)."""
        parsed: List[List[SequencedUpdate]] = []
        for burst in self.bursts:
            parsed.append(list(read_updates(burst)))
        return parsed

    def to_json(self) -> str:
        """Serialize for committing as a fixture."""
        return json.dumps(
            {
                "world_size": self.world_size,
                "world_seed": self.world_seed,
                "bursts": [list(burst) for burst in self.bursts],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReplayLog":
        """Load a committed fixture (raises on missing keys)."""
        payload = json.loads(text)
        return cls(
            world_size=str(payload["world_size"]),
            world_seed=int(payload["world_seed"]),
            bursts=tuple(
                tuple(str(line) for line in burst)
                for burst in payload["bursts"]
            ),
        )
