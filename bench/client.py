"""An HTTP/1.1 load client for one process and at most two connections.

Open loop: requests are written on a fixed schedule (constant spacing
at the phase's rate) and never wait for replies; each connection
pipelines, and the server answers a connection's requests in order.
Latency runs from the write to the last byte of the response, so a
server stall shows in full on every request queued behind it.  How late
the generator wrote relative to the schedule is kept separately: the
event loop's timer granularity is about 1 ms, which would otherwise
swamp sub-millisecond service times.

Closed loop: each connection keeps a fixed window of requests in
flight and writes a replacement for every response it reads; responses
completed per second of the window is the saturated throughput.

Every response is checked by a caller-supplied function and counted as
failed when the check, the status or the connection fails.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterator, List, Optional, Tuple

#: ``(kind, key, request bytes)`` — see :class:`bench.inputs.RequestStream`.
Request = Tuple[str, object, bytes]

#: ``check(kind, key, status, body) -> bool``.
Check = Callable[[str, object, int, bytes], bool]

#: How long a phase waits for its last responses before failing them.
DRAIN_TIMEOUT_S = 10.0

#: Keep one sampled client span per this many requests in traced runs.
SPAN_SAMPLE_EVERY = 50

#: Closed-loop throughput is counted over slices this long.
THROUGHPUT_SLICE_S = 0.25


@dataclass
class PhaseResult:
    """One phase's client-side measurements."""

    name: str
    sent: int = 0
    completed: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: When each response's last byte arrived (``perf_counter``).
    done: List[float] = field(default_factory=list)
    client_cpu_s: float = 0.0
    wall_s: float = 0.0
    #: The closed loop's measured window: ``[window_start, window_end)``.
    window_start: float = 0.0
    window_end: float = float("inf")
    #: ``(index, due, write, done)`` for every SPAN_SAMPLE_EVERY-th request.
    samples: List[Tuple[int, float, float, float]] = field(
        default_factory=list
    )

    def slice_rates(self, slice_s: float = THROUGHPUT_SLICE_S) -> List[float]:
        """Completions per second in each of the window's equal slices.

        The window is cut into slices of about *slice_s*.  Their median,
        rather than one count over the window, keeps a brief stall of the
        machine from moving the throughput.
        """
        width = self.window_end - self.window_start
        slices = max(1, int(width / slice_s))
        size = width / slices
        counts = [0] * slices
        for done in self.done:
            position = int((done - self.window_start) / size)
            if 0 <= position < slices:
                counts[position] += 1
        return [count / size for count in counts]


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of *values*."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


class _Pending:
    __slots__ = ("index", "kind", "key", "due", "written")

    def __init__(
        self, index: int, kind: str, key: object, due: float, written: float
    ) -> None:
        self.index = index
        self.kind = kind
        self.key = key
        self.due = due
        self.written = written


class _Connection(asyncio.Protocol):
    """One keep-alive connection with FIFO response matching."""

    def __init__(self, client: "LoadClient") -> None:
        self.client = client
        self.transport: Optional[asyncio.Transport] = None
        self.pending: Deque[_Pending] = deque()
        self.buffer = bytearray()

    def connection_made(self, transport) -> None:  # type: ignore[override]
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        done = time.perf_counter()
        buffer = self.buffer
        buffer += data
        answered = 0
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            mark = buffer.find(b"Content-Length: ", 0, head_end)
            length = int(buffer[mark + 16:buffer.find(b"\r\n", mark)])
            total = head_end + 4 + length
            if len(buffer) < total:
                break
            status = int(buffer[9:12])
            body = bytes(buffer[head_end + 4:total])
            del buffer[:total]
            self.client.on_response(self.pending.popleft(), status, body, done)
            answered += 1
        if answered:
            self.client.after_responses(self, answered)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        while self.pending:
            self.client.on_failure(self.pending.popleft())


class LoadClient:
    """Drives one server from this process over a few keep-alive sockets."""

    def __init__(self, check: Check, trace: bool = False) -> None:
        self.check = check
        self.trace = trace
        self.connections: List[_Connection] = []
        self._phase: Optional[PhaseResult] = None
        self._idle: Optional[asyncio.Event] = None
        self._refill: Optional[Callable[[_Connection, int], None]] = None
        self._cpu_started = 0.0
        self._wall_started = 0.0

    async def connect(self, host: str, port: int, connections: int) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(connections):
            _transport, protocol = await loop.create_connection(
                lambda: _Connection(self), host, port
            )
            self.connections.append(protocol)

    def close(self) -> None:
        for connection in self.connections:
            if connection.transport is not None:
                connection.transport.close()
        self.connections = []

    # -- response bookkeeping ----------------------------------------------
    def on_response(
        self, pending: _Pending, status: int, body: bytes, done: float
    ) -> None:
        phase = self._phase
        assert phase is not None
        phase.completed += 1
        phase.done.append(done)
        phase.latencies.append(done - pending.written)
        if self.trace and pending.index % SPAN_SAMPLE_EVERY == 0:
            phase.samples.append(
                (pending.index, pending.due, pending.written, done)
            )
        try:
            ok = self.check(pending.kind, pending.key, status, body)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            phase.failed += 1

    def after_responses(self, connection: _Connection, answered: int) -> None:
        if self._refill is not None:
            self._refill(connection, answered)
        self._settle()

    def on_failure(self, pending: _Pending) -> None:
        phase = self._phase
        if phase is not None:
            phase.completed += 1
            phase.failed += 1
            self._settle()

    def _settle(self) -> None:
        if self._idle is not None and not any(
            connection.pending for connection in self.connections
        ):
            self._idle.set()

    def _write(
        self, connection: _Connection, batch: List[Tuple[int, Request, float]]
    ) -> None:
        """Send *batch* (``(index, request, due)``) in one write."""
        phase = self._phase
        assert phase is not None
        written = time.perf_counter()
        for index, (kind, key, _data), due in batch:
            connection.pending.append(_Pending(index, kind, key, due, written))
            phase.lateness.append(written - due)
        phase.sent += len(batch)
        if connection.transport is None:
            while connection.pending:
                self.on_failure(connection.pending.popleft())
            return
        connection.transport.write(b"".join(item[1][2] for item in batch))

    async def _drain(self) -> None:
        phase = self._phase
        assert phase is not None
        self._idle = asyncio.Event()
        self._settle()
        try:
            await asyncio.wait_for(self._idle.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            for connection in self.connections:
                phase.failed += len(connection.pending)
                phase.completed += len(connection.pending)
                connection.pending.clear()
        self._idle = None

    # -- phases ---------------------------------------------------------------
    async def open_loop(
        self,
        name: str,
        requests: Iterator[Request],
        rate: float,
        duration_s: float,
    ) -> PhaseResult:
        """Write ``rate * duration_s`` requests on a fixed schedule."""
        phase = self._begin(name)
        total = int(rate * duration_s)
        interval = 1.0 / rate
        count = len(self.connections)
        start = time.perf_counter() + 0.002
        index = 0
        with _gc_paused():
            while index < total:
                now = time.perf_counter()
                due = start + index * interval
                if due > now:
                    await asyncio.sleep(due - now)
                    continue
                batches: List[List[Tuple[int, Request, float]]] = [
                    [] for _ in range(count)
                ]
                while index < total and due <= now:
                    batches[index % count].append(
                        (index, next(requests), due)
                    )
                    index += 1
                    due = start + index * interval
                for connection, batch in zip(self.connections, batches):
                    if batch:
                        self._write(connection, batch)
            await self._drain()
        return self._end(phase)

    async def closed_loop(
        self,
        name: str,
        requests: Iterator[Request],
        window: int,
        duration_s: float,
    ) -> PhaseResult:
        """Keep *window* requests in flight per connection for a while."""
        phase = self._begin(name)
        counter = itertools.count()
        phase.window_start = time.perf_counter()
        deadline = phase.window_start + duration_s
        phase.window_end = deadline

        def batch(size: int) -> List[Tuple[int, Request, float]]:
            now = time.perf_counter()
            return [(next(counter), next(requests), now) for _ in range(size)]

        def refill(connection: _Connection, answered: int) -> None:
            if time.perf_counter() < deadline:
                self._write(connection, batch(answered))

        with _gc_paused():
            for connection in self.connections:
                self._write(connection, batch(window))
            self._refill = refill
            await asyncio.sleep(max(0.0, deadline - time.perf_counter()))
            self._refill = None
            await self._drain()
        return self._end(phase)

    def _begin(self, name: str) -> PhaseResult:
        self._phase = PhaseResult(name)
        self._cpu_started = _cpu_seconds()
        self._wall_started = time.perf_counter()
        return self._phase

    def _end(self, phase: PhaseResult) -> PhaseResult:
        phase.client_cpu_s = _cpu_seconds() - self._cpu_started
        phase.wall_s = time.perf_counter() - self._wall_started
        self._phase = None
        return phase


def _cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    times = os.times()
    return times.user + times.system


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """No cyclic collection while a phase is timed (set-up is frozen)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
