"""The lease-lookup HTTP/JSON API over ``asyncio`` streams (stdlib only).

Endpoints (all responses are JSON unless noted):

* ``GET /v1/prefix/{cidr}`` — exact / longest-prefix answer with the
  covering chain and full classification evidence,
* ``GET /v1/asn/{asn}`` — every leaf originated by the AS,
* ``GET /v1/org/{handle}`` — every leaf held by the organisation,
* ``POST /v1/bulk`` — batched prefix lookups
  (``{"prefixes": [...]}``, at most :data:`MAX_BULK` per call),
* ``GET /v1/prefix/{cidr}/history`` — the prefix's lease timeline
  (periods, AS0 gaps, lessees — §6.5), when a temporal product is
  mounted,
* ``GET /v1/churn[?rir=]`` — per-RIR lease-churn tallies,
* ``GET /v1/stats`` — snapshot, cache, and per-endpoint counters,
* ``GET /healthz`` — liveness plus the published generation,
* ``GET /metrics`` — Prometheus-style text exposition.

With a :class:`~repro.temporal.TemporalProduct` mounted, the three
lookup endpoints accept ``?at=<unix timestamp>`` and answer from the
delta-encoded historical view live at that instant; the response (and
its ``ETag``) then carries the resolved epoch — ``"g{gen}@e{epoch}"``
instead of ``"g{gen}"`` — so conditional GETs stay correct across both
axes of change.  Query parameters are validated strictly: unknown
names, non-integer / negative values, and out-of-range ``at``/``limit``
are 400s, never silently ignored.

Each leaf's answer is encoded once, when the index is built; lookup
responses splice those stored bytes (:func:`~repro.core.leaseindex.encode_object`)
rather than re-encoding dicts, and are byte-identical to
``json.dumps(response, sort_keys=True)``.  They are served through a
bounded LRU cache of encoded bodies keyed by ``(generation, endpoint,
decoded query text, at, limit)``, so a cache hit does no JSON work, a
``/v1/bulk`` item shares the entry of the ``GET /v1/prefix`` naming
the same prefix, and historical answers cache independently of live
ones.  A new generation implicitly invalidates the cache because new
generations never match old keys, while the LRU bound evicts stale
generations' entries under pressure.  Per-endpoint request, error, and
latency counters feed ``/v1/stats`` and ``/metrics``.

The server runs on one event loop.  :meth:`LeaseQueryServer.start`
spins that loop on a daemon thread (tests, the load generator);
:meth:`LeaseQueryServer.run_async` serves in the caller's loop
(``repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union, cast
from urllib.parse import unquote

from ..core.leaseindex import (
    MAX_LISTING,
    Fields,
    LeaseIndex,
    encode_array,
    encode_fields,
    encode_object,
    encode_value,
    parse_asn_text,
)
from ..net import AddressError, Prefix
from ..temporal import TemporalProduct
from .reload import SnapshotManager

__all__ = [
    "LeaseQueryServer", "CACHE_ENTRY_BYTES", "DEFAULT_CACHE_SIZE", "MAX_BULK",
]

#: LRU response-cache capacity (entries) unless overridden.
DEFAULT_CACHE_SIZE = 1024

#: Encoded bytes the response cache may hold per entry of capacity
#: (8 MiB at the default capacity).  Listing bodies run to hundreds of
#: KB, so a cache bounded by entry count alone could hold hundreds of MB.
CACHE_ENTRY_BYTES = 8 << 10

#: Largest accepted ``/v1/bulk`` batch.
MAX_BULK = 256

#: Largest accepted request body (bytes).
_MAX_BODY = 1 << 20

_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _etag_of(generation: int, epoch: Optional[int] = None) -> str:
    """The strong validator: generation, plus the epoch for ``?at=``."""
    if epoch is None:
        return f'"g{generation}"'
    return f'"g{generation}@e{epoch}"'

Payload = Dict[str, object]

#: ``(generation, endpoint, decoded query text, epoch, limit)``; epoch
#: is None for live answers.
CacheKey = Tuple[int, str, str, Optional[int], Optional[int]]

#: ``(status, encoded body)``.
Answer = Tuple[int, bytes]

#: A cached value: an :data:`Answer`, or for an ``?at=`` lookup
#: ``(status, fields)``, which gains its ``at`` and ``epoch`` per request.
Cached = Tuple[int, Union[bytes, Fields]]

_T = TypeVar("_T", bytes, Fields)

#: ``(endpoint, status, body, content type, epoch)``.
Route = Tuple[str, int, bytes, str, Optional[int]]

_JSON = "application/json"

#: Query parameters each query-accepting endpoint understands; anything
#: else on the target is a 400, never silently dropped.
_ALLOWED_PARAMS = {
    "prefix": frozenset({"at"}),
    "asn": frozenset({"at", "limit"}),
    "org": frozenset({"at", "limit"}),
    "churn": frozenset({"rir"}),
}


def _parse_query(
    query: str, allowed: frozenset
) -> Tuple[Optional[Dict[str, str]], Optional[str]]:
    """Parse ``a=1&b=2`` strictly: ``(params, error)``."""
    params: Dict[str, str] = {}
    if not query:
        return params, None
    for part in query.split("&"):
        if not part:
            continue
        name, _, value = part.partition("=")
        name = unquote(name)
        if name not in allowed:
            return None, f"unknown query parameter: {name!r}"
        if name in params:
            return None, f"duplicate query parameter: {name!r}"
        params[name] = unquote(value)
    return params, None


def _parse_int_param(
    params: Dict[str, str], name: str
) -> Tuple[Optional[int], Optional[str]]:
    """A non-negative integer parameter: ``(value, error)``."""
    text = params.get(name)
    if text is None:
        return None, None
    stripped = text.strip()
    digits = stripped[1:] if stripped[:1] == "-" else stripped
    if not (digits.isascii() and digits.isdigit()):
        return None, f"{name} must be an integer, got {text!r}"
    value = int(stripped)
    if value < 0:
        return None, f"{name} must be non-negative, got {value}"
    return value, None


def _size(value: Cached) -> int:
    """The encoded bytes *value* holds."""
    body = value[1]
    if isinstance(body, bytes):
        return len(body)
    return sum(len(encoded) for encoded in body.values())


class ResponseCache:
    """A bounded LRU over encoded lookup answers.

    ``bytes`` is the sum of the cached bodies' lengths (of the encoded
    fields' lengths for ``?at=`` entries).  Least recently used entries
    are evicted while there are more than ``capacity`` of them or they
    hold more than ``max_bytes`` (``capacity`` × :data:`CACHE_ENTRY_BYTES`);
    a value larger than ``max_bytes`` on its own is not cached at all.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, capacity)
        self.max_bytes = self.capacity * CACHE_ENTRY_BYTES
        self._entries: "OrderedDict[CacheKey, Cached]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    def get(self, key: CacheKey) -> Optional[Cached]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, value: Cached) -> None:
        size = _size(value)
        if self.capacity == 0 or size > self.max_bytes:
            return
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self.bytes -= _size(replaced)
        self._entries[key] = value
        self.bytes += size
        while len(self._entries) > self.capacity or self.bytes > self.max_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self.bytes -= _size(evicted)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Payload:
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


class EndpointCounters:
    """Request / error / latency tallies per logical endpoint."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[str, float]] = {}

    def observe(self, endpoint: str, status: int, elapsed_s: float) -> None:
        entry = self._counters.setdefault(
            endpoint,
            {"requests": 0, "errors": 0, "total_s": 0.0, "max_s": 0.0},
        )
        entry["requests"] += 1
        if status >= 400:
            entry["errors"] += 1
        entry["total_s"] += elapsed_s
        entry["max_s"] = max(entry["max_s"], elapsed_s)

    def as_dict(self) -> Dict[str, Payload]:
        result: Dict[str, Payload] = {}
        for endpoint in sorted(self._counters):
            entry = self._counters[endpoint]
            result[endpoint] = {
                "requests": int(entry["requests"]),
                "errors": int(entry["errors"]),
                "total_ms": round(entry["total_s"] * 1000.0, 3),
                "max_ms": round(entry["max_s"] * 1000.0, 3),
            }
        return result


class LeaseQueryServer:
    """Serves :class:`LeaseIndex` snapshots over HTTP/1.1 (keep-alive)."""

    def __init__(
        self,
        manager: SnapshotManager,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = DEFAULT_CACHE_SIZE,
        temporal: Optional[TemporalProduct] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.temporal = temporal
        self.cache = ResponseCache(cache_size)
        self.counters = EndpointCounters()
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        #: Test hook: when positive, every request sleeps this long
        #: *after* capturing its snapshot — lets tests land a hot-swap
        #: mid-flight deterministically.
        self._snapshot_hold_s = 0.0

    # -- lifecycle (caller's event loop) -----------------------------------
    async def start_async(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        # Startup-only write: runs once before the listening socket
        # exists, so no handler can race it.
        # repro-check: ignore[RC115] -- startup-only write, before any handler
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        # Startup-only write: the address is published exactly once,
        # before serving begins.
        # repro-check: ignore[RC115] -- startup-only write, published once
        self._address = (sockname[0], sockname[1])
        return self._address

    async def run_async(self) -> None:
        """Bind (if needed) and serve until cancelled (``repro serve``)."""
        if self._server is None:
            await self.start_async()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- lifecycle (background thread) -------------------------------------
    def start(self) -> "LeaseQueryServer":
        """Serve on a daemon thread with its own loop; returns self."""
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        self._started.wait(timeout=10)
        if not self._started.is_set():  # pragma: no cover - defensive
            raise RuntimeError("lease query server failed to start")
        return self

    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        loop.run_until_complete(self.start_async())
        self._started.set()
        try:
            loop.run_forever()
        finally:
            assert self._server is not None
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        """Stop the background thread's loop and join it."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._thread = None
            self._loop = None

    def __enter__(self) -> "LeaseQueryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    # -- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                try:
                    status, payload, content_type, validator = (
                        await self._dispatch(method, target, headers, body)
                    )
                except Exception:  # noqa: BLE001 - request must get an answer
                    status = 500
                    payload = json.dumps(
                        {"error": "internal server error"}
                    ).encode("utf-8")
                    content_type = "application/json"
                    validator = None
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                extra_headers: Dict[str, str] = {}
                if validator is not None:
                    generation, epoch = validator
                    extra_headers["ETag"] = _etag_of(generation, epoch)
                    extra_headers["X-Generation"] = str(generation)
                    if epoch is not None:
                        extra_headers["X-Epoch"] = str(epoch)
                await self._write_response(
                    writer, status, payload, content_type, keep_alive,
                    extra_headers,
                )
                if not keep_alive:
                    break
        # repro-check: ignore[RC106] -- client hangups are routine, not errors
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # the peer is gone; nothing to answer, nothing to log
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            # repro-check: ignore[RC106] -- close-time resets are expected
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """One parsed request, or None at end-of-stream."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return "GET", "/__malformed__", {"connection": "close"}, b""
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            header_line = await reader.readline()
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        length = (
            int(length_text)
            if length_text.isascii() and length_text.isdigit()
            else 0
        )
        if length:
            if length > _MAX_BODY:
                return method, "/__too_large__", {"connection": "close"}, b""
            body = await reader.readexactly(length)
        return method, target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {connection}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, bytes, str, Tuple[int, Optional[int]]]:
        """Route one request: ``(status, body, content type, validator)``.

        The snapshot — and with it the generation stamped into the
        ``ETag``/``X-Generation`` headers — is captured exactly once per
        request, so a delta apply landing mid-flight never tears an
        answer.  The returned validator is ``(generation, epoch)``;
        epoch is None except for ``?at=`` answers, where it joins the
        ETag as ``"g{gen}@e{epoch}"``.  A conditional GET whose
        ``If-None-Match`` names the current validator short-circuits to
        an empty 304 after routing resolved a cacheable 200.
        """
        started = time.perf_counter()
        generation, index = self.manager.snapshot()
        if self._snapshot_hold_s > 0:
            await asyncio.sleep(self._snapshot_hold_s)
        path, _, query = target.partition("?")
        endpoint, status, rendered, content_type, epoch = self._route(
            method, path, query, body, generation, index
        )
        if (
            method == "GET"
            and status == 200
            and headers.get("if-none-match") == _etag_of(generation, epoch)
        ):
            status = 304
            rendered = b""
            content_type = _JSON
        self.counters.observe(
            endpoint, status, time.perf_counter() - started
        )
        return status, rendered, content_type, (generation, epoch)

    def _route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        generation: int,
        index: LeaseIndex,
    ) -> Route:
        """``(endpoint, status, body, content type, epoch)`` for a target."""
        if path == "/__malformed__":
            return self._error("other", 400, "malformed request line")
        if path == "/__too_large__":
            return self._error("other", 413, "request body too large")
        if path == "/healthz":
            if method != "GET":
                return self._error("health", 405, "use GET")
            payload = {"status": "ok", "generation": generation}
            return "health", 200, encode_value(payload), _JSON, None
        if path == "/metrics":
            text = self._render_metrics(generation, index)
            return (
                "metrics", 200, text.encode("utf-8"),
                "text/plain; version=0.0.4", None,
            )
        if path == "/v1/stats":
            payload = self._render_stats(generation, index)
            return "stats", 200, encode_value(payload), _JSON, None
        if path == "/v1/churn":
            status, payload = self._answer_churn(generation, query)
            return "churn", status, encode_value(payload), _JSON, None
        if path.startswith("/v1/prefix/") and path.endswith("/history"):
            text = unquote(path[len("/v1/prefix/"):-len("/history")])
            if query:
                return self._error(
                    "history", 400, "history takes no query parameters",
                    generation,
                )
            status, rendered = self._cached(
                (generation, "history", text, None, None),
                lambda: self._answer_history(generation, text),
            )
            return "history", status, rendered, _JSON, None
        if path.startswith("/v1/prefix/"):
            text = unquote(path[len("/v1/prefix/"):])
            return self._lookup(
                "prefix", text, query, generation, index,
                lambda view, _limit: self._answer_prefix(
                    view, generation, text
                ),
            )
        if path.startswith("/v1/asn/"):
            text = unquote(path[len("/v1/asn/"):])
            return self._lookup(
                "asn", text, query, generation, index,
                lambda view, limit: self._answer_asn(
                    view, generation, text, limit
                ),
            )
        if path.startswith("/v1/org/"):
            text = unquote(path[len("/v1/org/"):])
            return self._lookup(
                "org", text, query, generation, index,
                lambda view, limit: self._answer_org(
                    view, generation, text, limit
                ),
            )
        if path == "/v1/bulk":
            if method != "POST":
                return self._error("bulk", 405, "use POST")
            if query:
                return self._error(
                    "bulk", 400, "bulk takes no query parameters", generation
                )
            status, rendered = self._answer_bulk(index, generation, body)
            return "bulk", status, rendered, _JSON, None
        return self._error("other", 404, f"no such endpoint: {path}")

    @staticmethod
    def _error(
        endpoint: str,
        status: int,
        message: str,
        generation: Optional[int] = None,
    ) -> Route:
        """A routed JSON error, naming the generation when given."""
        payload: Payload = {"error": message}
        if generation is not None:
            payload["generation"] = generation
        return endpoint, status, encode_value(payload), _JSON, None

    def _lookup(
        self,
        endpoint: str,
        text: str,
        query: str,
        generation: int,
        index: LeaseIndex,
        answer: Callable[[LeaseIndex, Optional[int]], Tuple[int, Fields]],
    ) -> Route:
        """One validated live-or-historical lookup on an index endpoint.

        Validates the query parameters strictly (unknown name, bad
        integer, out-of-range value → 400), resolves ``?at=`` to an
        epoch view when given, and serves the encoded body through the
        LRU under a key that includes the validated parameters.  An
        ``?at=`` answer is cached per epoch, as fields, and gains ``at``
        and the resolved ``epoch`` per request.
        """
        params, error = _parse_query(query, _ALLOWED_PARAMS[endpoint])
        if params is None:
            assert error is not None
            return self._error(endpoint, 400, error, generation)
        at, error = _parse_int_param(params, "at")
        if error is not None:
            return self._error(endpoint, 400, error, generation)
        limit, error = _parse_int_param(params, "limit")
        if error is not None:
            return self._error(endpoint, 400, error, generation)
        if limit is not None and not 1 <= limit <= MAX_LISTING:
            return self._error(
                endpoint, 400,
                f"limit must be between 1 and {MAX_LISTING}, got {limit}",
                generation,
            )
        view = index
        epoch: Optional[int] = None
        if at is not None:
            if self.temporal is None:
                return self._error(
                    endpoint, 400,
                    "no temporal history mounted; ?at= unavailable",
                    generation,
                )
            located = self.temporal.index.index_at(at)
            if located is None:
                first = self.temporal.epoch_timestamps()[0]
                return self._error(
                    endpoint, 400,
                    f"at={at} precedes recorded history "
                    f"(first epoch at {first})",
                    generation,
                )
            epoch, view = located

        key = (generation, endpoint, text, epoch, limit)
        if epoch is None:
            status, rendered = self._rendered(key, lambda: answer(view, limit))
            return endpoint, status, rendered, _JSON, None
        status, fields = self._cached(key, lambda: answer(view, limit))
        rendered = encode_object(
            dict(fields, at=encode_value(at), epoch=encode_value(epoch))
        )
        return endpoint, status, rendered, _JSON, epoch

    def _cached(
        self, key: CacheKey, compute: Callable[[], Tuple[int, _T]]
    ) -> Tuple[int, _T]:
        hit = self.cache.get(key)
        if hit is not None:
            return cast(Tuple[int, _T], hit)
        value = compute()
        self.cache.put(key, value)
        return value

    def _rendered(
        self, key: CacheKey, answer: Callable[[], Tuple[int, Fields]]
    ) -> Answer:
        """A live lookup's body: *answer*'s fields joined once, cached."""

        def render() -> Answer:
            status, fields = answer()
            return status, encode_object(fields)

        return self._cached(key, render)

    # -- endpoint answers ----------------------------------------------------
    def _answer_prefix(
        self, index: LeaseIndex, generation: int, text: str
    ) -> Tuple[int, Fields]:
        status, fields = index.resolve_text(text)
        fields["generation"] = encode_value(generation)
        return status, fields

    def _answer_asn(
        self,
        index: LeaseIndex,
        generation: int,
        text: str,
        limit: Optional[int] = None,
    ) -> Tuple[int, Fields]:
        asn = parse_asn_text(text)
        if asn is None:
            return 400, encode_fields({"error": f"bad ASN: {text!r}",
                                       "generation": generation})
        listing = index.by_asn(asn, limit=limit)
        if listing is None:
            return 404, encode_fields({
                "error": "AS originates no classified leaf",
                "asn": asn,
                "generation": generation,
            })
        listing["generation"] = encode_value(generation)
        return 200, listing

    def _answer_org(
        self,
        index: LeaseIndex,
        generation: int,
        text: str,
        limit: Optional[int] = None,
    ) -> Tuple[int, Fields]:
        if not text.strip():
            return 400, encode_fields({"error": "empty organisation handle",
                                       "generation": generation})
        listing = index.by_org(text, limit=limit)
        if listing is None:
            return 404, encode_fields({
                "error": "organisation holds no classified leaf",
                "org": text,
                "generation": generation,
            })
        listing["generation"] = encode_value(generation)
        return 200, listing

    def _answer_bulk(
        self, index: LeaseIndex, generation: int, body: bytes
    ) -> Answer:
        """``POST /v1/bulk``: each item shares its ``GET`` cache entry."""
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return 400, encode_value({"error": "body is not valid JSON"})
        prefixes = parsed.get("prefixes") if isinstance(parsed, dict) else None
        if not isinstance(prefixes, list) or not all(
            isinstance(item, str) for item in prefixes
        ):
            return 400, encode_value({
                "error": 'expected {"prefixes": ["a.b.c.d/len", ...]}'
            })
        if len(prefixes) > MAX_BULK:
            return 413, encode_value({
                "error": f"at most {MAX_BULK} prefixes per bulk call",
                "got": len(prefixes),
            })
        results = []
        for text in prefixes:
            status, rendered = self._rendered(
                (generation, "prefix", text, None, None),
                lambda t=text: self._answer_prefix(index, generation, t),
            )
            results.append(encode_object({
                "result": rendered, "status": encode_value(status),
            }))
        return 200, encode_object({
            "generation": encode_value(generation),
            "results": encode_array(results),
        })

    def _answer_history(self, generation: int, text: str) -> Answer:
        """``/v1/prefix/{p}/history``: the prefix's lease timeline."""
        if self.temporal is None:
            return 400, encode_value({"error": "no temporal history mounted",
                                      "generation": generation})
        try:
            prefix = Prefix.parse(text)
        except AddressError:
            return 400, encode_value({"error": f"bad prefix: {text!r}",
                                      "generation": generation})
        payload = self.temporal.timelines.history_payload(prefix)
        if payload is None:
            return 404, encode_value({
                "error": "no timeline tracked for prefix",
                "query": str(prefix),
                "generation": generation,
            })
        payload["generation"] = generation
        return 200, encode_value(payload)

    def _answer_churn(
        self, generation: int, query: str
    ) -> Tuple[int, Payload]:
        """``/v1/churn[?rir=]``: per-RIR lease-churn tallies."""
        if self.temporal is None:
            return 400, {"error": "no temporal history mounted",
                         "generation": generation}
        params, error = _parse_query(query, _ALLOWED_PARAMS["churn"])
        if params is None:
            assert error is not None
            return 400, {"error": error, "generation": generation}
        rir = params.get("rir")
        if rir is not None and not rir.strip():
            return 400, {"error": "empty rir parameter",
                         "generation": generation}
        payload = self.temporal.timelines.churn_payload(rir)
        if payload is None:
            return 404, {
                "error": f"no timelines for RIR {rir!r}",
                "rirs": self.temporal.timelines.rirs(),
                "generation": generation,
            }
        payload["generation"] = generation
        return 200, payload

    # -- observability -------------------------------------------------------
    def _render_stats(self, generation: int, index: LeaseIndex) -> Payload:
        payload: Payload = {
            "generation": generation,
            "snapshot": index.stats(),
            "cache": self.cache.stats(),
            "endpoints": self.counters.as_dict(),
        }
        if self.temporal is not None:
            payload["temporal"] = self.temporal.stats()
        return payload

    def _render_metrics(self, generation: int, index: LeaseIndex) -> str:
        lines = [
            f"repro_serve_generation {generation}",
            f"repro_serve_snapshot_leaves {len(index)}",
            f"repro_serve_cache_hits_total {self.cache.hits}",
            f"repro_serve_cache_misses_total {self.cache.misses}",
            f"repro_serve_cache_evictions_total {self.cache.evictions}",
            f"repro_serve_cache_bytes {self.cache.bytes}",
        ]
        if self.temporal is not None:
            lines.append(
                f"repro_serve_temporal_epochs {self.temporal.epochs}"
            )
        for endpoint, entry in self.counters.as_dict().items():
            label = f'{{endpoint="{endpoint}"}}'
            lines.append(
                f"repro_serve_requests_total{label} {entry['requests']}"
            )
            lines.append(
                f"repro_serve_request_errors_total{label} {entry['errors']}"
            )
            lines.append(
                f"repro_serve_request_ms_total{label} {entry['total_ms']}"
            )
        return "\n".join(lines) + "\n"

