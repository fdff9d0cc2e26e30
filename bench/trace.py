"""In-memory spans around calls into the program's public functions.

The benchmark never edits ``src/``: a :class:`Tracer` times a layer by
replacing the attribute its caller looks up (a module function such as
``repro.simulation.io.read_mrt``, or a class attribute such as
``AnalysisContext.build``) with a wrapper that records one span per
call, and puts every original object back in :meth:`Tracer.restore`.
A renamed attribute raises :class:`TraceError` at install time, so a
refactor in ``src/`` fails loudly instead of silently dropping a layer.

Spans nest through a stack (the program is single-threaded while it
builds), carry a run id and counters, and are written as JSON lines at
exit.  Garbage-collector pauses become ``gc.pause`` child spans of
whatever layer they interrupted, so layer self times exclude them.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

Span = Dict[str, Any]


class TraceError(RuntimeError):
    """A layer to wrap no longer exists where the tracer expects it."""


class Tracer:
    """Collects nested spans; cheap enough to leave on for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restores: List[tuple] = []
        self._gc_started: Optional[float] = None
        #: Running totals over every collection seen by :meth:`watch_gc`.
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0

    # -- spans ------------------------------------------------------------
    def _new(
        self, name: str, start: Optional[float], end: Optional[float]
    ) -> Span:
        # The dict is allocated before its id and parent are read, so a
        # collection triggered by the allocation (which appends its own
        # gc.pause span) cannot hand out the same id twice.
        span: Span = {
            "name": name, "start": start, "end": end, "run": self.run_id,
            "counters": {},
        }
        span["parent"] = self._stack[-1] if self._stack else None
        span["id"] = len(self.spans)
        self.spans.append(span)
        return span

    def open(self, name: str, start: Optional[float] = None) -> Span:
        """Start a span now (or at *start*) as a child of the open one."""
        span = self._new(name, start, None)
        self._stack.append(span["id"])
        if start is None:
            # Read the clock last: a collection during the allocations
            # above belongs to the parent, before this span began.
            span["start"] = time.perf_counter()
        return span

    def close(self, span: Span, end: Optional[float] = None) -> None:
        """End *span*, which must be the innermost open span."""
        span["end"] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped != span["id"]:
            raise TraceError(f"span {span['name']} closed out of order")

    def record(
        self, name: str, start: float, end: float, **counters: Any
    ) -> Span:
        """Add a finished span under the innermost open span."""
        span = self._new(name, start, end)
        span["counters"].update(counters)
        return span

    # -- wrapping ---------------------------------------------------------
    def wrap(
        self, owner: Any, attr: str, name: str, materialize: bool = False
    ) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        *owner* is the module or class the caller reads the name from.
        ``materialize`` drains a returned iterator inside the span, so a
        lazy parser is charged for its own work rather than its consumer.
        """
        try:
            raw = vars(owner)[attr]
        except KeyError:
            label = getattr(owner, "__name__", repr(owner))
            raise TraceError(
                f"{label}.{attr} does not exist; the layer {name!r} "
                "was renamed or moved"
            ) from None
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(
                self._timed(raw.__func__, name, materialize)
            )
        elif callable(raw):
            replacement = self._timed(raw, name, materialize)
        else:
            raise TraceError(f"{attr} of {owner!r} is not callable")
        setattr(owner, attr, replacement)
        self._restores.append((owner, attr, raw))

    def _timed(
        self, func: Callable[..., Any], name: str, materialize: bool
    ) -> Callable[..., Any]:
        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                return result
            finally:
                self.close(span)

        return timed

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._restores:
            owner, attr, raw = self._restores.pop()
            setattr(owner, attr, raw)

    # -- garbage collector -------------------------------------------------
    def watch_gc(self) -> None:
        """Time every collection: a ``gc.pause`` span inside a layer, and
        the running totals :attr:`gc_pause_s` and :attr:`gc_gen2`."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None:
            return
        ended = time.perf_counter()
        self.gc_pause_s += ended - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2 += 1
        # Only pauses inside a layer become spans; pauses while serving
        # are too many to keep and are read as the running totals.
        if self._stack:
            self.record(
                "gc.pause", self._gc_started, ended,
                generation=info["generation"], collected=info["collected"],
            )
        self._gc_started = None

    # -- output -----------------------------------------------------------
    def write_jsonl(self, path: Path, extra: Iterable[Span] = ()) -> None:
        """Write every span (plus *extra*) as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in list(self.spans) + list(extra):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[Any, List[Span]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(
            children.get(span["id"], ()), key=lambda item: item["start"]
        ):
            begin = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > begin:
                covered += end - begin
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration and total self time."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return table
