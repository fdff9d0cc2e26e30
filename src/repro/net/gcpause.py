"""Pausing the cyclic garbage collector while acyclic data is built in bulk.

Building a world, writing or loading its datasets, and building the
analysis context or the lease index each allocate hundreds of thousands
of long-lived objects that never form reference cycles, yet those
allocations set off hundreds of collections, and every full one walks
the whole heap built so far.  Reference counting still frees everything
acyclic while the collector is off, and the first collection after the
pause picks up any cycles the build left.

The collector is process-wide, so the guard is one shared object: a
depth count under a lock turns the collector back on only when the last
of several nested or concurrent builds ends, and only if it was on when
the first began.
"""

from __future__ import annotations

import gc
import threading
from contextlib import ContextDecorator
from typing import Any

__all__ = ["gc_paused"]


class _CollectorPause(ContextDecorator):
    """Context manager and decorator: no cyclic collection while held."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


#: ``with gc_paused:`` or ``@gc_paused`` around a bulk build.
gc_paused = _CollectorPause()
