"""Live progress: a batch counted as the parent sees it finish.

A long ``repro-experiments --all --jobs N`` suite (or a chaos matrix)
is one executor batch, and every result in it comes back to the
parent.  ``--live`` watches that: a :class:`ProgressLine` is the
executor's :func:`~repro.bench.executor.progress_sink`, told
``begin(items, weight)`` once per batch and ``advance(items, weight)``
as results arrive — after each item serially, as each chunk's future
completes on the pool.  It reports from counters it already holds
(sysbench's ``report_intermediate`` idiom): nothing crosses a process
boundary and nothing runs in a worker, so result bytes cannot move.

The line counts items — ``live: done/total done  ETA Ns`` — and
closes ``live: N/M finished in Ys``.  Its ETA is the batch's unfinished
weight at the rate finished weight has accrued: an item's ``weight`` is
its expected relative cost (a cell's warm-up plus measure ops, an
adaptive run's epochs times ops, a crash case's replay length), not a
count of one unit, so the line names no ops.  It is written in place
(``\\r``) to stderr, at most every ``render_interval`` seconds; stdout
stays reserved for tables and JSON.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

from .executor import progress_sink


class ProgressLine:
    """Counters of the batches in a scope, and the one line they render.

    ``advance`` may come from the pool's result thread, so counters and
    rendering share one lock.  Rendering never raises: a broken stream
    must not fail a measurement.
    """

    def __init__(self, stream=None, render_interval: float = 0.5) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.render_interval = render_interval
        self.batches = self.items = self.finished = 0
        self.weight = self.weight_done = 0.0
        self.started: float | None = None
        self._lock = threading.Lock()
        self._last_render = 0.0
        self._rendered = False

    def begin(self, items: int, weight: float) -> None:
        with self._lock:
            if self.started is None:
                self.started = time.time()
            self.batches += 1
            self.items += items
            self.weight += weight
            self._render(force=True)

    def advance(self, items: int, weight: float) -> None:
        with self._lock:
            self.finished += items
            self.weight_done += weight
            self._render(force=False)

    def render_line(self, now: float | None = None) -> str:
        """Done of total, and the whole batch's ETA."""
        line = f"live: {self.finished}/{self.items} done"
        if not self.weight_done:
            return line
        rate = self.weight_done / self._elapsed(now)
        return f"{line}  ETA {(self.weight - self.weight_done) / rate:.0f}s"

    def closing_line(self) -> str:
        return (f"live: {self.finished}/{self.items} finished in "
                f"{self._elapsed():.1f}s")

    def summary(self) -> dict:
        """The run summary's ``telemetry`` block."""
        return {"batches": self.batches, "items": self.items,
                "finished": self.finished}

    def clear_line(self) -> None:
        """Blank the in-place status line (idempotent, never raises).

        Anything the session prints afterwards — a traceback, a
        KeyboardInterrupt notice, the closing line — would otherwise
        land on top of stale progress text.
        """
        if not self._rendered:
            return
        self._rendered = False
        try:
            print(f"\r{'':<100}\r", end="", file=self.stream, flush=True)
        except Exception:
            pass

    def _elapsed(self, now: float | None = None) -> float:
        now = time.time() if now is None else now
        return max(now - (self.started or now), 1e-9)

    def _render(self, force: bool) -> None:
        now = time.time()
        if not force and now - self._last_render < self.render_interval:
            return
        self._last_render = now
        try:
            print(f"\r{self.render_line(now):<100}", end="",
                  file=self.stream, flush=True)
            self._rendered = True
        except Exception:
            pass


@contextlib.contextmanager
def live_progress(stream=None):
    """Render every batch executed in the scope on one live line.

    Yields the :class:`ProgressLine`, installed as the executor's
    progress sink.  On exit — an exception included — the line is
    blanked, then the closing line printed.
    """
    line = ProgressLine(stream)
    try:
        with progress_sink(line):
            yield line
    finally:
        line.clear_line()
        try:
            print(line.closing_line(), file=line.stream)
        except Exception:
            pass
