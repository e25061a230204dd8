"""Streaming worker telemetry: live progress out-of-band of results.

A long ``repro-experiments --all --jobs N`` suite (or a chaos matrix)
is a black box while it runs: the persistent pool executes cells in
worker processes and nothing surfaces until a whole batch returns.
This module adds a **strictly out-of-band** side channel:

* a :class:`TelemetryChannel` wraps a ``multiprocessing.Manager``
  queue proxy — unlike a plain ``multiprocessing.Queue``, a manager
  proxy pickles, so it can ride as the ``telemetry`` field of the
  :class:`~repro.bench.harness.RunOptions` every executor submission
  carries, into pool workers that were forked long before the channel
  existed;
* workers emit small dict events — cell started (with the expected op
  count), periodic progress (phase, ops done of expected), cell
  finished, chaos case started/finished — via fire-and-forget
  :meth:`TelemetryChannel.emit` calls that swallow every transport
  error (a telemetry hiccup must never fail a measurement);
* a session-side :class:`ProgressAggregator` daemon thread drains the
  queue, tracks per-cell state, and renders a live status line
  (active cells, phase, percent done, aggregate ops/s, ETA) to stderr.

Nothing in this path touches result payloads: events carry wall-clock
timestamps and progress counts only, the renderer writes to stderr,
and the measured system never blocks on the channel — so figure JSON
stays byte-identical with the channel attached at any ``--jobs``
(``check_golden_figures.py --with-telemetry`` pins this down).
"""

from __future__ import annotations

import contextlib
import queue as queue_mod
import sys
import threading
import time

#: Default operations between progress events — coarse enough that a
#: quick-effort cell emits ~a dozen events, fine enough for a live bar.
DEFAULT_EVERY_OPS = 2_000


class TelemetryChannel:
    """A picklable, fire-and-forget event channel into the session.

    Built by :func:`open_channel` in the session process; travels into
    workers as :attr:`RunOptions.telemetry
    <repro.bench.harness.RunOptions.telemetry>`.  ``emit``
    never raises and never blocks the measured workload: any transport
    failure (manager gone, queue full, interpreter shutdown) drops the
    event silently — telemetry is advisory by design.
    """

    def __init__(self, queue, every_ops: int = DEFAULT_EVERY_OPS,
                 manager=None) -> None:
        self.queue = queue
        self.every_ops = max(1, int(every_ops))
        # The manager handle stays session-side only (workers get the
        # picklable queue proxy); it keeps the server process alive.
        self._manager = manager

    def __getstate__(self):
        # Only manager proxies survive pickling; the in-process fallback
        # queue travels as None, so worker-side emits become no-ops
        # instead of poisoning the chunk submission with a pickle error.
        queue = self.queue
        try:
            from multiprocessing.managers import BaseProxy

            if not isinstance(queue, BaseProxy):
                queue = None
        except Exception:
            queue = None
        return {"queue": queue, "every_ops": self.every_ops}

    def __setstate__(self, state):
        self.queue = state["queue"]
        self.every_ops = state["every_ops"]
        self._manager = None

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Send one event; failures are swallowed (advisory channel)."""
        if self.queue is None:
            return
        event = {"kind": kind, "ts": time.time(), **fields}
        try:
            self.queue.put_nowait(event)
        except Exception:
            pass

    def progress_callback(self, label: str):
        """A harness-compatible ``progress(phase, done, total)`` hook."""
        def progress(phase: str, done: int, total: int) -> None:
            self.emit("progress", cell=label, phase=phase, done=done,
                      total=total)
        return progress

    def close(self) -> None:
        """Shut the manager down (session side, after the aggregator)."""
        manager = self._manager
        self._manager = None
        if manager is not None:
            try:
                manager.shutdown()
            except Exception:
                pass


def open_channel(every_ops: int = DEFAULT_EVERY_OPS) -> TelemetryChannel:
    """Create a channel whose queue crosses process boundaries.

    A ``multiprocessing.Manager`` queue proxy is used because proxies
    pickle (plain ``mp.Queue`` objects may only be inherited, which a
    persistent pool forked earlier cannot do).  Where the manager
    cannot start (restricted sandboxes without semaphores), the channel
    degrades to an in-process ``queue.Queue`` — live progress then
    covers only same-process work, and worker events are dropped by
    ``emit``'s catch-all, never raised.
    """
    manager = None
    try:
        import multiprocessing

        manager = multiprocessing.Manager()
        channel_queue = manager.Queue()
    except Exception:
        manager = None
        channel_queue = queue_mod.Queue()
    return TelemetryChannel(channel_queue, every_ops, manager=manager)


class ProgressAggregator:
    """Session-side consumer: drains the channel, renders live progress.

    One daemon thread polls the queue; per-cell state (phase, ops done
    of expected) feeds a single status line rewritten at most every
    ``render_interval`` seconds.  All output goes to ``stream``
    (default stderr) so stdout stays reserved for tables and JSON.
    """

    _SENTINEL = {"kind": "__stop__"}

    def __init__(self, channel: TelemetryChannel, stream=None,
                 render_interval: float = 0.5) -> None:
        self.channel = channel
        self.stream = stream if stream is not None else sys.stderr
        self.render_interval = render_interval
        self.cells: dict[str, dict] = {}
        self.cases_done = 0
        self.cases_total = 0
        self.events_seen = 0
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._last_render = 0.0
        self._started = 0.0
        self._rendered = False

    # ------------------------------------------------------------------
    def start(self) -> "ProgressAggregator":
        self._started = time.time()
        self._thread = threading.Thread(
            target=self._drain, name="telemetry-aggregator", daemon=True)
        self._thread.start()
        return self

    def stop(self, final_line: bool = True) -> None:
        """Stop draining; optionally print a final summary line."""
        thread = self._thread
        if thread is None:
            return
        self.channel.emit("__stop__")
        thread.join(timeout=5.0)
        self._thread = None
        self.clear_line()
        if final_line:
            try:
                print(self.render_summary(), file=self.stream)
            except Exception:
                pass

    def clear_line(self) -> None:
        """Blank the in-place status line (idempotent, never raises).

        The live renderer rewrites one ``\\r``-anchored line; anything
        the session prints afterwards — a traceback, a
        KeyboardInterrupt notice, the final summary — would otherwise
        land on top of stale progress text.
        """
        if not self._rendered:
            return
        self._rendered = False
        try:
            print(f"\r{'':<100}\r", end="", file=self.stream, flush=True)
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        # The finally guarantees the status line is wiped even when the
        # drain dies mid-run (KeyboardInterrupt in the main thread tears
        # down the manager queue and get() starts raising, or _apply
        # trips on a malformed event) — stderr must be left clean for
        # whatever error output follows.
        try:
            while True:
                try:
                    event = self.channel.queue.get(timeout=0.25)
                except (KeyboardInterrupt, SystemExit):
                    return
                except Exception:
                    event = None
                if event is not None:
                    if event.get("kind") == "__stop__":
                        return
                    self._apply(event)
                now = time.time()
                if now - self._last_render >= self.render_interval:
                    self._last_render = now
                    self._render(now)
        finally:
            self.clear_line()

    def _apply(self, event: dict) -> None:
        kind = event.get("kind")
        with self._lock:
            self.events_seen += 1
            if kind == "cell_start":
                self.cells[event["cell"]] = {
                    "phase": "start",
                    "done": 0,
                    "total": event.get("expected_ops", 0),
                    "started": event.get("ts", time.time()),
                    "finished": None,
                }
            elif kind == "progress":
                state = self.cells.setdefault(event["cell"], {
                    "phase": "?", "done": 0, "total": 0,
                    "started": event.get("ts", time.time()),
                    "finished": None,
                })
                state["phase"] = event.get("phase", "?")
                # Progress counts are per-phase; expose warmup+measure
                # position against the cell's whole op envelope.
                done = event.get("done", 0)
                if state["phase"] == "measure":
                    done += state.get("warmup_ops", 0)
                else:
                    state["warmup_ops"] = max(
                        state.get("warmup_ops", 0), done)
                state["done"] = max(state["done"], done)
            elif kind == "cell_end":
                state = self.cells.setdefault(event["cell"], {
                    "phase": "done", "done": 0, "total": 0,
                    "started": event.get("ts", time.time()),
                    "finished": None,
                })
                state["phase"] = "done"
                state["finished"] = event.get("ts", time.time())
                if event.get("operations"):
                    state["done"] = state["total"] = event["operations"]
                elif state["total"]:
                    state["done"] = state["total"]
            elif kind == "case_start":
                self.cases_total += 1
            elif kind == "case_end":
                self.cases_done += 1

    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[list[tuple[str, dict]], int, int, int]:
        with self._lock:
            cells = [(label, dict(state))
                     for label, state in self.cells.items()]
            return cells, self.cases_done, self.cases_total, self.events_seen

    def render_line(self, now: float | None = None) -> str:
        """The current one-line status (also used by tests)."""
        now = now if now is not None else time.time()
        cells, cases_done, cases_total, _ = self._snapshot()
        active = [(label, s) for label, s in cells if s["phase"] != "done"]
        done = len(cells) - len(active)
        ops_done = sum(s["done"] for _, s in cells)
        elapsed = max(now - self._started, 1e-9)
        rate = ops_done / elapsed
        parts = [f"live: {len(active)} running, {done} cells done"]
        if active:
            label, state = active[0]
            total = state["total"]
            pct = f" {100.0 * state['done'] / total:.0f}%" if total else ""
            parts.append(f"[{label} {state['phase']}{pct}]")
        if ops_done:
            parts.append(f"{rate:,.0f} ops/s")
            remaining = sum(
                max(s["total"] - s["done"], 0) for _, s in active)
            if remaining and rate > 0:
                parts.append(f"ETA {remaining / rate:.0f}s")
        if cases_total:
            parts.append(f"chaos {cases_done}/{cases_total} cases")
        return "  ".join(parts)

    def _render(self, now: float) -> None:
        try:
            print(f"\r{self.render_line(now):<100}", end="",
                  file=self.stream, flush=True)
            self._rendered = True
        except Exception:
            pass

    def render_summary(self) -> str:
        """A final plain line once the run is over."""
        cells, cases_done, cases_total, events = self._snapshot()
        ops = sum(s["done"] for _, s in cells)
        elapsed = max(time.time() - self._started, 1e-9)
        line = (f"\rtelemetry: {len(cells)} cell(s), {ops:,} ops observed, "
                f"{events} event(s) in {elapsed:.1f}s")
        if cases_total:
            line += f", {cases_done}/{cases_total} chaos cases"
        return line

    def summary(self) -> dict:
        """JSON-able aggregate of everything the channel delivered."""
        cells, cases_done, cases_total, events = self._snapshot()
        return {
            "cells_seen": len(cells),
            "cells_finished": sum(
                1 for _, s in cells if s["phase"] == "done"),
            "ops_observed": sum(s["done"] for _, s in cells),
            "events_seen": events,
            "cases_done": cases_done,
            "cases_total": cases_total,
        }


@contextlib.contextmanager
def live_telemetry(stream=None):
    """Open a channel and drain it for the scope's lifetime.

    Yields ``(channel, aggregator)`` with the aggregator already
    draining (rendering to ``stream``, default stderr).  On exit — an
    exception included — the aggregator stops first, which wipes the
    status line and prints its summary, and only then does the channel
    shut its manager down.  Callers scope
    ``run_options(telemetry=channel)`` inside.
    """
    channel = open_channel()
    aggregator = ProgressAggregator(channel, stream=stream).start()
    try:
        yield channel, aggregator
    finally:
        aggregator.stop()
        channel.close()
