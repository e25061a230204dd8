"""Span tracing from outside: wrappers around the layers' public callables.

:func:`install` patches every target of :data:`layers.SPANS` at class or
module level with a wrapper that records one span per call — name,
start, end, and the span that caused it (the enclosing one).  The
program under test is single-threaded and its asyncio tasks only switch
at ``await``, which no wrapped callable contains, so one stack is an
exact call tree.

Per ``(parent, name)`` edge the tracer keeps calls, total and self time
(duration minus the part child spans cover) exactly, in memory; raw
spans are kept up to a cap and the overflow is counted, so a long run
cannot exhaust memory while its totals stay exact.  Everything is
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from contextlib import contextmanager

from layers import PHASES, SPANS, Span

_PHASE_RANK = {phase: rank for rank, phase in enumerate(PHASES)}


class Tracer:
    def __init__(self, raw_cap: int = 20_000) -> None:
        self.stack: list[list] = []  # frames: [name, child_total_s, span_id]
        self.edges: dict[tuple[str | None, str], list] = {}
        self.raw: list[tuple] = []
        self.raw_cap = raw_cap
        self.dropped_raw_spans = 0
        self.root_s = 0.0  # summed duration of top-level spans
        self.phase: str | None = None
        self.phase_since = 0.0
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        #: span name -> distinct receivers / return values (Span.keep).
        self.kept: dict[str, list] = {}
        self.unresolved: list[str] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _close(self, frame: list, parent: list | None, start: float,
               end: float) -> None:
        duration = end - start
        name = frame[0]
        parent_name = parent[0] if parent is not None else None
        edge = self.edges.get((parent_name, name))
        if edge is None:
            edge = self.edges[(parent_name, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[1]
        if parent is not None:
            parent[1] += duration
        else:
            self.root_s += duration
        if len(self.raw) < self.raw_cap:
            self.raw.append((frame[2], parent[2] if parent is not None else 0,
                             name, start, end))
        else:
            self.dropped_raw_spans += 1

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (root, client code)."""
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0, next(self._ids)]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._close(frame, parent, start, end)

    def _enter_phase(self, phase: str) -> bool:
        """Move to ``phase``; True when this call opened it.

        ``build`` (a new cell) always opens; ``export`` opens only
        outside a cell; the others only move a cell forward, so the op
        span that starts ``warmup`` does not end ``measure``.
        """
        current = self.phase
        if current is None:
            if phase not in ("build", "export"):
                return False
        elif phase != "build" and _PHASE_RANK[phase] <= _PHASE_RANK[current]:
            return False
        self._leave_phase()
        self.phase = phase
        return True

    def _leave_phase(self) -> None:
        now = time.perf_counter()
        if self.phase is not None:
            self.phase_s[self.phase] += now - self.phase_since
        self.phase = None
        self.phase_since = now

    def _wrap(self, fn, span: Span):
        stack = self.stack
        ids = self._ids
        clock = time.perf_counter
        close = self._close
        name = span.name
        phase = span.phase
        # The spans that bracket a phase end it on exit: a cell, and
        # the outermost export call.
        closes_phase = phase in ("build", "export")
        by_resource = {} if span.split else None
        kept = self.kept.setdefault(name, []) if span.keep else None
        keep_receiver = span.keep == "receiver"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if by_resource is not None:
                key = args[0].resource_key
                span_name = by_resource.get(key)
                if span_name is None:
                    span_name = by_resource[key] = f"{name}.{key}"
            opened = phase is not None and tracer._enter_phase(phase)
            if keep_receiver and not any(args[0] is k for k in kept):
                kept.append(args[0])
            parent = stack[-1] if stack else None
            frame = [span_name, 0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, parent, start, end)
                if opened and closes_phase:
                    tracer._leave_phase()
            if kept is not None and not keep_receiver:
                kept.append(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, spans: tuple[Span, ...] = SPANS) -> None:
        """Patch every target; unresolvable ones land in ``unresolved``."""
        for span in spans:
            for target in span.targets:
                try:
                    owner, attr, raw = _resolve(target)
                except (ImportError, AttributeError):
                    self.unresolved.append(target)
                    continue
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(raw.__func__, span))
                else:
                    patched = self._wrap(raw, span)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def span_totals(self) -> dict[str, dict]:
        """Per span name: calls and self time, summed over its edges."""
        totals: dict[str, dict] = {}
        for (_parent, name), (calls, _total, self_s) in self.edges.items():
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += self_s
        return totals

    def root_self_s(self) -> float:
        return sum(edge[2] for (parent, _name), edge in self.edges.items()
                   if parent is None)

    def as_dict(self) -> dict:
        return {
            "root_s": self.root_s,
            "root_self_s": self.root_self_s(),
            "phases_s": self.phase_s,
            "unresolved": self.unresolved,
            "dropped_raw_spans": self.dropped_raw_spans,
            "edges": [
                {"parent": parent, "name": name, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (parent, name), (calls, total, self_s)
                in sorted(self.edges.items(),
                          key=lambda item: -item[1][2])
            ],
            "raw_span_fields": ["id", "parent_id", "name", "start", "end"],
            "raw_spans": self.raw,
        }

    def write(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({**header, **self.as_dict()}, out)


def _resolve(target: str):
    """``"module:attr.path"`` -> (owner object, attribute name, raw attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)
