"""Sampling page-lifecycle tracer: one page's journey through the tiers.

The tracer subscribes to the event bus and records lifecycle spans —
install, migrate up/down, evict, write-back, clean drop, flush — for a
deterministic sample of pages, each span stamped with the simulated time
read from the shared :class:`~repro.hardware.simclock.CostAccumulator`.
Sampling is a multiplicative hash of the page id (no RNG state), so the
same pages are traced on every run and across worker processes: traces
from a parallel executor merge into exactly the serial trace.

Query :meth:`~PageLifecycleTracer.journey` for one page's span list, or
:meth:`~PageLifecycleTracer.render` for a human-readable timeline::

    page 17: install@NVM +0ns -> migrate_up NVM->DRAM +12.4us -> ...

The tracer declares :data:`LIFECYCLE_EVENTS` as its ``event_interest``,
so the bus never offers it anything else — hits and direct serves, most
of the stream, cost it nothing.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ..core.events import EventType

#: Knuth's 32-bit multiplicative hash constant.
_HASH_MULT = 2654435761
_HASH_MASK = 0xFFFFFFFF

#: Event types that mark a page-lifecycle transition.
LIFECYCLE_EVENTS = frozenset({
    EventType.INSTALL,
    EventType.MIGRATE_UP,
    EventType.MIGRATE_DOWN,
    EventType.EVICT,
    EventType.WRITE_BACK,
    EventType.CLEAN_DROP,
    EventType.FLUSH,
    EventType.MINI_PAGE_PROMOTION,
})


@dataclass(frozen=True)
class TraceSpan:
    """One lifecycle transition of one traced page."""

    sim_ns: float
    event: str
    tier: str | None
    src: str | None
    dirty: bool

    def as_dict(self) -> dict:
        return {
            "sim_ns": self.sim_ns,
            "event": self.event,
            "tier": self.tier,
            "src": self.src,
            "dirty": self.dirty,
        }

    def describe(self) -> str:
        if self.src and self.tier and self.src != self.tier:
            where = f"{self.src}->{self.tier}"
        else:
            where = f"@{self.tier}" if self.tier else ""
        flag = " dirty" if self.dirty else ""
        return f"{self.event}{where}{flag} +{self.sim_ns:.0f}ns"


class PageLifecycleTracer:
    """Records lifecycle spans for a sampled fraction of pages."""

    #: The only events the bus needs to offer this subscriber.
    event_interest = LIFECYCLE_EVENTS

    def __init__(self, fraction: float = 0.01,
                 max_spans_per_page: int = 256) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.max_spans_per_page = max_spans_per_page
        #: Hash threshold: page ids whose 32-bit hash falls below it are
        #: traced.  fraction=1 traces everything, fraction=0 nothing.
        self._threshold = int(fraction * (_HASH_MASK + 1))
        #: Ring buffers: each page keeps its *last* ``max_spans_per_page``
        #: spans, so a long run's memory is bounded while the trace still
        #: shows where a page ended up.  Overwritten spans are counted in
        #: :attr:`spans_dropped` rather than silently lost.
        self._spans: dict[int, deque[TraceSpan]] = {}
        self._dropped = 0
        self._lock = threading.Lock()
        self._bus = None
        self._cost = None

    # ------------------------------------------------------------------
    def sampled(self, page_id: int) -> bool:
        """Whether ``page_id`` is in the traced sample (deterministic)."""
        return ((page_id * _HASH_MULT) & _HASH_MASK) < self._threshold

    def attach(self, bm) -> "PageLifecycleTracer":
        """Subscribe to ``bm``'s event bus and read its sim timeline."""
        self._cost = bm.hierarchy.cost
        self._bus = bm.events
        self._bus.subscribe(self)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    # ------------------------------------------------------------------
    def apply_op_batch(self, summary) -> None:
        """Bus batch path: no-op — hits are not lifecycle events."""

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        """Record one lifecycle event if its page is in the sample."""
        if ((page_id * _HASH_MULT) & _HASH_MASK) >= self._threshold:
            return
        span = TraceSpan(
            sim_ns=self._cost.total_ns if self._cost is not None else 0.0,
            event=etype.value,
            tier=tier.name if tier is not None else None,
            src=src.name if src is not None else None,
            dirty=dirty,
        )
        with self._lock:
            spans = self._spans.get(page_id)
            if spans is None:
                spans = self._spans[page_id] = deque(
                    maxlen=self.max_spans_per_page)
            if len(spans) == self.max_spans_per_page:
                self._dropped += 1
            spans.append(span)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def traced_pages(self) -> list[int]:
        with self._lock:
            return sorted(self._spans)

    def journey(self, page_id: int) -> list[TraceSpan]:
        """All recorded spans of one page, in event order."""
        with self._lock:
            return list(self._spans.get(page_id, ()))

    def render(self, page_id: int) -> str:
        """One page's journey as a one-line timeline."""
        spans = self.journey(page_id)
        if not spans:
            return f"page {page_id}: (no spans recorded)"
        return f"page {page_id}: " + " -> ".join(s.describe() for s in spans)

    def snapshot(self) -> dict:
        """JSON-able trace payload: per-page spans plus drop accounting.

        ``pages`` maps page ids (as strings) to span-dict lists — each
        list is the page's *most recent* ``max_spans_per_page`` spans;
        ``spans_dropped`` counts spans the ring buffers overwrote.
        """
        with self._lock:
            return {
                "pages": {
                    str(page_id): [span.as_dict() for span in spans]
                    for page_id, spans in sorted(self._spans.items())
                },
                "spans_dropped": self._dropped,
            }

    @property
    def spans_dropped(self) -> int:
        """Spans overwritten by per-page ring buffers so far."""
        with self._lock:
            return self._dropped

    @property
    def num_spans(self) -> int:
        with self._lock:
            return sum(len(spans) for spans in self._spans.values())
