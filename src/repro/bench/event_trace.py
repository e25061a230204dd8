"""Bench-side event-trace reporter.

Subscribes to a buffer manager's :class:`~repro.core.events.EventBus`
and aggregates the run's traffic into per-edge counts — ``hit@DRAM``,
``migrate_up NVM→DRAM``, ``write_back NVM→SSD``, and so on.  Unlike the
legacy :class:`~repro.core.stats.BufferStats` counters (whose field
names hard-code the paper's three tiers), the trace is tier-generic: a
four-tier DRAM→CXL→NVM→SSD chain shows its CXL edges without any new
counter fields.
"""

from __future__ import annotations


class EventTraceRecorder:
    """Aggregates buffer events into ``{edge-label: count}``.

    Attach one to a buffer manager before a run::

        trace = EventTraceRecorder().attach(bm)
        ... run the workload ...
        print(trace.report())

    The recorder is cheap (one dict increment per event), so it can stay
    attached for a whole benchmark.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self._bus = None

    # ------------------------------------------------------------------
    def apply_op_batch(self, summary) -> None:
        """Bus batch path: bulk-add the counts of a fast-path run.

        Mirrors ``summary.count`` per-op sequences of
        OP_READ → HIT@tier [→ DIRECT_READ@tier].
        """
        count = summary.count
        counts = self.counts
        tier_name = summary.tier.name
        counts["op_read"] = counts.get("op_read", 0) + count
        hit_key = f"hit@{tier_name}"
        counts[hit_key] = counts.get(hit_key, 0) + count
        if summary.direct:
            direct_key = f"direct_read@{tier_name}"
            counts[direct_key] = counts.get(direct_key, 0) + count

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        """Count one event under its edge label."""
        src_name = src.name if src is not None else None
        tier_name = tier.name if tier is not None else None
        if src_name is not None and tier_name is not None and src_name != tier_name:
            key = f"{etype.value}:{src_name}->{tier_name}"
        elif tier_name is not None:
            key = f"{etype.value}@{tier_name}"
        else:
            key = etype.value
        self.counts[key] = self.counts.get(key, 0) + 1

    def attach(self, bm) -> "EventTraceRecorder":
        """Subscribe to ``bm``'s event bus (accepts a bus directly too)."""
        bus = getattr(bm, "events", bm)
        bus.subscribe(self)
        self._bus = bus
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    def reset(self) -> None:
        self.counts.clear()

    # ------------------------------------------------------------------
    def report(self) -> dict[str, int]:
        """The trace as a plain dict, keys sorted for stable JSON output."""
        return {key: self.counts[key] for key in sorted(self.counts)}

    def total(self, event_type) -> int:
        """Sum of all edges of one event type.

        Accepts an :class:`~repro.core.events.EventType` member or its
        string value (e.g. ``"migrate_up"``).
        """
        event_type = getattr(event_type, "value", event_type)
        prefix_edge = f"{event_type}:"
        prefix_at = f"{event_type}@"
        return sum(
            count for key, count in self.counts.items()
            if key == event_type
            or key.startswith(prefix_edge)
            or key.startswith(prefix_at)
        )

    def render(self) -> str:
        """A small human-readable table for bench logs."""
        if not self.counts:
            return "(no events recorded)"
        width = max(len(key) for key in self.counts)
        return "\n".join(
            f"{key:<{width}}  {self.counts[key]:>10}"
            for key in sorted(self.counts)
        )
