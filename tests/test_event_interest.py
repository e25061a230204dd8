"""Declared ``event_interest`` against the full stream.

Four subscribers used to be offered every event and drop what was not
theirs in the first line of ``apply_event``; they now declare that set
as ``event_interest`` and the bus filters for them.  Each test runs a
mixed seeded workload with a record-everything subscriber beside the
one under test and recomputes, from the full stream and the event types
spelled out here, what the subscriber must have produced — so a type
missing from (or added to) its declaration shows as a difference.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import EventRecorder, make_bm

from repro.core.events import EventType
from repro.core.policy import SPITFIRE_EAGER
from repro.faults.crashpoints import (
    BoundaryProbe,
    MatrixConfig,
    build_case_engine,
    run_reference_workload,
)
from repro.obs.decisions import DecisionRecorder
from repro.obs.tracer import PageLifecycleTracer
from repro.tuning.controller import AdaptiveController

OPS = 600


def mixed_run(attach) -> tuple[object, list]:
    """600 seeded reads/writes over pools far smaller than the page set
    (hits, misses, migrations both ways, evictions, write-backs and a
    checkpoint flush every 150 ops).  ``attach(bm)`` puts the subscriber
    under test on the bus; returns it and the full recorded stream."""
    bm = make_bm(dram_gb=1.0, nvm_gb=2.0, policy=SPITFIRE_EAGER)
    everything = bm.events.subscribe(EventRecorder())
    subject = attach(bm)
    pages = [bm.allocate_page() for _ in range(32)]
    rng = random.Random(13)
    for index in range(OPS):
        page = pages[rng.randrange(len(pages))]
        if rng.random() < 0.4:
            bm.write(page, 0, 64)
        else:
            bm.read(page)
        if (index + 1) % 150 == 0:
            bm.flush_dirty_dram()
    kinds = {event.type for event in everything.events}
    assert len(kinds) >= 10, kinds  # the run really is mixed
    return subject, everything.events


def name(tier) -> str | None:
    return tier.name if tier is not None else None


def test_lifecycle_tracer_records_every_lifecycle_event():
    tracer, stream = mixed_run(lambda bm: PageLifecycleTracer(
        1.0, max_spans_per_page=10_000).attach(bm))
    lifecycle = {"install", "migrate_up", "migrate_down", "evict",
                 "write_back", "clean_drop", "flush", "mini_page_promotion"}
    expected: dict[int, list] = {}
    for event in stream:
        if event.type.value in lifecycle:
            expected.setdefault(event.page_id, []).append(
                (event.type.value, name(event.tier), name(event.src),
                 event.dirty))
    assert len(expected) > 1
    assert tracer.traced_pages() == sorted(expected)
    for page_id, spans in expected.items():
        assert [(s.event, s.tier, s.src, s.dirty)
                for s in tracer.journey(page_id)] == spans
    assert tracer.spans_dropped == 0


def test_decision_recorder_counts_every_eviction():
    recorder, stream = mixed_run(lambda bm: DecisionRecorder(1.0).attach(bm))
    expected = Counter(
        f"{name(event.tier)}/{'dirty' if event.dirty else 'clean'}"
        for event in stream if event.type is EventType.EVICT)
    assert len(expected) > 1
    assert recorder.summary()["eviction_victims"] == dict(expected)
    evictions = [span for span in recorder.spans
                 if span["kind"] == "eviction"]
    assert [span["page"] for span in evictions] == [
        event.page_id for event in stream if event.type is EventType.EVICT]


def test_controller_counts_every_operation():
    controller, stream = mixed_run(AdaptiveController)
    ops = sum(event.type in (EventType.OP_READ, EventType.OP_WRITE)
              for event in stream)
    assert controller._ops_seen == ops == OPS


def test_boundary_probe_counts_every_boundary_event():
    engine, _ = build_case_engine("SPITFIRE_EAGER", MatrixConfig())
    everything = engine.bm.events.subscribe(EventRecorder())
    probe = BoundaryProbe().install(engine)
    run_reference_workload(engine, 1, MatrixConfig())
    probe.uninstall()
    boundary = {"evict", "migrate_up", "migrate_down", "write_back", "flush"}
    expected = Counter(event.type.value for event in everything.events
                       if event.type.value in boundary)
    assert set(expected) == boundary
    counts = dict(probe.counts)
    assert counts.pop("wal_append") > 0
    assert counts == dict(expected)
