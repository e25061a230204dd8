"""Declared ``event_interest`` against the full stream.

Five subscribers declare the event types they need as
``event_interest`` and the bus filters for them.  Each test runs a
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
from repro.obs.hub import MetricsHub
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


def test_hub_sees_every_op_and_its_outcome():
    """The hub is offered ops and hits only, yet its latency split is
    the one the full stream implies (an op's last HIT or MISS picks its
    outcome) and its nine traffic families are the full stream's."""
    hub, stream = mixed_run(lambda bm: MetricsHub().attach(bm))
    hub.detach()
    outcomes: Counter = Counter()
    outcome = None
    expected: Counter = Counter()
    for chain_tier in ("DRAM", "NVM"):  # every tier has its series
        for family in ("tier_hits_total", "tier_installs_total",
                       "tier_evictions_total"):
            expected[family, (("tier", chain_tier),)] = 0
        expected["tier_write_backs_total", (("src", chain_tier),)] = 0
    for family in ("buffer_misses_total", "clean_drops_total",
                   "dirty_page_flushes_total"):
        expected[family, ()] = 0
    for kind in ("read", "write"):
        expected["buffer_ops_total", (("kind", kind),)] = 0
    for event in stream:
        etype, tier = event.type, name(event.tier)
        if etype in (EventType.OP_READ, EventType.OP_WRITE):
            if outcome is not None:
                outcomes[outcome] += 1
            outcome = "ssd_fetch"
            kind = "read" if etype is EventType.OP_READ else "write"
            expected["buffer_ops_total", (("kind", kind),)] += 1
        elif etype is EventType.HIT:
            outcome = f"{tier.lower()}_hit"
            expected["tier_hits_total", (("tier", tier),)] += 1
        elif etype is EventType.MISS:
            outcome = "ssd_fetch"
            expected["buffer_misses_total", ()] += 1
        elif etype is EventType.INSTALL:
            expected["tier_installs_total", (("tier", tier),)] += 1
        elif etype is EventType.EVICT:
            expected["tier_evictions_total", (("tier", tier),)] += 1
        elif etype is EventType.WRITE_BACK:
            expected["tier_write_backs_total",
                     (("src", name(event.src)),)] += 1
        elif etype in (EventType.MIGRATE_UP, EventType.MIGRATE_DOWN):
            direction = "up" if etype is EventType.MIGRATE_UP else "down"
            edge = f"{name(event.src)}->{tier}"
            expected["migrations_total",
                     (("direction", direction), ("edge", edge))] += 1
        elif etype is EventType.CLEAN_DROP:
            expected["clean_drops_total", ()] += 1
        elif etype is EventType.FLUSH:
            expected["dirty_page_flushes_total", ()] += 1
    outcomes[outcome] += 1
    families = {family for family, _ in expected}
    assert len(families) == 9
    assert all(sum(v for (f, _), v in expected.items() if f == family)
               for family in families)  # every family is exercised
    assert len(outcomes) == 3
    actual = {(series.name, tuple(sorted(series.labels.items()))):
              series.value for series in hub.registry.series()
              if series.name in families}
    assert actual == dict(expected)
    split = {series.labels["outcome"]: series.count
             for series in hub.registry.series()
             if series.name == "op_latency_ns" and series.count}
    assert split == dict(outcomes)


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
