"""Declared ``event_interest`` against the full stream.

Four subscribers declare the event types they need as
``event_interest`` and the bus filters for them.  Each test runs a
mixed seeded workload with a record-everything subscriber beside the
one under test and recomputes, from the full stream and the event types
spelled out here, what the subscriber must have produced — so a type
missing from (or added to) its declaration shows as a difference.  The
adaptive controller, once a fifth, subscribes nothing.
"""

from __future__ import annotations

import random
from collections import Counter

from conftest import EventRecorder, make_bm

from repro.bench.harness import RunConfig, WorkloadRunner
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
from repro.workloads.ycsb import YCSB_RO, YcsbWorkload

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


def test_controller_leaves_the_bus_empty():
    """The tuner's caller says how many ops an epoch runs, so the
    controller subscribes nothing, and a batched epoch's top-tier hits
    run vectorised."""
    bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER)
    controller = AdaptiveController(bm, seed=3)
    assert bm.events.num_subscribers == 0
    workload = YcsbWorkload(16 * 16, mix=YCSB_RO, seed=5)
    runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
    runner.allocate_database(workload.num_pages)
    controller.run(lambda count: runner.run_ycsb_batch(workload, count),
                   epochs=3, ops_per_epoch=200)
    assert bm.events.num_subscribers == 0
    assert bm.batch_path.fast_runs > 0


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


def test_late_subscriber_sees_every_event_from_its_first_op():
    """Publish sites skip a type nobody is offered, reading the bus at
    each op: a recorder attached after ``LATE`` ops on a bare manager
    sees exactly what an always-attached recorder sees from op ``LATE``
    on (a site that kept the bare bus's empty tuple would drop them),
    and once it detaches the bus is bare again and top-tier hits run
    vectorised."""
    late_at = 250

    def ops(bm, count, start=0):
        rng = random.Random(29)
        pages = list(range(32))
        for index in range(start + count):
            page = pages[rng.randrange(len(pages))]
            is_write = rng.random() < 0.4
            if index < start:
                continue
            if is_write:
                bm.write(page, 0, 64)
            else:
                bm.read(page)

    def build():
        bm = make_bm(dram_gb=1.0, nvm_gb=2.0, policy=SPITFIRE_EAGER)
        bm.allocate_pages(range(32))
        return bm

    always = build()
    everything = always.events.subscribe(EventRecorder())
    ops(always, OPS)
    starts = [index for index, event in enumerate(everything.events)
              if event.type in (EventType.OP_READ, EventType.OP_WRITE)]
    assert len(starts) == OPS
    expected = everything.events[starts[late_at]:]

    bm = build()
    ops(bm, late_at)
    assert bm.events.num_subscribers == 0
    late = bm.events.subscribe(EventRecorder())
    ops(bm, OPS - late_at, start=late_at)
    kinds = {event.type for event in late.events}
    assert {EventType.MISS, EventType.EVICT, EventType.INSTALL,
            EventType.MIGRATE_UP} <= kinds
    assert late.events == expected

    bm.events.unsubscribe(late)
    assert bm.events.num_subscribers == 0
    assert bm.events.batch_path_active
    runs = bm.batch_path.fast_runs
    resident = sorted(bm.resident_pages(bm.chain.top.tier))
    bm.read_batch(resident, [0] * len(resident))
    assert bm.batch_path.fast_runs == runs + 1
    assert len(late.events) == len(expected)  # nothing after the detach
