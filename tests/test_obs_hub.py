"""MetricsHub: outcome-split latencies, reconciliation, epochs, detach."""

import random
import threading

from conftest import make_bm

from repro.core.policy import SPITFIRE_EAGER, MigrationPolicy
from repro.hardware.specs import Tier
from repro.obs.hub import MISS_OUTCOME, MetricsHub, outcome_label

#: Pin-on-NVM policy: never promote to DRAM, always admit to NVM.
NVM_ONLY = MigrationPolicy(d_r=0.0, d_w=0.0, n_r=1.0, n_w=1.0,
                           name="NvmOnly")


def attached_hub(bm, **kwargs) -> MetricsHub:
    return MetricsHub(**kwargs).attach(bm)


class TestOutcomeSplit:
    def test_dram_hit(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.prime_page(Tier.DRAM, page)
        hub = attached_hub(bm)
        bm.read(page)
        hub.detach()  # finalize flushes the in-flight op
        hist = hub.registry.get("op_latency_ns",
                                {"outcome": outcome_label(Tier.DRAM)})
        assert hist.count == 1
        assert hub.registry.get("buffer_ops_total", {"kind": "read"}).value == 1
        assert hub.registry.get("tier_hits_total", {"tier": "DRAM"}).value == 1

    def test_nvm_hit(self):
        bm = make_bm(policy=NVM_ONLY)
        page = bm.allocate_page()
        bm.prime_page(Tier.NVM, page)
        hub = attached_hub(bm)
        bm.read(page)
        hub.detach()
        hist = hub.registry.get("op_latency_ns",
                                {"outcome": outcome_label(Tier.NVM)})
        assert hist.count == 1

    def test_ssd_fetch(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()  # never primed: first read misses
        hub = attached_hub(bm)
        bm.read(page)
        hub.detach()
        hist = hub.registry.get("op_latency_ns", {"outcome": MISS_OUTCOME})
        assert hist.count == 1
        assert hub.registry.get("buffer_misses_total").value == 1

    def test_miss_latency_exceeds_hit_latency(self):
        """SSD fetches cost orders of magnitude more sim time than hits."""
        bm = make_bm(policy=SPITFIRE_EAGER)
        hot = bm.allocate_page()
        cold = bm.allocate_page()
        bm.prime_page(Tier.DRAM, hot)
        hub = attached_hub(bm)
        bm.read(cold)  # miss
        bm.read(hot)  # hit
        hub.detach()
        miss = hub.registry.get("op_latency_ns", {"outcome": MISS_OUTCOME})
        hit = hub.registry.get("op_latency_ns",
                               {"outcome": outcome_label(Tier.DRAM)})
        assert miss.sum > hit.sum > 0


class TestReconciliation:
    def test_latency_count_equals_stats_ops_exactly(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(50)]
        hub = attached_hub(bm)
        rng = random.Random(7)
        for _ in range(500):
            page = pages[rng.randrange(len(pages))]
            if rng.random() < 0.5:
                bm.read(page)
            else:
                bm.write(page, 0, 64)
        hub.detach()
        assert hub.op_latency_count() == bm.stats.reads + bm.stats.writes
        reads = hub.registry.get("buffer_ops_total", {"kind": "read"}).value
        writes = hub.registry.get("buffer_ops_total", {"kind": "write"}).value
        assert reads == bm.stats.reads
        assert writes == bm.stats.writes

    def test_exact_under_threads(self):
        """Histogram counts stay exact when real threads interleave ops."""
        bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(64)]
        hub = attached_hub(bm)
        errors = []

        def worker(index):
            try:
                rng = random.Random(index)
                for _ in range(400):
                    page = pages[rng.randrange(len(pages))]
                    if rng.random() < 0.5:
                        bm.read(page)
                    else:
                        bm.write(page, 0, 64)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hub.detach()
        assert not errors
        assert hub.op_latency_count() == 1600
        assert hub.op_latency_count() == bm.stats.reads + bm.stats.writes


class TestEpochs:
    def test_epoch_gauges_sampled_and_clock_advanced(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(20)]
        # A 1µs epoch forces many samples even over a short run.
        hub = attached_hub(bm, epoch_ns=1_000.0)
        for page in pages:
            bm.read(page)
        hub.detach()
        assert hub.epochs
        first = hub.epochs[0]
        assert first["sim_ns"] > 0
        assert "DRAM" in first["tiers"]
        assert 0.0 <= first["tiers"]["DRAM"]["occupancy"] <= 1.0
        assert 0.0 <= first["tiers"]["DRAM"]["dirty_ratio"] <= 1.0
        occupancy = hub.registry.get("tier_occupancy_ratio", {"tier": "DRAM"})
        assert occupancy is not None
        # The sim clock tracked observable progress.
        assert bm.hierarchy.clock.now_ns > 0

    def test_epoch_timestamps_increase(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(30)]
        hub = attached_hub(bm, epoch_ns=1_000.0)
        for _ in range(3):
            for page in pages:
                bm.read(page)
        hub.detach()
        stamps = [epoch["sim_ns"] for epoch in hub.epochs]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


class TestLifecycle:
    def test_detach_restores_bus_exactly(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        baseline = bm.events.num_subscribers
        hub = attached_hub(bm)
        assert bm.events.num_subscribers == baseline + 1
        assert bm.events.is_subscribed(hub)
        hub.detach()
        assert bm.events.num_subscribers == baseline
        assert not bm.events.is_subscribed(hub)

    def test_double_attach_rejected(self):
        import pytest

        bm = make_bm(policy=SPITFIRE_EAGER)
        hub = attached_hub(bm)
        with pytest.raises(RuntimeError):
            hub.attach(bm)
        hub.detach()

    def test_detach_idempotent(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        hub = attached_hub(bm)
        hub.detach()
        hub.detach()  # no-op, no error

    def test_finalize_without_attach_is_noop(self):
        MetricsHub().finalize()

    def test_traffic_counters_match_buffer_stats(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(60)]
        hub = attached_hub(bm)
        rng = random.Random(11)
        for _ in range(400):
            bm.read(pages[rng.randrange(len(pages))])
        hub.detach()
        dram_hits = hub.registry.get("tier_hits_total", {"tier": "DRAM"})
        nvm_hits = hub.registry.get("tier_hits_total", {"tier": "NVM"})
        assert dram_hits.value == bm.stats.dram_hits
        assert nvm_hits.value == bm.stats.nvm_hits
        misses = hub.registry.get("buffer_misses_total")
        assert misses.value == bm.stats.ssd_fetches

    def test_snapshot_shape(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        hub = attached_hub(bm)
        bm.read(page)
        hub.detach()
        snap = hub.snapshot()
        assert set(snap) == {"registry", "epochs"}
        assert any(entry["name"] == "op_latency_ns"
                   for entry in snap["registry"].values())
