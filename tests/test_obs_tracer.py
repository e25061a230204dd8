"""Page-lifecycle tracer: deterministic sampling, journeys, rendering."""

import pytest

from conftest import make_bm

from repro.core.policy import SPITFIRE_EAGER
from repro.obs.tracer import PageLifecycleTracer, TraceSpan


class TestSampling:
    def test_fraction_bounds_validated(self):
        with pytest.raises(ValueError):
            PageLifecycleTracer(fraction=1.5)
        with pytest.raises(ValueError):
            PageLifecycleTracer(fraction=-0.1)

    def test_fraction_one_samples_everything(self):
        tracer = PageLifecycleTracer(fraction=1.0)
        assert all(tracer.sampled(page) for page in range(1000))

    def test_fraction_zero_samples_nothing(self):
        tracer = PageLifecycleTracer(fraction=0.0)
        assert not any(tracer.sampled(page) for page in range(1000))

    def test_sampling_is_deterministic_across_instances(self):
        a = PageLifecycleTracer(fraction=0.25)
        b = PageLifecycleTracer(fraction=0.25)
        sample_a = [p for p in range(5000) if a.sampled(p)]
        sample_b = [p for p in range(5000) if b.sampled(p)]
        assert sample_a == sample_b
        # The hash spreads: roughly a quarter of pages, not 0 or all.
        assert 0.15 < len(sample_a) / 5000 < 0.35

    def test_larger_fraction_is_superset(self):
        small = PageLifecycleTracer(fraction=0.1)
        large = PageLifecycleTracer(fraction=0.5)
        small_set = {p for p in range(2000) if small.sampled(p)}
        large_set = {p for p in range(2000) if large.sampled(p)}
        assert small_set <= large_set


class TestTracing:
    def run_traced(self, fraction=1.0, pages=12, **kwargs):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        tracer = PageLifecycleTracer(fraction, **kwargs).attach(bm)
        page_ids = [bm.allocate_page() for _ in range(pages)]
        for page_id in page_ids:
            bm.read(page_id)  # miss -> install somewhere
        tracer.detach()
        return bm, tracer, page_ids

    def test_journey_starts_with_install(self):
        _, tracer, page_ids = self.run_traced()
        assert tracer.traced_pages()
        for page_id in tracer.traced_pages():
            journey = tracer.journey(page_id)
            assert journey[0].event == "install"

    def test_sim_timestamps_nondecreasing_within_journey(self):
        _, tracer, _ = self.run_traced(pages=30)
        for page_id in tracer.traced_pages():
            stamps = [span.sim_ns for span in tracer.journey(page_id)]
            assert stamps == sorted(stamps)

    def test_fraction_zero_records_nothing(self):
        _, tracer, _ = self.run_traced(fraction=0.0)
        assert tracer.num_spans == 0
        assert tracer.traced_pages() == []

    def test_max_spans_per_page_caps_recording(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        tracer = PageLifecycleTracer(1.0, max_spans_per_page=2).attach(bm)
        # One hot page cycled through install/evict repeatedly by reading
        # a large working set through a tiny DRAM pool.
        page_ids = [bm.allocate_page() for _ in range(40)]
        for _ in range(3):
            for page_id in page_ids:
                bm.read(page_id)
        tracer.detach()
        assert tracer.num_spans > 0
        for page_id in tracer.traced_pages():
            assert len(tracer.journey(page_id)) <= 2

    def test_render(self):
        _, tracer, _ = self.run_traced()
        page_id = tracer.traced_pages()[0]
        line = tracer.render(page_id)
        assert line.startswith(f"page {page_id}: install")
        assert " -> " in line or line.count("install") == 1

    def test_render_untraced_page(self):
        tracer = PageLifecycleTracer(1.0)
        assert "no spans recorded" in tracer.render(999)

    def test_snapshot_uses_string_keys(self):
        import json

        _, tracer, _ = self.run_traced()
        snap = tracer.snapshot()
        assert snap["pages"]
        assert snap["spans_dropped"] == 0
        assert all(isinstance(key, str) for key in snap["pages"])
        json.dumps(snap)  # JSON-able end to end

    def test_ring_buffer_keeps_latest_spans(self):
        bm = make_bm(policy=SPITFIRE_EAGER, pages_per_gb=8)
        tracer = PageLifecycleTracer(1.0, max_spans_per_page=2).attach(bm)
        page_ids = [bm.allocate_page() for _ in range(40)]
        for _ in range(3):
            for page_id in page_ids:
                bm.read(page_id)
        tracer.detach()
        # Some page cycled through more than two lifecycle transitions,
        # so the ring overwrote its oldest spans and counted them.
        assert tracer.spans_dropped > 0
        assert tracer.snapshot()["spans_dropped"] == tracer.spans_dropped
        # A capped page keeps its *latest* spans: once more than two
        # transitions happened, "install" (always first) is gone.
        capped = [p for p in tracer.traced_pages()
                  if len(tracer.journey(p)) == 2]
        assert capped
        assert any(tracer.journey(p)[0].event != "install" for p in capped)

    def test_detach_restores_bus(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        baseline = bm.events.num_subscribers
        tracer = PageLifecycleTracer(1.0).attach(bm)
        assert bm.events.num_subscribers == baseline + 1
        assert bm.events.is_subscribed(tracer)
        tracer.detach()
        tracer.detach()  # idempotent
        assert bm.events.num_subscribers == baseline


class TestTraceSpan:
    def test_as_dict_roundtrip(self):
        span = TraceSpan(sim_ns=120.0, event="migrate_up", tier="DRAM",
                         src="NVM", dirty=False)
        assert span.as_dict() == {
            "sim_ns": 120.0, "event": "migrate_up", "tier": "DRAM",
            "src": "NVM", "dirty": False,
        }

    def test_describe_edge_and_flags(self):
        up = TraceSpan(100.0, "migrate_up", "DRAM", "NVM", False)
        assert "migrate_upNVM->DRAM" in up.describe()
        wb = TraceSpan(250.0, "write_back", "SSD", "SSD", True)
        assert "dirty" in wb.describe()
        install = TraceSpan(0.0, "install", "NVM", None, False)
        assert "install@NVM" in install.describe()
