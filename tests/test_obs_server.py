"""The live scrape endpoint: HTTP semantics and the final-scrape contract."""

import urllib.error
import urllib.request

import pytest

from repro.obs.export import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import CONTENT_TYPE, MetricsServer


def get(url: str, timeout: float = 5.0):
    return urllib.request.urlopen(url, timeout=timeout)


class TestMetricsServer:
    def test_scrape_serves_provider_with_content_type(self):
        with MetricsServer(lambda: "payload 1\n") as server:
            with get(server.url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                assert response.read() == b"payload 1\n"

    def test_other_paths_404(self):
        with MetricsServer(lambda: "x\n") as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(f"http://{server.host}:{server.port}/other")
            assert err.value.code == 404

    def test_provider_exception_becomes_500(self):
        def broken() -> str:
            raise RuntimeError("no registry yet")

        with MetricsServer(broken) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server.url)
            assert err.value.code == 500

    def test_scrape_reflects_live_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("tier_hits_total", {"tier": "DRAM"})
        with MetricsServer(lambda: prometheus_text(registry)) as server:
            counter.inc(3)
            first = server.probe("/metrics")[1]
            assert 'tier_hits_total{tier="DRAM"} 3' in first
            counter.inc(2)
            second = server.probe("/metrics")[1]
            assert 'tier_hits_total{tier="DRAM"} 5' in second
            # The final-scrape contract: the last scrape equals the
            # file export because both render the same function.
            assert second == prometheus_text(registry)

    def test_start_twice_raises(self):
        server = MetricsServer(lambda: "x\n").start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = MetricsServer(lambda: "x\n").start()
        server.stop()
        server.stop()

    def test_port_zero_picks_a_free_port(self):
        with MetricsServer(lambda: "x\n") as server:
            assert server.port != 0


class TestHealthEndpoints:
    def test_healthz_answers_while_running(self):
        with MetricsServer(lambda: "x\n") as server:
            status, body = server.probe("/healthz")
            assert (status, body) == (200, "ok\n")

    def test_readyz_503_until_first_successful_scrape(self):
        with MetricsServer(lambda: "x\n") as server:
            status, body = server.probe("/readyz")
            assert (status, body) == (503, "not ready\n")
            server.probe("/metrics")  # first successful provider render
            status, body = server.probe("/readyz")
            assert (status, body) == (200, "ready\n")

    def test_failed_provider_render_does_not_flip_readiness(self):
        def broken() -> str:
            raise RuntimeError("no registry yet")

        with MetricsServer(broken) as server:
            with pytest.raises(urllib.error.HTTPError):
                get(server.url)
            assert server.probe("/readyz")[0] == 503

    def test_mark_ready_flips_without_a_scrape(self):
        with MetricsServer(lambda: "x\n") as server:
            assert server.probe("/readyz")[0] == 503
            server.mark_ready()
            assert server.probe("/readyz")[0] == 200
