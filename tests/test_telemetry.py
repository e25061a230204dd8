"""Streaming telemetry: channel pickling, emission, live aggregation."""

import io
import pickle
import queue
import time

from repro.bench.telemetry import (
    ProgressAggregator,
    TelemetryChannel,
    open_channel,
)


class TestTelemetryChannel:
    def make_local(self) -> TelemetryChannel:
        return TelemetryChannel(queue.Queue())

    def test_emit_enqueues_event(self):
        channel = self.make_local()
        channel.emit("cell_start", cell="c", expected_ops=10)
        event = channel.queue.get_nowait()
        assert event["kind"] == "cell_start"
        assert event["cell"] == "c"
        assert event["expected_ops"] == 10
        assert event["ts"] > 0

    def test_emit_on_none_queue_is_noop(self):
        channel = TelemetryChannel(None)
        channel.emit("progress", done=1)  # must not raise

    def test_emit_swallows_transport_errors(self):
        class BrokenQueue:
            def put_nowait(self, event):
                raise ConnectionResetError("manager gone")

        channel = TelemetryChannel(BrokenQueue())
        channel.emit("progress", done=1)  # must not raise

    def test_progress_callback_carries_label(self):
        channel = self.make_local()
        progress = channel.progress_callback("fig6/cell")
        progress("measure", 500, 1000)
        event = channel.queue.get_nowait()
        assert event == {
            "kind": "progress", "ts": event["ts"], "cell": "fig6/cell",
            "phase": "measure", "done": 500, "total": 1000,
        }

    def test_pickle_drops_in_process_queue(self):
        # A plain queue.Queue cannot cross into pool workers; the clone
        # must carry queue=None so worker emits degrade to no-ops
        # instead of failing the chunk submission.
        clone = pickle.loads(pickle.dumps(self.make_local()))
        assert clone.queue is None
        clone.emit("progress", done=1)  # no-op, no raise

    def test_open_channel_pickles_with_live_queue(self):
        channel = open_channel()
        try:
            if channel.queue.__class__.__module__.startswith("queue"):
                # Manager unavailable in this sandbox: the fallback
                # path is covered by test_pickle_drops_in_process_queue.
                return
            clone = pickle.loads(pickle.dumps(channel))
            assert clone.queue is not None
            clone.emit("ping", cell="c")
            event = channel.queue.get(timeout=5)
            assert event["kind"] == "ping"
        finally:
            channel.close()

    def test_close_is_idempotent(self):
        channel = open_channel()
        channel.close()
        channel.close()


def make_aggregator() -> ProgressAggregator:
    channel = TelemetryChannel(queue.Queue())
    return ProgressAggregator(channel, stream=io.StringIO(),
                              render_interval=0.01)


class TestProgressAggregatorState:
    """State transitions, driven synchronously through ``_apply``."""

    def test_cell_lifecycle(self):
        agg = make_aggregator()
        agg._apply({"kind": "cell_start", "cell": "c", "expected_ops": 100})
        agg._apply({"kind": "progress", "cell": "c", "phase": "warmup",
                    "done": 30, "total": 30})
        agg._apply({"kind": "progress", "cell": "c", "phase": "measure",
                    "done": 20, "total": 70})
        summary = agg.summary()
        assert summary["cells_seen"] == 1
        assert summary["cells_finished"] == 0
        # Measure progress is offset by the observed warmup ops.
        assert summary["ops_observed"] == 50
        agg._apply({"kind": "cell_end", "cell": "c", "operations": 100})
        summary = agg.summary()
        assert summary["cells_finished"] == 1
        assert summary["ops_observed"] == 100

    def test_render_line_shows_active_cell_and_phase(self):
        agg = make_aggregator()
        agg._started = time.time()
        agg._apply({"kind": "cell_start", "cell": "fig6/D=0.1",
                    "expected_ops": 200})
        agg._apply({"kind": "progress", "cell": "fig6/D=0.1",
                    "phase": "measure", "done": 100, "total": 200})
        line = agg.render_line()
        assert "1 running" in line
        assert "fig6/D=0.1 measure" in line
        assert "ops/s" in line

    def test_chaos_case_counters(self):
        agg = make_aggregator()
        agg._started = time.time()
        for _ in range(3):
            agg._apply({"kind": "case_start", "case": "x"})
        agg._apply({"kind": "case_end", "case": "x", "ok": True})
        assert "chaos 1/3 cases" in agg.render_line()
        assert agg.summary() == {
            "cells_seen": 0, "cells_finished": 0, "ops_observed": 0,
            "events_seen": 4, "cases_done": 1, "cases_total": 3,
        }

    def test_progress_for_unknown_cell_creates_state(self):
        agg = make_aggregator()
        agg._apply({"kind": "progress", "cell": "late", "phase": "measure",
                    "done": 5, "total": 10})
        assert agg.summary()["cells_seen"] == 1


class TestProgressAggregatorThread:
    def test_drains_queue_and_stops(self):
        stream = io.StringIO()
        channel = TelemetryChannel(queue.Queue())
        agg = ProgressAggregator(channel, stream=stream,
                                 render_interval=0.01).start()
        channel.emit("cell_start", cell="c", expected_ops=10)
        channel.emit("cell_end", cell="c", operations=10)
        deadline = time.time() + 5.0
        while agg.summary()["events_seen"] < 2 and time.time() < deadline:
            time.sleep(0.01)
        agg.stop()
        assert agg.summary()["events_seen"] == 2
        assert "telemetry: 1 cell(s)" in stream.getvalue()

    def test_stop_without_start_is_noop(self):
        make_aggregator().stop()


class TestStatusLineCleanup:
    """The in-place stderr line must be wiped on any exit path."""

    def test_drain_clears_line_when_apply_raises(self):
        # A malformed event makes _apply blow up mid-drain; the finally
        # must still blank the status line so the traceback that follows
        # does not land on top of stale progress text.
        import threading

        stream = io.StringIO()
        channel = TelemetryChannel(queue.Queue())
        agg = ProgressAggregator(channel, stream=stream,
                                 render_interval=0.0).start()
        channel.emit("cell_start", cell="c", expected_ops=10)
        deadline = time.time() + 5.0
        while not agg._rendered and time.time() < deadline:
            time.sleep(0.01)
        assert agg._rendered
        old_hook = threading.excepthook
        threading.excepthook = lambda args: None  # expected death, no noise
        try:
            channel.queue.put_nowait({"kind": "progress"})  # no "cell" key
            agg._thread.join(timeout=5.0)
            assert not agg._thread.is_alive()
        finally:
            threading.excepthook = old_hook
        assert stream.getvalue().endswith(f"\r{'':<100}\r")

    def test_stop_clears_line_before_summary(self):
        stream = io.StringIO()
        channel = TelemetryChannel(queue.Queue())
        agg = ProgressAggregator(channel, stream=stream,
                                 render_interval=0.0).start()
        channel.emit("cell_start", cell="c", expected_ops=10)
        deadline = time.time() + 5.0
        while not agg._rendered and time.time() < deadline:
            time.sleep(0.01)
        agg.stop()
        output = stream.getvalue()
        # The blank-out precedes the summary line.
        assert f"\r{'':<100}\r" in output
        assert output.index(f"\r{'':<100}\r") \
            < output.index("telemetry: 1 cell(s)")

    def test_clear_line_without_render_writes_nothing(self):
        agg = make_aggregator()
        agg.clear_line()
        assert agg.stream.getvalue() == ""

    def test_clear_line_is_idempotent(self):
        agg = make_aggregator()
        agg._rendered = True
        agg.clear_line()
        first = agg.stream.getvalue()
        agg.clear_line()
        assert agg.stream.getvalue() == first
