"""Live progress: the parent-side line the executor reports a batch to."""

import contextlib
import io
import re
from dataclasses import dataclass

import pytest

from repro.bench.executor import (
    Cell,
    CellExecutionError,
    Effort,
    progress_sink,
    run_cells,
)
from repro.bench.telemetry import ProgressLine, live_progress
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)


def make_line() -> ProgressLine:
    return ProgressLine(stream=io.StringIO(), render_interval=0.01)


@dataclass(frozen=True)
class Task:
    """A batch item returning ``value``; it raises when ``fail`` is set."""

    value: int
    weight: float = 1.0
    fail: bool = False

    def run(self) -> int:
        if self.fail:
            raise ValueError(self.value)
        return self.value


def tasks(count: int) -> list[Task]:
    return [Task(value) for value in range(count)]


class TestProgressLine:
    def test_eta_covers_the_whole_batch(self):
        # 2 of 10 equal-weight items done in 10 s: the other 8 take 40 s,
        # whether or not they have started.
        line = make_line()
        line.begin(10, 10_000.0)
        line.started = 100.0
        line.advance(2, 2_000.0)
        assert line.render_line(now=110.0) == "live: 2/10 done  ETA 40s"

    def test_eta_follows_weight_not_item_count(self):
        # 2 of 4 items done in 10 s, but they carried a fifth of the
        # weight: the other half of the items takes 40 s more.
        line = make_line()
        line.begin(4, 10.0)
        line.started = 100.0
        line.advance(2, 2.0)
        assert line.render_line(now=110.0) == "live: 2/4 done  ETA 40s"

    def test_no_eta_before_anything_finishes(self):
        line = make_line()
        line.begin(4, 10.0)
        assert line.render_line() == "live: 0/4 done"

    def test_batches_accumulate(self):
        line = make_line()
        line.begin(3, 3.0)
        line.advance(3, 3.0)
        line.begin(2, 5.0)
        assert line.summary() == {"batches": 2, "items": 5, "finished": 3}
        assert (line.weight, line.weight_done) == (8.0, 3.0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_closing_line_counts_warmup_and_measure_ops(self, jobs):
        efforts = [Effort(warmup_ops=300, measure_ops=600),
                   Effort(warmup_ops=200, measure_ops=400)]
        cells = [Cell.ycsb(f"c{i}", SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                           effort=effort)
                 for i, effort in enumerate(efforts)]
        stream = io.StringIO()
        with live_progress(stream) as line:
            run_cells(cells, jobs=jobs)
        # A cell weighs its warm-up plus measure ops: the ETA's basis.
        ops = sum(e.warmup_ops + e.measure_ops for e in efforts)
        assert line.summary() == {"batches": 1, "items": 2, "finished": 2}
        assert line.weight == line.weight_done == ops
        assert re.fullmatch(r"live: 2/2 finished in [0-9.]+s",
                            stream.getvalue().splitlines()[-1])

    def test_tasks_count_their_weights(self):
        line = make_line()
        with progress_sink(line):
            run_cells([Task(x, weight=x + 1.0) for x in range(4)])
        assert (line.items, line.finished, line.weight_done) == (4, 4, 10.0)

    def test_a_failed_item_counts_nothing(self):
        line = make_line()
        items = [*tasks(2), Task(2, fail=True), Task(3)]
        with progress_sink(line), pytest.raises(CellExecutionError):
            run_cells(items)
        assert (line.items, line.finished) == (4, 2)

    def test_no_sink_outside_the_scope(self):
        line = make_line()
        with progress_sink(line):
            pass
        run_cells(tasks(3))
        assert line.batches == 0


class TestStatusLineCleanup:
    """The in-place stderr line must be wiped on any exit path."""

    def test_stop_clears_line_before_summary(self):
        # On a clean exit and on an exception alike, the blank-out
        # precedes the closing line.
        for fail in (False, True):
            stream = io.StringIO()
            with contextlib.suppress(RuntimeError):
                with live_progress(stream) as line:
                    run_cells(tasks(3))
                    assert line._rendered
                    if fail:
                        raise RuntimeError("escape")
            output = stream.getvalue()
            blank = f"\r{'':<100}\r"
            assert blank in output
            assert output.index(blank) < output.index("live: 3/3 finished")

    def test_clear_line_without_render_writes_nothing(self):
        line = make_line()
        line.clear_line()
        assert line.stream.getvalue() == ""

    def test_clear_line_is_idempotent(self):
        line = make_line()
        line._rendered = True
        line.clear_line()
        first = line.stream.getvalue()
        line.clear_line()
        assert line.stream.getvalue() == first

