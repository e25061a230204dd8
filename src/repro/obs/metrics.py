"""Thread-safe metrics primitives and the registry that names them.

Three primitive kinds, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing total,
* :class:`Gauge` — a last-written value (tier occupancy, dirty ratio),
* :class:`Histogram` — log2-scaled buckets over simulated nanoseconds,
  sized so one op latency lands in a bucket with a single
  ``int.bit_length`` call (no float log, no allocation).

All updates take the instance's lock, so concurrent ``threading``
workers lose no samples; reads return consistent snapshots.  Instances
are interned by ``(name, labels)`` in a :class:`MetricsRegistry`, whose
:meth:`~MetricsRegistry.snapshot` /
:meth:`~MetricsRegistry.merge_snapshot` pair is the unit the executor
ships between processes — snapshots are plain JSON-able dicts.
"""

from __future__ import annotations

import threading


#: Histogram buckets are powers of two from 2**_MIN_EXP ns up to
#: 2**_MAX_EXP ns, plus a +Inf overflow bucket.  16 ns .. ~17.6 sim
#: seconds covers everything from one cache-line charge to a full
#: checkpoint stall.
_MIN_EXP = 4
_MAX_EXP = 34
NUM_BUCKETS = _MAX_EXP - _MIN_EXP + 2  # one per exponent + overflow

#: Upper bounds (``le`` labels) of the log2 buckets, in sim ns.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    float(2 ** exp) for exp in range(_MIN_EXP, _MAX_EXP + 1)
) + (float("inf"),)


def bucket_index(value: float) -> int:
    """The log2 bucket a (non-negative) sim-ns value falls into."""
    if value < 0:
        value = 0.0
    index = int(value).bit_length() - _MIN_EXP
    if index < 0:
        return 0
    if index > NUM_BUCKETS - 1:
        return NUM_BUCKETS - 1
    return index


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def _state(self):
        return self._value

    def _merge_state(self, state) -> None:
        with self._lock:
            self._value += state


class Gauge:
    """A last-written observation (occupancy ratio, dirty ratio, ...)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _state(self):
        return self._value

    def _merge_state(self, state) -> None:
        # Merging per-worker snapshots keeps the last merged sample;
        # merge order is the executor's (deterministic) submission order.
        with self._lock:
            self._value = float(state)


class Histogram:
    """Log2-scaled sim-nanosecond buckets plus running sum and count."""

    __slots__ = ("name", "labels", "_counts", "_sum", "_lock")

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._counts = [0] * NUM_BUCKETS
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def observe_batch(self, value: float, count: int) -> None:
        """Observe ``value`` ``count`` times with one locked update.

        Equal to ``count`` calls of :meth:`observe` while the running
        sum stays exact: the hub's sim-ns values are multiples of 2**-20
        below 2**33, for which float addition and multiplication are.
        """
        index = bucket_index(value)
        with self._lock:
            self._counts[index] += count
            self._sum += value * count

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile sample.

        Log-bucketed, so the answer is exact to within one power of two —
        enough to read a p99 off a run without storing raw samples.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total = sum(self._counts)
            if total == 0:
                return 0.0
            rank = q * total
            running = 0
            for index, count in enumerate(self._counts):
                running += count
                if running >= rank:
                    return BUCKET_BOUNDS[index]
        return BUCKET_BOUNDS[-1]

    def _state(self):
        with self._lock:
            return {"counts": list(self._counts), "sum": self._sum}

    def _merge_state(self, state) -> None:
        counts = state["counts"]
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += state["sum"]


def _key(name: str, labels: dict[str, str] | None) -> str:
    """The canonical series key: ``name{k="v",...}`` with sorted labels."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Interns metric instances by ``(name, labels)`` and snapshots them.

    The registry is the shippable unit of observability: the harness
    builds one per run, the executor pickles its :meth:`snapshot` back
    from worker processes, and the exporters render it.  Creation is
    locked; the returned primitives carry their own locks, so hot-path
    updates never touch the registry again.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: dict[str, str] | None):
        key = _key(name, labels)
        with self._lock:
            found = self._series.get(key)
            if found is None:
                found = cls(name, labels)
                self._series[key] = found
            elif not isinstance(found, cls):
                raise TypeError(
                    f"series {key!r} already registered as {found.kind}"
                )
            return found

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, labels: dict[str, str] | None = None) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    # ------------------------------------------------------------------
    def series(self) -> list[Counter | Gauge | Histogram]:
        """All registered series, sorted by canonical key."""
        with self._lock:
            return [self._series[key] for key in sorted(self._series)]

    def get(self, name: str, labels: dict[str, str] | None = None):
        with self._lock:
            return self._series.get(_key(name, labels))

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able point-in-time copy of every series."""
        with self._lock:
            items = sorted(self._series.items())
        return {
            key: {
                "kind": series.kind,
                "name": series.name,
                "labels": dict(series.labels),
                "state": series._state(),
            }
            for key, series in items
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges keep the last merged
        value.  Merging the same snapshots in the same order always
        produces the same registry, which is what makes per-worker
        metrics deterministic across ``--jobs`` values.
        """
        for key in sorted(snapshot):
            entry = snapshot[key]
            cls = self._KINDS[entry["kind"]]
            series = self._get_or_create(cls, entry["name"], entry["labels"])
            series._merge_state(entry["state"])
