"""Deterministic fault plans.

A :class:`FaultPlan` is a picklable, seeded schedule of fault events
keyed by *per-device op count* and (optionally) simulated time.  Two
families of hazards are modelled, matching how the underlying media
actually fails:

* **live faults** fire while the system is running: transient read or
  write errors (the device returns an error; a retry usually succeeds)
  and latency spikes (the op completes but stalls the issuing worker).
  These are scheduled per device by operation index, so a plan replays
  identically for a fixed seed regardless of wall-clock timing, and the
  total number of injected faults is deterministic even under
  multi-threaded workloads (indices are allocated atomically; only
  *which* logical op draws a given index varies with interleaving),
* **crash-coupled faults** manifest only at the crash point, because
  that is the only instant they can physically occur: a *torn write*
  persists a prefix of the media-granularity chunks of the final
  in-flight write (the classic partially-persisted WAL tail), and a
  *dropped persist* loses a write that was acknowledged to the caller
  but had not reached durable media when power failed.  The
  :class:`~repro.faults.crash.CrashController` applies these to the WAL
  tail / last page write when it crashes the system.

Plans are plain frozen dataclasses over tuples and ints, so they pickle
cleanly into worker processes;
:func:`~repro.faults.injector.inject_faults` installs one on a
hierarchy before its buffer manager is built.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field


class FaultKind(enum.Enum):
    """Live fault kinds a device schedule can carry."""

    READ_ERROR = "read_error"
    WRITE_ERROR = "write_error"
    READ_LATENCY_SPIKE = "read_latency_spike"
    WRITE_LATENCY_SPIKE = "write_latency_spike"


class TailFault(enum.Enum):
    """Crash-coupled hazards applied to the durable tail at crash time."""

    NONE = "none"
    #: The final WAL record persisted only a prefix of its media chunks:
    #: it is present but its checksum no longer verifies.
    TORN_WRITE = "torn_write"
    #: The final WAL record was acknowledged but never reached durable
    #: media: it is simply absent after the crash.
    DROPPED_PERSIST = "dropped_persist"
    #: The last durable page write persisted only a prefix of its slots;
    #: the page checksum no longer verifies and recovery must heal it.
    TORN_PAGE = "torn_page"


class DeviceIOError(RuntimeError):
    """A transient device-level I/O failure (retryable)."""

    def __init__(self, tier_key: str, op: str, op_index: int) -> None:
        self.tier_key = tier_key
        self.op = op
        self.op_index = op_index
        super().__init__(
            f"transient {op} error on {tier_key} device (op #{op_index})"
        )

    def __reduce__(self):
        # Exceptions pickle by replaying __init__ with ``args``, which
        # here holds the formatted message — rebuild from the typed
        # fields instead so the error survives process-pool transport.
        return (type(self), (self.tier_key, self.op, self.op_index))


class DeviceGaveUpError(DeviceIOError):
    """Retries exhausted: the typed error surfaced to the caller."""

    def __init__(self, tier_key: str, op: str, op_index: int,
                 attempts: int) -> None:
        self.attempts = attempts
        RuntimeError.__init__(
            self,
            f"{op} on {tier_key} device failed after {attempts} attempts "
            f"(op #{op_index})",
        )
        self.tier_key = tier_key
        self.op = op
        self.op_index = op_index

    def __reduce__(self):
        return (type(self),
                (self.tier_key, self.op, self.op_index, self.attempts))


@dataclass(frozen=True)
class FaultSchedule:
    """Live faults for one device, keyed by per-direction op index.

    ``read_errors`` / ``write_errors`` hold the op indices at which the
    device raises :class:`DeviceIOError`; ``read_spikes`` /
    ``write_spikes`` the indices at which it charges ``spike_ns`` of
    extra (sim-time) stall before completing.  ``active_after_ns`` /
    ``active_until_ns`` optionally gate the whole schedule by the
    device's accumulated sim time, so a plan can target e.g. only the
    post-warm-up window.
    """

    read_errors: frozenset[int] = frozenset()
    write_errors: frozenset[int] = frozenset()
    read_spikes: frozenset[int] = frozenset()
    write_spikes: frozenset[int] = frozenset()
    spike_ns: float = 50_000.0
    active_after_ns: float = 0.0
    active_until_ns: float = float("inf")

    @property
    def is_noop(self) -> bool:
        return not (self.read_errors or self.write_errors
                    or self.read_spikes or self.write_spikes)

    def total_events(self) -> int:
        return (len(self.read_errors) + len(self.write_errors)
                + len(self.read_spikes) + len(self.write_spikes))


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable fault schedule for one run.

    ``schedules`` maps a device key (the tier's ``resource_key``, e.g.
    ``"nvm"``/``"ssd"``) to its :class:`FaultSchedule`.  ``wal_tail``
    and ``torn_page_fraction`` configure the crash-coupled hazards the
    :class:`~repro.faults.crash.CrashController` applies.
    """

    schedules: dict[str, FaultSchedule] = field(default_factory=dict)
    wal_tail: TailFault = TailFault.NONE
    #: Fraction of a torn page's slots (by ascending slot order — the
    #: media-prefix model) that survive the torn write.
    torn_page_fraction: float = 0.5
    seed: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A schedule that injects nothing (determinism gates use this)."""
        return cls()

    @classmethod
    def seeded(
        cls,
        seed: int,
        device_keys: tuple[str, ...] = ("nvm", "ssd"),
        horizon_ops: int = 10_000,
        read_error_rate: float = 0.0,
        write_error_rate: float = 0.0,
        spike_rate: float = 0.0,
        spike_ns: float = 50_000.0,
        wal_tail: TailFault = TailFault.NONE,
        torn_page_fraction: float = 0.5,
    ) -> "FaultPlan":
        """Draw a deterministic schedule from one seed.

        Each (device, direction) stream draws its own op indices from a
        derived RNG, so adding a device to the plan never perturbs the
        schedule of another device.  A rate is a per-op probability:
        one outside [0, 1] raises ``ValueError``.
        """
        rates = {"read_error_rate": read_error_rate,
                 "write_error_rate": write_error_rate,
                 "spike_rate": spike_rate}
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        schedules: dict[str, FaultSchedule] = {}
        for key in device_keys:
            streams: list[frozenset[int]] = []
            for stream, rate in (
                ("read_errors", read_error_rate),
                ("write_errors", write_error_rate),
                ("read_spikes", spike_rate),
                ("write_spikes", spike_rate),
            ):
                rng = random.Random(f"{seed}:{key}:{stream}")
                indices = frozenset(
                    index for index in range(horizon_ops)
                    if rate > 0.0 and rng.random() < rate
                )
                streams.append(indices)
            schedule = FaultSchedule(
                read_errors=streams[0],
                write_errors=streams[1],
                read_spikes=streams[2],
                write_spikes=streams[3],
                spike_ns=spike_ns,
            )
            if not schedule.is_noop:
                schedules[key] = schedule
        return cls(
            schedules=schedules,
            wal_tail=wal_tail,
            torn_page_fraction=torn_page_fraction,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing, live or crash-coupled."""
        return (
            self.wal_tail is TailFault.NONE
            and all(s.is_noop for s in self.schedules.values())
        )

    def for_device(self, key: str) -> FaultSchedule | None:
        return self.schedules.get(key)

    def total_events(self) -> int:
        return sum(s.total_events() for s in self.schedules.values())

    def describe(self) -> str:
        if self.is_noop:
            return "FaultPlan(noop)"
        parts = [
            f"{key}:{schedule.total_events()}"
            for key, schedule in sorted(self.schedules.items())
        ]
        return (
            f"FaultPlan(seed={self.seed}, events=[{', '.join(parts)}], "
            f"wal_tail={self.wal_tail.value})"
        )
