"""Admission control: bounded queues, token buckets, load shedding.

The serving plane is **open-loop** from the clients' perspective — they
arrive at their own rate — so the server must decide, per request, to
admit or shed.  This module makes that decision deterministic and
inspectable:

* a per-tenant :class:`TokenBucket` rate limit (refilled by elapsed
  time; live serving passes the event-loop clock, the ``serve-bench``
  simulation passes virtual time — same arithmetic, same decisions),
* a per-tenant **bounded queue**: at most ``max_queue_depth`` admitted
  requests may be queued-or-in-flight; beyond that new arrivals shed
  with :class:`Overloaded` rather than growing the queue (the classic
  bounded-p99-versus-unbounded-queueing trade the overload experiment
  demonstrates),
* a **drain mode** for graceful shutdown: in-flight work completes,
  new arrivals are refused with ``DRAINING``.

Every decision is counted per tenant and reason, and
:meth:`AdmissionController.snapshot` renders deterministically ordered
output for the SLO report and the Prometheus provider.

Time is a caller-supplied ``now`` in (float) seconds.  Nothing here
reads the wall clock, which is what lets the virtual-time serving
simulation reuse the exact live-path code and still produce
byte-identical reports for a fixed seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OverloadReason(enum.Enum):
    """Why a request was refused admission."""

    QUEUE_FULL = "queue_full"
    RATE_LIMITED = "rate_limited"
    DRAINING = "draining"


class Overloaded(Exception):
    """A typed admission refusal (maps to the ``overloaded`` /
    ``shutting_down`` protocol errors)."""

    def __init__(self, tenant_id: int, reason: OverloadReason) -> None:
        self.tenant_id = tenant_id
        self.reason = reason
        super().__init__(
            f"tenant {tenant_id} refused admission: {reason.value}"
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """Static admission policy (picklable; shared live and simulated).

    ``max_queue_depth`` bounds each tenant's admitted-but-unfinished
    requests; ``rate_ops_per_s`` is the per-tenant token-bucket rate
    (``None`` disables rate limiting); ``burst_ops`` is the bucket
    capacity.  ``enabled=False`` turns the whole controller into an
    accounting-only pass-through — the "unbounded queueing" leg of the
    overload experiment.
    """

    max_queue_depth: int = 64
    rate_ops_per_s: float | None = None
    burst_ops: float = 32.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.rate_ops_per_s is not None and self.rate_ops_per_s <= 0:
            raise ValueError("rate_ops_per_s must be positive")
        if self.burst_ops <= 0:
            raise ValueError("burst_ops must be positive")


class TokenBucket:
    """A deterministic token bucket over caller-supplied time."""

    __slots__ = ("rate", "burst", "tokens", "last_now")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_now = float(now)

    def try_take(self, now: float, amount: float = 1.0) -> bool:
        """Refill by elapsed time, then take ``amount`` tokens if held.

        ``now`` regressions (clock skew) refill nothing but never raise:
        a rate limiter must degrade, not crash the accept loop.
        """
        elapsed = now - self.last_now
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.last_now = now
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class _TenantGate:
    """One tenant's admission state: depth, bucket, and counters."""

    __slots__ = ("bucket", "depth", "admitted", "completed", "shed")

    def __init__(self, config: AdmissionConfig, now: float) -> None:
        self.bucket = None
        if config.rate_ops_per_s is not None:
            self.bucket = TokenBucket(
                config.rate_ops_per_s, config.burst_ops, now
            )
        self.depth = 0
        self.admitted = 0
        self.completed = 0
        self.shed = {reason: 0 for reason in OverloadReason}


class AdmissionController:
    """Per-tenant admission decisions over one shared serving plane.

    Not thread-safe by design: the asyncio server calls it from one
    event loop, the simulation from one thread.  Tenant gates are
    created on first sight, so the controller needs no tenant census
    up front.
    """

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self.draining = False
        self._gates: dict[int, _TenantGate] = {}

    # ------------------------------------------------------------------
    def _gate(self, tenant_id: int, now: float) -> _TenantGate:
        gate = self._gates.get(tenant_id)
        if gate is None:
            gate = _TenantGate(self.config, now)
            self._gates[tenant_id] = gate
        return gate

    def try_admit(self, tenant_id: int, now: float) -> None:
        """Admit one request or raise :class:`Overloaded`.

        On admission the tenant's queue depth is taken; the caller must
        pair every successful ``try_admit`` with exactly one
        :meth:`release` once the request finishes (or is abandoned).
        """
        gate = self._gate(tenant_id, now)
        if self.draining:
            gate.shed[OverloadReason.DRAINING] += 1
            raise Overloaded(tenant_id, OverloadReason.DRAINING)
        if self.config.enabled:
            if gate.depth >= self.config.max_queue_depth:
                gate.shed[OverloadReason.QUEUE_FULL] += 1
                raise Overloaded(tenant_id, OverloadReason.QUEUE_FULL)
            if gate.bucket is not None and not gate.bucket.try_take(now):
                gate.shed[OverloadReason.RATE_LIMITED] += 1
                raise Overloaded(tenant_id, OverloadReason.RATE_LIMITED)
        gate.depth += 1
        gate.admitted += 1

    def release(self, tenant_id: int) -> None:
        """One admitted request finished; frees its queue slot."""
        gate = self._gates.get(tenant_id)
        if gate is not None and gate.depth > 0:
            gate.depth -= 1
            gate.completed += 1

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse all new work; in-flight requests keep their slots."""
        self.draining = True

    def snapshot(self) -> dict:
        """Deterministically ordered per-tenant admission accounting."""
        tenants = {}
        for tenant_id in sorted(self._gates):
            gate = self._gates[tenant_id]
            tenants[str(tenant_id)] = {
                "admitted": gate.admitted,
                "completed": gate.completed,
                "depth": gate.depth,
                "shed": {
                    reason.value: gate.shed[reason]
                    for reason in OverloadReason
                },
            }
        return {
            "draining": self.draining,
            "enabled": self.config.enabled,
            "max_queue_depth": self.config.max_queue_depth,
            "rate_ops_per_s": self.config.rate_ops_per_s,
            "tenants": tenants,
        }
