"""The resilience boundary under every device transfer.

When a device (typically a
:class:`~repro.faults.injector.FaultyDevice`) raises a transient
:class:`~repro.faults.plan.DeviceIOError`, the transfer is re-issued
with bounded exponential backoff; each backoff interval is charged to
the issuing worker as CPU stall through the device's cost accumulator,
so retries cost simulated time exactly like any other stall.  When the
attempt budget is exhausted the typed
:class:`~repro.faults.plan.DeviceGaveUpError` surfaces to the caller.
Without injection the retry wrapper is a single ``try`` around the
direct call — the fault-free hot path pays one exception-handler setup
and nothing else.

Page transfers of the buffer tiers go through
:meth:`TierNode.read <repro.core.tier_chain.TierNode.read>` /
:meth:`~repro.core.tier_chain.TierNode.write`, which issue the first
attempt themselves and hand a failed one to the loops here; the SSD
store and the WAL call :func:`read_with_retry` /
:func:`write_with_retry` directly.
"""

from __future__ import annotations

from ..faults.plan import DeviceGaveUpError, DeviceIOError
from ..hardware.device import Device
from ..hardware.simclock import CostAccumulator

__all__ = [
    "BACKOFF_BASE_NS",
    "MAX_ATTEMPTS",
    "read_with_retry",
    "write_with_retry",
]

#: Total issue attempts per transfer (1 initial + MAX_ATTEMPTS-1 retries).
MAX_ATTEMPTS = 4
#: Backoff before retry ``k`` (1-based) is ``BACKOFF_BASE_NS * 2**(k-1)``.
BACKOFF_BASE_NS = 2_000.0


def read_with_retry(device: Device, nbytes: int, sequential: bool = False,
                    failed: DeviceIOError | None = None) -> float:
    """Issue a read, absorbing transient faults with charged backoff.

    ``failed`` is the error of a first attempt the caller already
    issued itself; the loop then resumes at the first backoff.
    """
    attempt = 1
    if failed is not None:
        attempt = _backoff_or_give_up(device, failed, attempt)
    while True:
        try:
            return device.read(nbytes, sequential)
        except DeviceIOError as exc:
            attempt = _backoff_or_give_up(device, exc, attempt)


def write_with_retry(device: Device, nbytes: int, sequential: bool = False,
                     failed: DeviceIOError | None = None) -> float:
    """Issue a write, absorbing transient faults with charged backoff
    (``failed`` as for :func:`read_with_retry`)."""
    attempt = 1
    if failed is not None:
        attempt = _backoff_or_give_up(device, failed, attempt)
    while True:
        try:
            return device.write(nbytes, sequential)
        except DeviceIOError as exc:
            attempt = _backoff_or_give_up(device, exc, attempt)


def _backoff_or_give_up(device, exc: DeviceIOError, attempt: int) -> int:
    """Charge one backoff interval, or raise when the budget is spent."""
    if attempt >= MAX_ATTEMPTS:
        raise DeviceGaveUpError(exc.tier_key, exc.op, exc.op_index,
                                attempts=attempt) from exc
    device.cost.charge(CostAccumulator.CPU,
                       BACKOFF_BASE_NS * (2 ** (attempt - 1)))
    note_retry = getattr(device, "note_retry", None)
    if note_retry is not None:
        note_retry()
    return attempt + 1
