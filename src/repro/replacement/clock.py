"""CLOCK page replacement over a concurrent bitmap.

Both HyMem and Spitfire reclaim buffer space with CLOCK [34]: a hand
sweeps the frames; a frame with its reference bit set gets a second
chance (the bit is cleared), a frame with a clear bit is the victim.
Reference bits live in a :class:`~repro.replacement.bitmap.ConcurrentBitmap`
so that hits never take the sweep lock.
"""

from __future__ import annotations

import threading

from .base import ReplacementPolicy
from .bitmap import ConcurrentBitmap


class ClockReplacer(ReplacementPolicy):
    """Second-chance CLOCK replacement."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._ref_bits = ConcurrentBitmap(capacity)
        self._present = [False] * capacity
        self._hand = 0
        self._count = 0
        self._sweep_lock = threading.Lock()

    def insert(self, frame: int) -> None:
        self._check(frame)
        with self._sweep_lock:
            if not self._present[frame]:
                self._present[frame] = True
                self._count += 1
        # New pages start with their reference bit set so a fresh page is
        # not immediately chosen by a sweeping hand.
        self._ref_bits.set(frame)

    def remove(self, frame: int) -> None:
        self._check(frame)
        with self._sweep_lock:
            if self._present[frame]:
                self._present[frame] = False
                self._count -= 1
        self._ref_bits.clear(frame)

    def record_access(self, frame: int) -> None:
        # _check() spelled out: every buffer hit lands here.
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
        self._ref_bits.set(frame)

    def record_access_batch(self, frames) -> None:
        # Setting a reference bit is idempotent and no sweep runs between
        # the accesses of one batched run, so deduplicating frames leaves
        # the bitmap in exactly the state a per-op replay would.
        for frame in set(frames):
            self._check(frame)
            self._ref_bits.set(frame)

    def victim(self) -> int | None:
        """Sweep the hand until a frame with a clear reference bit is found.

        At most two full sweeps are needed: the first pass clears every
        set bit, so the second pass must find a victim (unless the pool is
        empty).
        """
        with self._sweep_lock:
            if self._count == 0:
                return None
            for _ in range(2 * self.capacity + 1):
                frame = self._hand
                self._hand = (self._hand + 1) % self.capacity
                if not self._present[frame]:
                    continue
                if self._ref_bits.test_and_clear(frame):
                    continue  # second chance
                return frame
        raise RuntimeError("CLOCK failed to find a victim in two sweeps")

    def __len__(self) -> int:
        return self._count

    def __contains__(self, frame: int) -> bool:
        self._check(frame)
        return self._present[frame]

    def _check(self, frame: int) -> None:
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
