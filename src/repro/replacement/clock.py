"""CLOCK page replacement with one reference byte per frame.

Both HyMem and Spitfire reclaim buffer space with CLOCK [34]: a hand
sweeps the frames; a frame with its reference bit set gets a second
chance (the bit is cleared), a frame with a clear bit is the victim.

The paper keeps the bits in a non-blocking concurrent bitmap (NB-GCLOCK
[40]) so that hits never take the sweep lock.  Here each frame's bit is
one byte of a ``bytearray``: a hit stores 1 with no lock at all (one
byte store under the GIL), and the hand tests and clears under the
sweep lock it already holds.  That is linearisable without a CAS: the
only write racing the hand is a hit's set, and a set that lands between
the hand's test and its clear finds the bit already 1 — it changes
nothing, so it is ordered before the test.
"""

from __future__ import annotations

import threading

from .base import ReplacementPolicy


class ClockReplacer(ReplacementPolicy):
    """Second-chance CLOCK replacement."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._ref_bits = bytearray(capacity)
        self._present = [False] * capacity
        self._hand = 0
        self._count = 0
        self._sweep_lock = threading.Lock()

    # The bounds checks below are spelled out rather than shared: every
    # hit, install and eviction lands here.  A negative frame would
    # index a bytearray from its end instead of raising.
    def insert(self, frame: int) -> None:
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
        with self._sweep_lock:
            if not self._present[frame]:
                self._present[frame] = True
                self._count += 1
        # New pages start with their reference bit set so a fresh page is
        # not immediately chosen by a sweeping hand.
        self._ref_bits[frame] = 1

    def remove(self, frame: int) -> None:
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
        with self._sweep_lock:
            if self._present[frame]:
                self._present[frame] = False
                self._count -= 1
        self._ref_bits[frame] = 0

    def record_access(self, frame: int) -> None:
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
        self._ref_bits[frame] = 1

    def record_access_batch(self, frames) -> None:
        # Setting a reference bit is idempotent and no sweep runs between
        # the accesses of one batched run, so deduplicating frames leaves
        # the bits in exactly the state a per-op replay would.
        ref_bits = self._ref_bits
        for frame in set(frames):
            self._check(frame)
            ref_bits[frame] = 1

    def victim(self) -> int | None:
        """Sweep the hand until a frame with a clear reference bit is found.

        Single-threaded, two full sweeps always suffice: the first pass
        clears every set bit, so the second must find a victim.  Hits on
        other threads can re-set bits behind the hand for as long as it
        sweeps; after two sweeps the next present frame is taken whatever
        its bit — any tracked frame is a valid candidate, the pool still
        checks pin and claim.
        """
        with self._sweep_lock:
            if self._count == 0:
                return None
            capacity = self.capacity
            present = self._present
            ref_bits = self._ref_bits
            hand = self._hand
            for _ in range(2 * capacity):
                frame = hand
                hand = hand + 1 if hand + 1 < capacity else 0
                if not present[frame]:
                    continue
                if ref_bits[frame]:
                    ref_bits[frame] = 0  # second chance
                    continue
                self._hand = hand
                return frame
            # ``_count > 0`` under the sweep lock: a present frame exists.
            while not present[hand]:
                hand = hand + 1 if hand + 1 < capacity else 0
            self._hand = hand + 1 if hand + 1 < capacity else 0
            return hand

    def __len__(self) -> int:
        return self._count

    def __contains__(self, frame: int) -> bool:
        self._check(frame)
        return self._present[frame]

    def _check(self, frame: int) -> None:
        if not 0 <= frame < self.capacity:
            raise IndexError(f"frame {frame} out of range [0, {self.capacity})")
