"""A thread-safe bitmap used for CLOCK reference bits.

The paper's implementation uses a non-blocking concurrent bitmap
(NB-GCLOCK [40]); CPython cannot express lock-free CAS loops, so this
bitmap uses a single fine lock around word updates — the semantics
(atomic test/set/clear of individual bits) are identical.
"""

from __future__ import annotations

import threading


class ConcurrentBitmap:
    """Fixed-size bitmap with atomic bit operations."""

    _WORD_BITS = 64

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("bitmap size must be positive")
        self._size = size
        nwords = (size + self._WORD_BITS - 1) // self._WORD_BITS
        self._words = [0] * nwords
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._size

    def _locate(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self._size:
            raise IndexError(f"bit {index} out of range [0, {self._size})")
        return index // self._WORD_BITS, 1 << (index % self._WORD_BITS)

    def set(self, index: int) -> bool:
        """Set a bit; return the previous value."""
        # _locate() spelled out: every buffer hit sets a reference bit.
        if not 0 <= index < self._size:
            raise IndexError(f"bit {index} out of range [0, {self._size})")
        word = index // self._WORD_BITS
        mask = 1 << (index % self._WORD_BITS)
        with self._lock:
            previous = bool(self._words[word] & mask)
            self._words[word] |= mask
            return previous

    def clear(self, index: int) -> bool:
        """Clear a bit; return the previous value."""
        word, mask = self._locate(index)
        with self._lock:
            previous = bool(self._words[word] & mask)
            self._words[word] &= ~mask
            return previous

    def test(self, index: int) -> bool:
        word, mask = self._locate(index)
        with self._lock:
            return bool(self._words[word] & mask)

    def test_and_clear(self, index: int) -> bool:
        """Atomically read and clear a bit (the CLOCK hand's primitive)."""
        return self.clear(index)

    def count(self) -> int:
        with self._lock:
            return sum(word.bit_count() for word in self._words)

    def clear_all(self) -> None:
        with self._lock:
            for i in range(len(self._words)):
                self._words[i] = 0
