"""Optimistic lock coupling primitives (Leis et al. [24]).

An :class:`OptimisticLatch` is a versioned latch: readers take no lock —
they read the version, do their work, and *validate* that the version is
unchanged; writers acquire the latch exclusively and bump the version on
release, invalidating concurrent readers, who then restart.

The original uses a single atomic word (version + lock bit + obsolete
bit); CPython has no CAS on plain ints, so the word is guarded by a tiny
mutex.  The protocol — and in particular the restart semantics the
B+Tree depends on — is identical.  The tree never merges or replaces a
node, so no node goes obsolete and the latch carries no obsolete bit.
"""

from __future__ import annotations

import threading


class OlcRestart(Exception):
    """A validation failed; the operation must restart from the root."""


class OptimisticLatch:
    """Versioned latch supporting optimistic reads and exclusive writes."""

    __slots__ = ("_version", "_locked", "_mutex")

    def __init__(self) -> None:
        self._version = 0
        self._locked = False
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Optimistic read protocol
    # ------------------------------------------------------------------
    def read_lock_or_restart(self) -> int:
        """Capture the current version; restart while a writer holds it."""
        with self._mutex:
            if self._locked:
                raise OlcRestart
            return self._version

    def check_or_restart(self, version: int) -> None:
        """Validate that no writer intervened since ``version``."""
        with self._mutex:
            if self._locked or self._version != version:
                raise OlcRestart

    # ------------------------------------------------------------------
    # Write protocol
    # ------------------------------------------------------------------
    def upgrade_to_write_lock_or_restart(self, version: int) -> None:
        """Atomically upgrade a validated read to an exclusive lock."""
        with self._mutex:
            if self._locked or self._version != version:
                raise OlcRestart
            self._locked = True

    def write_lock(self) -> None:
        """Blocking exclusive acquire (pessimistic fallback path)."""
        while True:
            with self._mutex:
                if not self._locked:
                    self._locked = True
                    return
            # Brief spin; contention on a node is short-lived.
            threading.Event().wait(0.0001)

    def write_unlock(self) -> None:
        """Release and invalidate concurrent optimistic readers."""
        with self._mutex:
            if not self._locked:
                raise RuntimeError("write_unlock without a write lock")
            self._version += 1
            self._locked = False

    @property
    def version(self) -> int:
        with self._mutex:
            return self._version
