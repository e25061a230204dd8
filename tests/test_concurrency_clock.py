"""CLOCK's reference byte under concurrent hits and sweeps.

A hit stores 1 into its frame's reference byte without any lock, while
the hand tests and clears bytes under the sweep lock and one thread
keeps inserting, picking and removing frames.  Whatever the
interleaving, the replacer's count must match its presence flags, every
victim must be a tracked frame, and nothing may raise — in particular
not the two-sweep failure that re-set bits used to provoke.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.replacement import ClockReplacer

CAPACITY = 16
HITTERS = 4
#: How long the sweeping thread runs; the whole test stays well under 2 s.
SWEEP_SECONDS = 0.5


def test_lock_free_hits_race_the_hand_without_breaking_it():
    clock = ClockReplacer(CAPACITY)
    for frame in range(1, CAPACITY):
        clock.insert(frame)
    stop = threading.Event()
    errors: list[BaseException] = []
    victims: list[int] = []

    def hitter(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                for _ in range(256):
                    clock.record_access(rng.randrange(CAPACITY))
        except BaseException as exc:  # pragma: no cover - the failure
            errors.append(exc)

    def sweeper() -> None:
        free = 0
        deadline = time.monotonic() + SWEEP_SECONDS
        try:
            while time.monotonic() < deadline:
                clock.insert(free)
                victim = clock.victim()
                # Only this thread changes which frames are tracked, so
                # its own reads of the presence flags are exact.
                assert victim is not None and clock._present[victim], victim
                clock.remove(victim)
                assert len(clock) == sum(clock._present) == CAPACITY - 1
                victims.append(victim)
                free = victim
        except BaseException as exc:
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=hitter, args=(seed,), daemon=True)
               for seed in range(HITTERS)]
    threads.append(threading.Thread(target=sweeper, daemon=True))
    interval = sys.getswitchinterval()
    # Switch threads far more often than the default 5 ms, so hits land
    # inside the hand's sweeps rather than between them.
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert victims
    assert len(clock) == sum(clock._present) == CAPACITY - 1
