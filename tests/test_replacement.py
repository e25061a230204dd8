"""Replacement policies: CLOCK, LRU, FIFO."""

import pytest
from hypothesis import given, strategies as st

from repro.replacement import (
    ClockReplacer,
    FifoReplacer,
    LruReplacer,
    POLICIES,
    make_replacer,
)


class TestClock:
    def test_evicts_unreferenced_first(self):
        clock = ClockReplacer(4)
        for frame in range(4):
            clock.insert(frame)
        # First sweep clears all reference bits, second finds frame 0.
        assert clock.victim() == 0

    def test_second_chance(self):
        clock = ClockReplacer(3)
        for frame in range(3):
            clock.insert(frame)
        first = clock.victim()
        clock.remove(first)
        # Re-reference the next candidate; it must be skipped once.
        survivors = [f for f in range(3) if f != first]
        clock.record_access(survivors[0])
        clock.record_access(survivors[1])
        # Hand clears bits then returns the first with a clear bit.
        victim = clock.victim()
        assert victim in survivors

    def test_empty_pool(self):
        assert ClockReplacer(4).victim() is None

    def test_len_and_contains(self):
        clock = ClockReplacer(4)
        clock.insert(2)
        assert len(clock) == 1
        assert 2 in clock
        assert 0 not in clock
        clock.remove(2)
        assert len(clock) == 0

    def test_reinsert_idempotent(self):
        clock = ClockReplacer(4)
        clock.insert(1)
        clock.insert(1)
        assert len(clock) == 1

    def test_hot_page_survives_sweeps(self):
        clock = ClockReplacer(4)
        for frame in range(4):
            clock.insert(frame)
        hot = 2
        evicted = []
        for _ in range(3):
            clock.record_access(hot)
            victim = clock.victim()
            evicted.append(victim)
            clock.remove(victim)
        assert hot not in evicted

    def test_frame_bounds(self):
        clock = ClockReplacer(4)
        with pytest.raises(IndexError):
            clock.insert(4)
        # A bytearray would index a negative frame from its end.
        with pytest.raises(IndexError):
            clock.record_access(-1)

    def test_victim_when_hits_re_set_every_bit_behind_the_hand(self):
        """Concurrent hits can re-set each bit the moment the hand clears
        it, for as many sweeps as it makes.  After two sweeps the hand
        takes the next present frame whatever its bit, instead of
        raising: any tracked frame is a valid candidate (the pool still
        checks pin and claim)."""

        class RehitBits(bytearray):
            """Every store a set: a hit lands right after each clear."""

            def __setitem__(self, index, value):
                super().__setitem__(index, 1)

        clock = ClockReplacer(4)
        for frame in (0, 2, 3):
            clock.insert(frame)
        clock._ref_bits = RehitBits(clock._ref_bits)
        assert clock.victim() == 0
        assert clock._hand == 1
        assert clock.victim() == 2  # frame 1 is not tracked


class TestLru:
    def test_evicts_least_recent(self):
        lru = LruReplacer(4)
        for frame in range(3):
            lru.insert(frame)
        lru.record_access(0)
        assert lru.victim() == 1

    def test_victim_is_stable_until_removed(self):
        lru = LruReplacer(4)
        lru.insert(0)
        lru.insert(1)
        assert lru.victim() == 0
        assert lru.victim() == 0
        lru.remove(0)
        assert lru.victim() == 1

    def test_access_unknown_frame_ignored(self):
        lru = LruReplacer(4)
        lru.record_access(3)  # not inserted; no error
        assert len(lru) == 0

    def test_empty(self):
        assert LruReplacer(2).victim() is None


class TestFifo:
    def test_evicts_in_insertion_order(self):
        fifo = FifoReplacer(4)
        fifo.insert(2)
        fifo.insert(0)
        fifo.record_access(2)  # FIFO ignores accesses
        assert fifo.victim() == 2

    def test_contains(self):
        fifo = FifoReplacer(4)
        fifo.insert(1)
        assert 1 in fifo
        assert 0 not in fifo


class TestRegistry:
    def test_known_policies(self):
        assert set(POLICIES) == {"clock", "lru", "fifo"}

    @pytest.mark.parametrize("name", ["clock", "lru", "fifo"])
    def test_make_replacer(self, name):
        replacer = make_replacer(name, 8)
        assert replacer.capacity == 8

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_replacer("arc", 8)


class TestReplacementProperties:
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60))
    def test_lru_never_evicts_most_recent(self, accesses):
        """Strict LRU: a frame touched immediately before the victim
        selection is never the victim (unless it is the only frame)."""
        lru = LruReplacer(9)
        protected = 8
        lru.insert(protected)
        for frame in accesses:
            if frame not in lru:
                lru.insert(frame)
            lru.record_access(frame)
            lru.record_access(protected)
            victim = lru.victim()
            assert victim is not None
            if len(lru) > 1:
                assert victim != protected
            if victim != protected:
                lru.remove(victim)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=60))
    def test_clock_victims_are_resident(self, accesses):
        """CLOCK only ever offers frames that are actually tracked."""
        clock = ClockReplacer(9)
        for frame in accesses:
            if frame not in clock:
                clock.insert(frame)
            clock.record_access(frame)
            victim = clock.victim()
            assert victim is not None
            assert victim in clock
            clock.remove(victim)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    def test_clock_len_matches_model(self, frames):
        clock = ClockReplacer(9)
        model: set[int] = set()
        for frame in frames:
            if frame in model:
                clock.remove(frame)
                model.discard(frame)
            else:
                clock.insert(frame)
                model.add(frame)
            assert len(clock) == len(model)
            assert all(f in clock for f in model)
