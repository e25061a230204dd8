"""TierChain decomposition: chain structure, lookups, events.

The buffer manager is a facade over an ordered :class:`TierChain`; these
tests pin down the chain's shape and neighbour relations, the
chain-based tier lookups that replaced the old DRAM/NVM ternaries, and
the event bus that feeds every observer.
"""

from __future__ import annotations

import pytest
from conftest import EventRecorder, make_bm

from repro.core.events import EventBus, EventType
from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER
from repro.core.tier_chain import TierChain
from repro.hardware.specs import Tier


class TestChainStructure:
    def test_three_tier_chain(self, eager_bm):
        chain = eager_bm.chain
        assert isinstance(chain, TierChain)
        assert chain.tiers == (Tier.DRAM, Tier.NVM)
        assert chain.top.tier is Tier.DRAM
        assert Tier.DRAM in chain and Tier.NVM in chain
        assert Tier.SSD not in chain

    def test_neighbours(self, eager_bm):
        chain = eager_bm.chain
        dram = chain.node(Tier.DRAM)
        nvm = chain.node(Tier.NVM)
        assert chain.lower_of(dram) is nvm
        assert chain.upper_of(nvm) is dram
        assert chain.upper_of(dram) is None
        assert chain.lower_of(nvm) is None

    def test_persistence_split(self, eager_bm):
        chain = eager_bm.chain
        assert [n.tier for n in chain.volatile_nodes] == [Tier.DRAM]
        assert [n.tier for n in chain.persistent_nodes] == [Tier.NVM]
        assert chain.first_persistent_below(chain.top).tier is Tier.NVM

    def test_two_tier_chain(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        assert bm.chain.tiers == (Tier.DRAM,)
        assert bm.chain.lower_of(bm.chain.top) is None
        assert bm.chain.first_persistent_below(bm.chain.top) is None


class TestChainLookups:
    """Regression for the old ``tier is DRAM ? ... : ...`` ternaries."""

    def test_pool_get_resolves_any_buffer_tier(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        # Eager policy leaves copies on both tiers.
        shared = eager_bm.table.get(page)
        assert shared.copy_on(Tier.DRAM).tier is Tier.DRAM
        assert shared.copy_on(Tier.NVM).tier is Tier.NVM

    def test_pool_get_absent_tier_is_none(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        page = bm.allocate_page()
        bm.read(page)
        assert bm.table.get(page).copy_on(Tier.NVM) is None
        assert bm.table.get(page).copy_on(Tier.DRAM) is not None

    def test_pool_get_unknown_page_is_none(self, eager_bm):
        assert eager_bm.table.get(12345) is None

    def test_pools_view_backed_by_chain(self, eager_bm):
        for tier, pool in eager_bm.pools.items():
            assert eager_bm.chain.node(tier).pool is pool


class TestResetStatsDevices:
    def test_reset_clears_device_counters(self, eager_bm):
        for page in range(6):
            eager_bm.allocate_page(page)
            eager_bm.write(page)
        assert eager_bm.nvm_write_volume_gb() > 0.0
        nvm = eager_bm.hierarchy.device(Tier.NVM)
        assert nvm.counters.write_bytes > 0
        eager_bm.reset_stats()
        assert eager_bm.nvm_write_volume_gb() == 0.0
        for device in eager_bm.hierarchy.devices.values():
            assert device.counters.read_bytes == 0
            assert device.counters.write_bytes == 0
        assert eager_bm.stats.writes == 0

    def test_stats_keep_counting_after_reset(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        before = eager_bm.stats
        eager_bm.reset_stats()
        eager_bm.read(page)
        # The post-reset hit lands in the *new* BufferStats object; the
        # one taken before keeps its counts.
        assert eager_bm.stats.dram_hits == 1
        assert eager_bm.stats.reads == 1
        assert before is not eager_bm.stats
        assert before.reads == 1 and before.ssd_fetches == 1


class TestEventBus:
    def test_miss_emits_miss_and_install(self, eager_bm):
        seen = eager_bm.events.subscribe(EventRecorder()).events
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        kinds = [event.type for event in seen]
        assert EventType.MISS in kinds
        assert EventType.INSTALL in kinds
        miss = next(e for e in seen if e.type is EventType.MISS)
        assert miss.page_id == page

    def test_unsubscribe_stops_delivery(self, eager_bm):
        handler = eager_bm.events.subscribe(EventRecorder())
        seen = handler.events
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        count = len(seen)
        assert count > 0
        eager_bm.events.unsubscribe(handler)
        eager_bm.read(page)
        assert len(seen) == count

    def test_publish_delivers_the_five_fields_positionally(self):
        """``apply_event`` receives exactly what ``publish`` was given,
        absent fields as their defaults."""
        bus = EventBus()
        recorder = bus.subscribe(EventRecorder())
        bus.publish(EventType.HIT, 7, tier=Tier.DRAM)
        bus.publish(EventType.WRITE_BACK, 3, Tier.SSD, Tier.NVM, True)
        assert recorder.events == [
            (EventType.HIT, 7, Tier.DRAM, None, False),
            (EventType.WRITE_BACK, 3, Tier.SSD, Tier.NVM, True),
        ]

    def test_subscriber_without_apply_event_is_rejected(self):
        """A plain callable is an error at ``subscribe``, not a silent
        second delivery format — and the bus is unchanged afterwards."""
        bus = EventBus()
        recorder = bus.subscribe(EventRecorder())
        events: list = []
        for foreign in (events.append, lambda event: None, object()):
            with pytest.raises(TypeError, match="apply_event"):
                bus.subscribe(foreign)
            assert not bus.is_subscribed(foreign)
        assert bus.num_subscribers == 1
        bus.publish(EventType.MISS, 3)
        assert recorder.events == [(EventType.MISS, 3, None, None, False)]
        assert events == []

    def test_typed_dispatch_offers_each_subscriber_what_it_saw_before(self):
        """Three subscribers over one seeded run, one of them joining and
        leaving mid-run.

        A subscriber without ``event_interest`` is offered every event; one
        with it exactly the events of those types, in order; one that joins
        late every event published while it is subscribed.  The
        ``BufferStats`` the core counts are what the full stream says.
        """
        import random

        interest = frozenset({EventType.HIT, EventType.MIGRATE_UP,
                              EventType.EVICT})
        bm = make_bm(dram_gb=1.0, nvm_gb=2.0, policy=SPITFIRE_EAGER)
        bus = bm.events
        everything = bus.subscribe(EventRecorder())
        interested = bus.subscribe(EventRecorder(interest))
        late = EventRecorder()
        pages = [bm.allocate_page() for _ in range(24)]
        rng = random.Random(5)
        joined = left = None
        for index in range(600):
            if index == 200:
                joined = len(everything.events)
                bus.subscribe(late)
            elif index == 400:
                left = len(everything.events)
                bus.unsubscribe(late)
            page = pages[rng.randrange(len(pages))]
            if rng.random() < 0.4:
                bm.write(page, 0, 64)
            else:
                bm.read(page)

        full = everything.events
        assert interested.events == [
            event for event in full if event.type in interest
        ]
        assert late.events == full[joined:left]
        assert 0 < joined < left < len(full)

        def count(etype, **match):
            return sum(
                1 for kind, _page, tier, src, _dirty in full
                if kind is etype
                and all({"tier": tier, "src": src}[k] is v
                        for k, v in match.items())
            )

        stats = bm.stats
        assert stats.reads == count(EventType.OP_READ)
        assert stats.writes == count(EventType.OP_WRITE)
        assert stats.reads + stats.writes == 600
        assert stats.dram_hits == count(EventType.HIT, tier=Tier.DRAM)
        assert stats.nvm_hits == count(EventType.HIT, tier=Tier.NVM)
        assert stats.ssd_fetches == count(EventType.MISS)
        assert stats.dram_evictions == count(EventType.EVICT, tier=Tier.DRAM)
        assert stats.nvm_to_dram == count(EventType.MIGRATE_UP) > 0
        assert stats.dram_to_nvm == count(EventType.MIGRATE_DOWN) > 0

    def test_concurrent_subscribe_during_publish(self):
        """subscribe/unsubscribe from other threads must never corrupt
        the handler list or crash a concurrent publish."""
        import threading

        bus = EventBus()
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    handle = bus.subscribe(EventRecorder())
                    bus.unsubscribe(handle)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(3_000):
                bus.publish(EventType.HIT, i, tier=Tier.DRAM)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors

    def test_trace_matches_stats(self, eager_bm):
        seen = eager_bm.events.subscribe(EventRecorder()).events
        for page in range(4):
            eager_bm.allocate_page(page)
            eager_bm.read(page)
            eager_bm.read(page)
        stats = eager_bm.stats
        kinds = [event.type for event in seen]
        assert kinds.count(EventType.MISS) == stats.ssd_fetches == 4
        assert kinds.count(EventType.HIT) == stats.dram_hits + stats.nvm_hits
        assert stats.dram_hits == sum(
            1 for event in seen
            if event.type is EventType.HIT and event.tier is Tier.DRAM)

