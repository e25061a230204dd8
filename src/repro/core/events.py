"""Typed buffer-manager events and the observation bus.

The tier chain publishes one event per notable action — hits, misses,
installs, migrations up/down the chain, evictions, write-backs,
flushes, fine-grained loads — on an :class:`EventBus`.  The bus is an
observation port: the paper's own counters
(:class:`~repro.core.stats.BufferStats`) are incremented by the core
where each action happens, so a bare buffer manager has no subscriber
at all.  What attaches is an observer:

* the :class:`~repro.obs.hub.MetricsHub` and the page-lifecycle and
  decision tracers of :mod:`repro.obs`,
* the crash-point probes of :mod:`repro.faults.crashpoints`.

The adaptive controller of :mod:`repro.tuning` is not among them: its
caller says how many operations an epoch runs, so it counts nothing.

An event is five positional fields — ``(type, page_id, tier, src,
dirty)`` — and a subscriber is an object with
``apply_event(etype, page_id, tier, src, dirty)``; there is no event
object and no other way to be called.  The bus sits on the hottest
path, so delivery is engineered around two invariants:

* dispatch is *typed*: the bus keeps one immutable tuple of bound
  ``apply_event`` methods per :class:`EventType`, built when
  subscriptions change from each subscriber's optional
  ``event_interest`` (a set of event types; absent means all of them),
  so an event is only ever offered to the subscribers that asked for
  its type — the decision recorder wants one of the fifteen,
* :meth:`EventBus.publish` is one plain loop over the current tuple (no
  locking on the read side, no allocation; subscription changes swap
  the tuples atomically under a mutation lock),
* a publish site in the core tests its type's tuple
  (``events._appliers[etype.index]``) before calling, reading the bus at
  each call: an event nobody is offered costs no call, and a
  subscriber attached between operations sees every event from the
  next one on.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable

from ..hardware.specs import Tier
from ..pages.page import PageId


class EventType(enum.Enum):
    """The kinds of events the tier chain emits."""

    #: One logical buffer-manager operation started (read or write).
    OP_READ = "op_read"
    OP_WRITE = "op_write"
    #: The page was found buffered on ``tier``.
    HIT = "hit"
    #: The page was not buffered anywhere; an SSD fetch follows.
    MISS = "miss"
    #: A page copy was installed on ``tier`` straight from the store.
    INSTALL = "install"
    #: A copy moved up the chain (``src`` → ``tier``); the lower copy stays.
    MIGRATE_UP = "migrate_up"
    #: A copy moved down the chain on eviction/flush (``src`` → ``tier``).
    MIGRATE_DOWN = "migrate_down"
    #: A victim was selected for eviction on ``tier``.
    EVICT = "evict"
    #: A dirty page was written back to the store from ``tier``.
    WRITE_BACK = "write_back"
    #: A clean page was dropped from ``tier`` without any write.
    CLEAN_DROP = "clean_drop"
    #: A dirty page was made durable by the checkpoint flush path.
    FLUSH = "flush"
    #: An access was served in place on a non-top tier (DRAM bypass).
    DIRECT_READ = "direct_read"
    DIRECT_WRITE = "direct_write"
    #: A cache-line-grained load pulled lines from the NVM backing page.
    FINE_GRAINED_LOAD = "fine_grained_load"
    #: A mini page overflowed and was promoted to a full cache-line page.
    MINI_PAGE_PROMOTION = "mini_page_promotion"

    #: Dense position of the member, a plain int set below: the bus
    #: indexes its per-type subscriber tuples with it (hashing an enum
    #: member is a Python-level call).
    index: int


for _index, _etype in enumerate(EventType):
    _etype.index = _index
del _index, _etype


class OpBatchSummary:
    """Columnar summary of one contiguous run of fast-path operations.

    The batch access path executes runs of top-tier read hits as array
    operations instead of per-op calls; subscribers that implement
    ``apply_op_batch`` receive one summary per run and must update their
    state exactly as ``count`` per-op event sequences
    (``OP_READ`` → ``HIT`` [→ ``DIRECT_READ``]) would have.

    ``base_fp`` is the accumulator's fixed-point total just before the
    run's first charge and ``latency_fp`` the fixed-point charge of each
    op (a run's hits all cost the same), so the ``i``-th op starts at
    ``base_fp + i * latency_fp`` — latency observers reconstruct the
    exact per-op cost brackets a sequential run would have measured.
    """

    __slots__ = ("count", "tier", "direct", "page_ids", "base_fp", "latency_fp")

    def __init__(
        self,
        count: int,
        tier: Tier,
        direct: bool,
        page_ids,
        base_fp: int,
        latency_fp: int,
    ) -> None:
        self.count = count
        self.tier = tier
        #: True when the hits were served in place on a persistent top
        #: tier (the per-op path would have emitted DIRECT_READ events).
        self.direct = direct
        self.page_ids = page_ids
        self.base_fp = base_fp
        self.latency_fp = latency_fp

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpBatchSummary(count={self.count}, tier={self.tier.name}, "
            f"direct={self.direct})"
        )


class EventBus:
    """A minimal synchronous publish/subscribe hub.

    A subscriber is an object with ``apply_event(etype, page_id, tier,
    src, dirty)``.  It may declare ``event_interest``, a collection of
    the :class:`EventType` members it wants — it is then never offered
    any other event; without the attribute it is offered every event —
    and ``apply_op_batch(summary)`` to consume the batch access path's
    run summaries.  Anything else (a bare callable, ``list.append``) is
    rejected by :meth:`subscribe` with :class:`TypeError`.

    Subscription changes rebuild the immutable dispatch tuples under a
    mutation lock (concurrent ``threading`` workers may attach and
    detach observers mid-run), so :meth:`publish` — called several times
    per buffer operation — stays a plain lock-free iteration over the
    current tuple.
    """

    __slots__ = ("_subscribers", "_appliers", "_batch_appliers",
                 "_mutate_lock")

    def __init__(self) -> None:
        self._subscribers: tuple = ()
        #: Per ``EventType.index``: the bound ``apply_event`` methods of
        #: the subscribers offered that type.
        self._appliers: tuple[tuple[Callable, ...], ...] = \
            ((),) * len(EventType)
        #: Bound ``apply_op_batch`` methods of every subscriber, or
        #: ``None`` when at least one subscriber cannot consume batch
        #: summaries — the batch access path then falls back to per-op
        #: execution.
        self._batch_appliers: tuple[Callable, ...] | None = ()
        self._mutate_lock = threading.Lock()

    def subscribe(self, subscriber):
        """Register ``subscriber`` and return it (for later unsubscribe).

        Raises :class:`TypeError`, leaving the bus unchanged, when it
        has no ``apply_event``.
        """
        if not callable(getattr(subscriber, "apply_event", None)):
            raise TypeError(
                f"{subscriber!r} has no apply_event(etype, page_id, tier, "
                "src, dirty): the bus delivers events positionally only"
            )
        with self._mutate_lock:
            self._rebuild(self._subscribers + (subscriber,))
        return subscriber

    def unsubscribe(self, subscriber) -> None:
        with self._mutate_lock:
            self._rebuild(
                tuple(s for s in self._subscribers if s is not subscriber)
            )

    def is_subscribed(self, subscriber) -> bool:
        return any(s is subscriber for s in self._subscribers)

    @property
    def batch_path_active(self) -> bool:
        """True while every subscriber can consume batch summaries.

        The batch access path checks this before vectorising a run; any
        subscriber without ``apply_op_batch`` (an adaptive controller, a
        crash-point probe) transparently forces per-op execution so no
        observer ever misses events.
        """
        return self._batch_appliers is not None

    def _rebuild(self, subscribers: tuple) -> None:
        """Swap in a new subscriber set and recompute the dispatch tables."""
        every_type = range(len(EventType))
        appliers: list[list] = [[] for _ in every_type]
        batch_appliers: list | None = []
        for subscriber in subscribers:
            interest = getattr(subscriber, "event_interest", None)
            wanted = (every_type if interest is None
                      else {etype.index for etype in interest})
            for index in wanted:
                appliers[index].append(subscriber.apply_event)
            apply_batch = getattr(subscriber, "apply_op_batch", None)
            if apply_batch is None:
                batch_appliers = None
            elif batch_appliers is not None:
                batch_appliers.append(apply_batch)
        self._batch_appliers = (
            tuple(batch_appliers) if batch_appliers is not None else None
        )
        self._appliers = tuple(map(tuple, appliers))
        self._subscribers = subscribers

    def publish(self, type: EventType, page_id: PageId,
                tier: Tier | None = None, src: Tier | None = None,
                dirty: bool = False) -> None:
        """Offer one event to every subscriber interested in its type.

        One positional call per interested subscriber, nothing
        allocated.  The core's sites call it only when the type's tuple
        is non-empty, so a bare manager never calls it at all.
        """
        for apply in self._appliers[type.index]:
            apply(type, page_id, tier, src, dirty)

    def publish_op_batch(self, summary: OpBatchSummary) -> None:
        """Fan one batch summary out to every subscriber.

        Only valid while :attr:`batch_path_active`; the batch access
        path guarantees that by re-checking before every run.
        """
        appliers = self._batch_appliers
        if appliers is None:
            raise RuntimeError(
                "publish_op_batch called while a subscriber lacks apply_op_batch"
            )
        for apply in appliers:
            apply(summary)

    @property
    def num_subscribers(self) -> int:
        return len(self._subscribers)
