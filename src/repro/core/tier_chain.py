"""The composable tier chain: buffer pools stacked into an ordered chain.

A :class:`TierNode` bundles everything one buffer tier needs — its
:class:`BufferPool`, its simulated device, and the per-tier policy
facts (persistence, which migration knobs apply).  Nodes compose into a
:class:`TierChain`, ordered fastest-first, and the buffer manager's
fetch/promotion/eviction/flush paths walk the chain generically instead
of naming DRAM and NVM.  The paper's three-tier configurations are the
chains ``[DRAM]``, ``[NVM]``, and ``[DRAM, NVM]`` over an SSD store.
"""

from __future__ import annotations

import threading

from ..faults.plan import DeviceIOError
from ..hardware.cost_model import StorageHierarchy
from ..hardware.device import Device
from ..hardware.memory_mode import MemoryModeDevice
from ..hardware.specs import BUFFER_TIER_ORDER, Tier
from ..pages.page import PageId
from ..replacement.registry import make_replacer
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .devio import read_with_retry, write_with_retry
from .migration import Edge
from .stats import BufferStats


class BufferFullError(RuntimeError):
    """All frames of a buffer are pinned; no victim can be found."""


class BufferPool:
    """One tier's frame pool: frames, occupancy accounting, replacer.

    A pool keeps what only it can know — which frames are occupied and
    by which descriptor, the free list, byte occupancy, the replacement
    state.  Which *page* a tier holds is the mapping table's to say
    (``table.get(page).copy_on(tier)``): :meth:`insert` and
    :meth:`remove` change a frame and the shared descriptor's pointer
    to it in one operation, so the two can never be seen to disagree.

    Capacity is tracked in bytes so that mini pages (which occupy ~1 KB
    instead of 16 KB) genuinely increase how many pages fit — the whole
    point of the mini-page optimization.
    """

    def __init__(self, tier: Tier, capacity_bytes: int, replacement: str,
                 min_entry_bytes: int) -> None:
        if capacity_bytes < min_entry_bytes:
            raise ValueError(
                f"{tier.name} pool of {capacity_bytes} B cannot hold even one "
                f"entry of {min_entry_bytes} B"
            )
        self.tier = tier
        self.capacity_bytes = capacity_bytes
        self.max_entries = capacity_bytes // min_entry_bytes
        self.replacer = make_replacer(replacement, self.max_entries)
        #: Occupied frames, ``frame index -> descriptor``, oldest install
        #: first: the order every frame scan (checkpoint flush, crash
        #: drop, recovery) visits them in.
        self._frames: dict[int, TierPageDescriptor] = {}
        self._free = list(range(self.max_entries - 1, -1, -1))
        self.used_bytes = 0
        self.lock = threading.RLock()

    # ------------------------------------------------------------------
    def needs_space(self, incoming_bytes: int) -> bool:
        with self.lock:
            if not self._free:
                return True
            return self.used_bytes + incoming_bytes > self.capacity_bytes

    def insert(self, shared: SharedPageDescriptor, content,
               entry_bytes: int) -> TierPageDescriptor:
        """Install ``content`` into a free frame and point ``shared`` at it.

        The caller ensured space and holds the page's latch for this
        tier; frame and pointer are set together under the pool lock.
        """
        with self.lock:
            if not self._free:
                raise BufferFullError(f"{self.tier.name} pool has no free frame")
            frame = self._free[-1]
            descriptor = TierPageDescriptor(self.tier, frame, content,
                                            entry_bytes)
            # Raises — nothing has changed yet — when the page already
            # has a copy on this tier.
            shared.attach(descriptor)
            self._free.pop()
            self._frames[frame] = descriptor
            self.used_bytes += entry_bytes
            # Under the pool lock, like every change of which frames the
            # replacer tracks: a ``remove`` of the frame's previous
            # occupant, still on its way to the replacer, would
            # otherwise untrack this one — an occupied frame no sweep
            # can ever evict again.
            self.replacer.insert(frame)
        return descriptor

    def remove(self, shared: SharedPageDescriptor | None,
               descriptor: TierPageDescriptor) -> None:
        """Free ``descriptor``'s frame and clear ``shared``'s pointer to it.

        The counterpart of :meth:`insert`, under the same latch.
        ``shared`` is ``None`` only for a persistent frame a crash left
        without a mapping-table entry (recovery has not re-mapped it).
        """
        with self.lock:
            frame = descriptor.frame_index
            if self._frames.get(frame) is not descriptor:
                raise RuntimeError(
                    f"descriptor for page {descriptor.page_id} is stale"
                )
            del self._frames[frame]
            if shared is not None:
                shared.detach(self.tier)
            self.used_bytes -= descriptor.entry_bytes
            self._free.append(frame)
            self.replacer.remove(frame)

    def resize_entry(self, descriptor: TierPageDescriptor, new_bytes: int) -> None:
        """Adjust occupancy when a mini page is promoted to a full page."""
        with self.lock:
            self.used_bytes += new_bytes - descriptor.entry_bytes
            descriptor.entry_bytes = new_bytes

    def pick_victim(self) -> TierPageDescriptor | None:
        """Atomically claim an unpinned victim.

        The claim (taken under the pool lock) guarantees two concurrent
        evictors never work on the same frame; the caller must either
        remove the descriptor or :meth:`unclaim` it.
        """
        replacer = self.replacer
        # At most ``2 * tracked + 2`` candidates, ``tracked`` read when
        # the first one is refused: a first candidate that is taken —
        # nearly every probe — never asks the replacer for its length.
        probes = bound = 0
        while True:
            frame = replacer.victim()
            if frame is None:
                return None
            with self.lock:
                descriptor = self._frames.get(frame)
                # ``descriptor.pinned``, spelled out: every eviction
                # probe lands here.
                if descriptor is not None and descriptor.pin_count <= 0 \
                        and not descriptor.claimed:
                    descriptor.claimed = True
                    return descriptor
                if not bound:
                    bound = 2 * len(replacer) + 2
                if descriptor is None:
                    replacer.remove(frame)
            if descriptor is not None:
                replacer.record_access(frame)
            probes += 1
            if probes >= bound:
                return None

    def unclaim(self, descriptor: TierPageDescriptor) -> None:
        """Release an eviction claim without evicting."""
        with self.lock:
            descriptor.claimed = False

    def descriptors(self) -> list[TierPageDescriptor]:
        """A snapshot of the occupied frames' descriptors."""
        with self.lock:
            return list(self._frames.values())

    def resident_page_ids(self) -> set[PageId]:
        with self.lock:
            return {descriptor.content.page_id
                    for descriptor in self._frames.values()}

    def __len__(self) -> int:
        with self.lock:
            return len(self._frames)


class TierNode:
    """One buffer tier of the chain: pool + device + per-tier facts."""

    __slots__ = ("tier", "pool", "device", "persistent", "index",
                 "fetch_edge", "promote_edge", "evict_edge", "_page_tagged")

    def __init__(self, tier: Tier, pool: BufferPool,
                 device: Device | MemoryModeDevice, index: int = 0) -> None:
        self.tier = tier
        self.pool = pool
        self.device = device
        #: Persistent nodes survive a crash and pay persist barriers on
        #: writes; volatile nodes are dropped by :meth:`simulate_crash`.
        self.persistent = tier.is_persistent
        #: Position in the chain (0 is the top/fastest node).
        self.index = index
        #: The edges a migration decision about this node names, built
        #: once per chain position (:class:`TierChain` fills in the two
        #: that depend on the neighbours): an SSD fetch admitted here, a
        #: promotion into the node above, an eviction into the node
        #: below (``None`` at the top / bottom).
        self.fetch_edge = Edge(Tier.SSD, tier)
        self.promote_edge: Edge | None = None
        self.evict_edge: Edge | None = None
        #: §2.2's DRAM-cache-over-NVM device needs the *page identity*
        #: of a transfer to model its direct-mapped cache.
        self._page_tagged = isinstance(device, MemoryModeDevice)

    # ------------------------------------------------------------------
    # Page transfers on this tier's device
    # ------------------------------------------------------------------
    def read(self, page_id: PageId, nbytes: int,
             sequential: bool = False) -> None:
        """Charge a read of ``nbytes`` of ``page_id`` on this tier.

        The device dispatch the core's page transfers share: a
        memory-mode device is told which page is touched; a plain (or
        fault-injecting) device is issued the transfer, and a transient
        :class:`~repro.faults.plan.DeviceIOError` resumes the bounded,
        charged backoff loop of :mod:`repro.core.devio`.  An eviction's
        victim reads issue the device call the same way but without
        the page identity (EXPERIMENTS.md, known deviation 5).
        """
        device = self.device
        if self._page_tagged:
            device.read_page(page_id, nbytes, sequential)
            return
        try:
            device.read(nbytes, sequential)
        except DeviceIOError as exc:
            read_with_retry(device, nbytes, sequential, failed=exc)

    def write(self, page_id: PageId, nbytes: int,
              sequential: bool = False) -> None:
        """Charge a write of ``nbytes`` of ``page_id``; see :meth:`read`."""
        device = self.device
        if self._page_tagged:
            device.write_page(page_id, nbytes, sequential)
            return
        try:
            device.write(nbytes, sequential)
        except DeviceIOError as exc:
            write_with_retry(device, nbytes, sequential, failed=exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "persistent" if self.persistent else "volatile"
        return f"TierNode({self.tier.name}, {kind}, {len(self.pool)} resident)"


class TierChain:
    """An ordered (fastest-first) sequence of buffer tiers over a store.

    The chain is the single source of truth for tier topology: which
    buffer tiers exist, their order, and which are persistent.  Lookups
    are O(1) via a rank-indexed table.

    It also carries :attr:`stats`, the paper's counters, which every
    component walking the chain increments where the counted action
    happens.
    """

    __slots__ = ("nodes", "_by_tier", "stats")

    def __init__(self, nodes: tuple[TierNode, ...] | list[TierNode]) -> None:
        #: The current :class:`~repro.core.stats.BufferStats`, read at
        #: each counting site: ``BufferManager.reset_stats`` swaps in a
        #: fresh one, and a reference taken before keeps its counts.
        self.stats = BufferStats()
        ordered = tuple(sorted(nodes, key=lambda n: n.tier.rank))
        for index, node in enumerate(ordered):
            node.index = index
            if index:
                upper = ordered[index - 1]
                node.promote_edge = Edge(node.tier, upper.tier)
                upper.evict_edge = Edge(upper.tier, node.tier)
        self.nodes: tuple[TierNode, ...] = ordered
        self._by_tier = {node.tier: node for node in ordered}
        if len(self._by_tier) != len(ordered):
            raise ValueError("duplicate tier in chain")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, hierarchy: StorageHierarchy, replacement: str,
              top_entry_bytes: int | None = None) -> "TierChain":
        """Create a chain with one node per buffer tier of ``hierarchy``.

        ``top_entry_bytes`` shrinks the top node's minimum entry size so
        mini pages genuinely raise its page count; all other nodes hold
        full pages.
        """
        nodes = []
        page_size = hierarchy.page_size
        for tier in BUFFER_TIER_ORDER:
            if not hierarchy.has_tier(tier):
                continue
            device = hierarchy.device(tier)
            capacity = device.capacity_bytes or 0
            entry = page_size
            if not nodes and top_entry_bytes is not None:
                entry = top_entry_bytes
            pool = BufferPool(tier, capacity, replacement, entry)
            nodes.append(TierNode(tier, pool, device))
        return cls(nodes)

    # ------------------------------------------------------------------
    # Lookup / topology
    # ------------------------------------------------------------------
    def get(self, tier: Tier) -> TierNode | None:
        return self._by_tier.get(tier)

    def node(self, tier: Tier) -> TierNode:
        try:
            return self._by_tier[tier]
        except KeyError:
            raise KeyError(f"chain has no {tier.name} node") from None

    def __contains__(self, tier: Tier) -> bool:
        return tier in self._by_tier

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def top(self) -> TierNode | None:
        """The fastest buffer node (``None`` for a bufferless chain)."""
        return self.nodes[0] if self.nodes else None

    @property
    def tiers(self) -> tuple[Tier, ...]:
        return tuple(node.tier for node in self.nodes)

    def lower_of(self, node: TierNode) -> TierNode | None:
        """The next-slower buffer node, or ``None`` at the bottom."""
        index = node.index + 1
        return self.nodes[index] if index < len(self.nodes) else None

    def below(self, node: TierNode) -> tuple[TierNode, ...]:
        """All buffer nodes strictly below ``node``, fastest first."""
        return self.nodes[node.index + 1:]

    def first_persistent_below(self, node: TierNode) -> TierNode | None:
        """The nearest persistent buffer node below ``node``.

        This is where checkpoint flushes from a volatile tier can land
        instead of paying the SSD write (§3.4 applied to checkpoints).
        """
        for lower in self.below(node):
            if lower.persistent:
                return lower
        return None

    @property
    def persistent_nodes(self) -> tuple[TierNode, ...]:
        return tuple(node for node in self.nodes if node.persistent)

    @property
    def volatile_nodes(self) -> tuple[TierNode, ...]:
        return tuple(node for node in self.nodes if not node.persistent)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        chain = "→".join(node.tier.name for node in self.nodes) or "∅"
        return f"TierChain({chain}→SSD)"
