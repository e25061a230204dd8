"""Unified DRAM-resident mapping table (§5.1, Fig. 4).

Maps logical page identifiers to shared page descriptors for *both* the
DRAM and NVM buffers.  The paper uses TBB's concurrent hash map; this
implementation shards the key space over independently locked dicts,
which gives the same semantics (atomic get-or-create / remove per key)
with contention limited to one shard.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

from ..pages.page import PageId
from .descriptors import SharedPageDescriptor


class MappingTable:
    """A sharded concurrent map from page id to shared descriptor."""

    def __init__(self, num_shards: int = 64) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self._num_shards = num_shards
        self._shards: list[dict[PageId, SharedPageDescriptor]] = [
            {} for _ in range(num_shards)
        ]
        self._locks = [threading.Lock() for _ in range(num_shards)]

    def _shard(self, page_id: PageId) -> int:
        return hash(page_id) % self._num_shards

    # ------------------------------------------------------------------
    def get(self, page_id: PageId) -> SharedPageDescriptor | None:
        index = self._shard(page_id)
        with self._locks[index]:
            return self._shards[index].get(page_id)

    def get_or_create(self, page_id: PageId) -> SharedPageDescriptor:
        """Atomically look up or insert the descriptor for ``page_id``."""
        index = hash(page_id) % self._num_shards
        shard = self._shards[index]
        # Probe before locking: ``dict.get`` is atomic under the GIL and
        # entries are never replaced, only removed — and a removal could
        # equally land the instant the shard lock was released.
        descriptor = shard.get(page_id)
        if descriptor is not None:
            return descriptor
        with self._locks[index]:
            descriptor = shard.get(page_id)
            if descriptor is None:
                descriptor = SharedPageDescriptor(page_id)
                shard[page_id] = descriptor
            return descriptor

    def remove(self, page_id: PageId) -> SharedPageDescriptor | None:
        """Drop the descriptor for ``page_id`` if present."""
        index = self._shard(page_id)
        with self._locks[index]:
            return self._shards[index].pop(page_id, None)

    def remove_if(
        self,
        page_id: PageId,
        predicate: Callable[[SharedPageDescriptor], bool],
    ) -> bool:
        """Atomically remove the entry when ``predicate`` holds.

        Used to garbage-collect descriptors whose page no longer has a
        copy on any buffered tier without racing a concurrent re-admit.
        """
        index = self._shard(page_id)
        with self._locks[index]:
            shard = self._shards[index]
            descriptor = shard.get(page_id)
            if descriptor is not None and predicate(descriptor):
                del shard[page_id]
                return True
            return False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, page_id: PageId) -> bool:
        return self.get(page_id) is not None

    def __iter__(self) -> Iterator[SharedPageDescriptor]:
        """Iterate over a snapshot of all descriptors (stats/recovery)."""
        for index in range(self._num_shards):
            with self._locks[index]:
                snapshot = list(self._shards[index].values())
            yield from snapshot

    def clear(self) -> None:
        for index in range(self._num_shards):
            with self._locks[index]:
                self._shards[index].clear()
