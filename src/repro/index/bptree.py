"""Concurrent B+Tree with optimistic lock coupling (§5.2, [24]).

Lookups descend without taking any locks, validating each node's
version after reading from it; a failed validation raises
:class:`~repro.index.olc.OlcRestart` and the operation retries from the
root.  Inserts attempt the same optimistic descent and upgrade the leaf
latch; when a structural modification (split) is required they fall
back to a pessimistic top-down descent that splits full nodes eagerly,
so a split never has to propagate upward while holding child locks.

An optimistic reader can observe a node *mid-modification* — ``keys``
already grown or split, ``children``/``values`` not yet — and index
past the end of the shorter list.  In the C++ original that is a stale
but harmless load the validation that follows rejects; in Python it is
an ``IndexError`` raised *before* the validation.  Every unvalidated
section therefore validates when it catches an ``IndexError``: a moved
version restarts like any failed validation (and is counted in
``restarts``), a stable one re-raises, because then the tree itself is
broken.

Keys must be mutually comparable; values are arbitrary objects (the
storage engine stores record identifiers).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Iterator

from .olc import OlcRestart, OptimisticLatch

#: Maximum number of keys per node before it splits.
DEFAULT_FANOUT = 64

#: Safety valve: an operation restarting more often than this indicates
#: a livelock bug rather than contention.
MAX_RESTARTS = 10_000


class _Node:
    __slots__ = ("latch", "keys", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.latch = OptimisticLatch()
        self.keys: list[Any] = []
        self.is_leaf = is_leaf


class _LeafNode(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self) -> None:
        super().__init__(is_leaf=True)
        self.values: list[Any] = []
        self.next_leaf: "_LeafNode | None" = None


class _InnerNode(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__(is_leaf=False)
        self.children: list[_Node] = []

    def child_for(self, key: Any) -> _Node:
        index = bisect.bisect_right(self.keys, key)
        return self.children[index]


class BPlusTree:
    """A thread-safe ordered map with OLC synchronisation."""

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 4:
            raise ValueError("fanout must be at least 4")
        self.fanout = fanout
        self._root: _Node = _LeafNode()
        self._root_latch = OptimisticLatch()
        self._structure_lock = threading.RLock()
        self._size = 0
        self._size_lock = threading.Lock()
        self.restarts = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Optimistic point lookup."""
        for _ in range(MAX_RESTARTS):
            try:
                return self._get_once(key, default)
            except OlcRestart:
                self.restarts += 1
        raise RuntimeError("B+Tree lookup livelocked")

    def _descend(self, key: Any) -> tuple[_LeafNode, int]:
        """Optimistic descent to the leaf covering ``key``.

        Returns the leaf and the version its (still unvalidated) read
        started at; the caller validates or upgrades against it.
        """
        root_version = self._root_latch.read_lock_or_restart()
        node = self._root
        self._root_latch.check_or_restart(root_version)
        version = node.latch.read_lock_or_restart()
        while not node.is_leaf:
            inner: _InnerNode = node  # type: ignore[assignment]
            try:
                child = inner.child_for(key)
            except IndexError:
                node.latch.check_or_restart(version)  # torn read: restart
                raise
            # Lock coupling: validate the parent *after* reading the child
            # pointer, then move the "read lock" to the child.
            child_version = child.latch.read_lock_or_restart()
            node.latch.check_or_restart(version)
            node, version = child, child_version
        return node, version  # type: ignore[return-value]

    def _get_once(self, key: Any, default: Any) -> Any:
        leaf, version = self._descend(key)
        try:
            index = bisect.bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                value = leaf.values[index]
            else:
                value = default
        except IndexError:
            leaf.latch.check_or_restart(version)  # torn read: restart
            raise
        leaf.latch.check_or_restart(version)
        return value

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        with self._size_lock:
            return self._size

    # ------------------------------------------------------------------
    # Insert / update
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> bool:
        """Insert or overwrite; returns True when the key was new."""
        for _ in range(MAX_RESTARTS):
            try:
                return self._insert_optimistic(key, value)
            except OlcRestart:
                self.restarts += 1
                try:
                    return self._insert_pessimistic(key, value)
                except OlcRestart:
                    self.restarts += 1
        raise RuntimeError("B+Tree insert livelocked")

    def _insert_optimistic(self, key: Any, value: Any) -> bool:
        leaf, version = self._descend(key)
        if len(leaf.keys) >= self.fanout:
            # Needs a split; take the pessimistic path.
            raise OlcRestart
        leaf.latch.upgrade_to_write_lock_or_restart(version)
        try:
            return self._leaf_put(leaf, key, value)
        finally:
            leaf.latch.write_unlock()

    def _insert_pessimistic(self, key: Any, value: Any) -> bool:
        """Top-down descent holding the structure lock; splits eagerly."""
        with self._structure_lock:
            if len(self._root.keys) >= self.fanout:
                self._split_root()
            node = self._root
            while not node.is_leaf:
                inner: _InnerNode = node  # type: ignore[assignment]
                index = bisect.bisect_right(inner.keys, key)
                child = inner.children[index]
                if len(child.keys) >= self.fanout:
                    self._split_child(inner, index)
                    index = bisect.bisect_right(inner.keys, key)
                    child = inner.children[index]
                node = child
            leaf: _LeafNode = node  # type: ignore[assignment]
            leaf.latch.write_lock()
            try:
                return self._leaf_put(leaf, key, value)
            finally:
                leaf.latch.write_unlock()

    def _leaf_put(self, leaf: _LeafNode, key: Any, value: Any) -> bool:
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
            return False
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        with self._size_lock:
            self._size += 1
        return True

    # ------------------------------------------------------------------
    # Structural modifications (under the structure lock)
    # ------------------------------------------------------------------
    def _split_root(self) -> None:
        old_root = self._root
        old_root.latch.write_lock()
        self._root_latch.write_lock()
        try:
            new_root = _InnerNode()
            separator, right = self._split_node(old_root)
            new_root.keys = [separator]
            new_root.children = [old_root, right]
            self._root = new_root
        finally:
            self._root_latch.write_unlock()
            old_root.latch.write_unlock()

    def _split_child(self, parent: _InnerNode, index: int) -> None:
        child = parent.children[index]
        parent.latch.write_lock()
        child.latch.write_lock()
        try:
            separator, right = self._split_node(child)
            parent.keys.insert(index, separator)
            parent.children.insert(index + 1, right)
        finally:
            child.latch.write_unlock()
            parent.latch.write_unlock()

    def _split_node(self, node: _Node) -> tuple[Any, _Node]:
        """Split ``node`` in half; return (separator key, right sibling)."""
        middle = len(node.keys) // 2
        if node.is_leaf:
            leaf: _LeafNode = node  # type: ignore[assignment]
            right = _LeafNode()
            right.keys = leaf.keys[middle:]
            right.values = leaf.values[middle:]
            right.next_leaf = leaf.next_leaf
            leaf.keys = leaf.keys[:middle]
            leaf.values = leaf.values[:middle]
            leaf.next_leaf = right
            return right.keys[0], right
        inner: _InnerNode = node  # type: ignore[assignment]
        right_inner = _InnerNode()
        separator = inner.keys[middle]
        right_inner.keys = inner.keys[middle + 1:]
        right_inner.children = inner.children[middle + 1:]
        inner.keys = inner.keys[:middle]
        inner.children = inner.children[: middle + 1]
        return separator, right_inner

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns True when it existed.

        Leaves are allowed to underflow (no rebalancing), the common
        simplification in latch-free/optimistic trees; empty leaves are
        retired lazily on subsequent splits.
        """
        for _ in range(MAX_RESTARTS):
            try:
                return self._delete_once(key)
            except OlcRestart:
                self.restarts += 1
        raise RuntimeError("B+Tree delete livelocked")

    def _delete_once(self, key: Any) -> bool:
        leaf, version = self._descend(key)
        leaf.latch.upgrade_to_write_lock_or_restart(version)
        try:
            index = bisect.bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                del leaf.keys[index]
                del leaf.values[index]
                with self._size_lock:
                    self._size -= 1
                return True
            return False
        finally:
            leaf.latch.write_unlock()

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------
    def range(self, low: Any, high: Any) -> list[tuple[Any, Any]]:
        """All (key, value) pairs with ``low <= key <= high``.

        The scan walks the leaf chain; each leaf is read optimistically
        and revalidated, restarting the whole scan on interference.
        """
        for _ in range(MAX_RESTARTS):
            try:
                return self._range_once(low, high)
            except OlcRestart:
                self.restarts += 1
        raise RuntimeError("B+Tree range scan livelocked")

    def _range_once(self, low: Any, high: Any) -> list[tuple[Any, Any]]:
        results: list[tuple[Any, Any]] = []
        leaf: _LeafNode | None
        leaf, version = self._descend(low)
        while leaf is not None:
            chunk: list[tuple[Any, Any]] = []
            done = False
            try:
                start = bisect.bisect_left(leaf.keys, low)
                for i in range(start, len(leaf.keys)):
                    if leaf.keys[i] > high:
                        done = True
                        break
                    chunk.append((leaf.keys[i], leaf.values[i]))
            except IndexError:
                leaf.latch.check_or_restart(version)  # torn read: restart
                raise
            next_leaf = leaf.next_leaf
            leaf.latch.check_or_restart(version)
            results.extend(chunk)
            if done or next_leaf is None:
                return results
            leaf = next_leaf
            version = leaf.latch.read_lock_or_restart()
        return results

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Snapshot iteration over all pairs, in key order."""
        with self._structure_lock:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]  # type: ignore[union-attr]
            leaf: _LeafNode | None = node  # type: ignore[assignment]
            pairs: list[tuple[Any, Any]] = []
            while leaf is not None:
                pairs.extend(zip(leaf.keys, leaf.values))
                leaf = leaf.next_leaf
        return iter(pairs)

    # ------------------------------------------------------------------
    def depth(self) -> int:
        with self._structure_lock:
            depth = 1
            node = self._root
            while not node.is_leaf:
                depth += 1
                node = node.children[0]  # type: ignore[union-attr]
            return depth

    def check_invariants(self) -> None:
        """Validate ordering and structure (test helper)."""
        with self._structure_lock:
            self._check_node(self._root, None, None)

    def _check_node(self, node: _Node, low: Any, high: Any) -> None:
        keys = node.keys
        assert keys == sorted(keys), "keys out of order"
        for key in keys:
            if low is not None:
                assert key >= low, "key below subtree bound"
            if high is not None:
                assert key < high, "key above subtree bound"
        if node.is_leaf:
            leaf: _LeafNode = node  # type: ignore[assignment]
            assert len(leaf.keys) == len(leaf.values)
            return
        inner: _InnerNode = node  # type: ignore[assignment]
        assert len(inner.children) == len(keys) + 1
        bounds = [low, *keys, high]
        for i, child in enumerate(inner.children):
            self._check_node(child, bounds[i], bounds[i + 1])
