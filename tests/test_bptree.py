"""Concurrent B+Tree with optimistic lock coupling."""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.bptree import BPlusTree


class TestBasics:
    def test_empty(self):
        tree = BPlusTree()
        assert tree.get(1) is None
        assert len(tree) == 0
        assert 1 not in tree

    def test_insert_and_get(self):
        tree = BPlusTree()
        assert tree.insert(1, "a")
        assert tree.get(1) == "a"
        assert 1 in tree
        assert len(tree) == 1

    def test_overwrite(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert not tree.insert(1, "b")  # key existed
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_get_default(self):
        assert BPlusTree().get(9, default="missing") == "missing"

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(fanout=2)


class TestSplits:
    def test_grows_beyond_one_leaf(self):
        tree = BPlusTree(fanout=4)
        for key in range(100):
            tree.insert(key, key * 10)
        assert len(tree) == 100
        assert tree.depth() > 1
        for key in range(100):
            assert tree.get(key) == key * 10
        tree.check_invariants()

    def test_random_insert_order(self):
        tree = BPlusTree(fanout=8)
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert len(tree) == 500
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(500))

    def test_depth_grows_logarithmically(self):
        tree = BPlusTree(fanout=16)
        for key in range(2000):
            tree.insert(key, key)
        assert tree.depth() <= 5


class TestDelete:
    def test_delete_existing(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.delete(1)
        assert tree.get(1) is None
        assert len(tree) == 0

    def test_delete_missing(self):
        assert not BPlusTree().delete(42)

    def test_delete_from_split_tree(self):
        tree = BPlusTree(fanout=4)
        for key in range(64):
            tree.insert(key, key)
        for key in range(0, 64, 2):
            assert tree.delete(key)
        assert len(tree) == 32
        for key in range(64):
            expected = None if key % 2 == 0 else key
            assert tree.get(key) == expected
        tree.check_invariants()


class TestRange:
    def test_range_scan(self):
        tree = BPlusTree(fanout=4)
        for key in range(50):
            tree.insert(key, key * 2)
        result = tree.range(10, 19)
        assert result == [(k, k * 2) for k in range(10, 20)]

    def test_range_bounds_inclusive(self):
        tree = BPlusTree()
        for key in (1, 5, 9):
            tree.insert(key, key)
        assert tree.range(1, 9) == [(1, 1), (5, 5), (9, 9)]

    def test_empty_range(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.range(2, 3) == []

    def test_range_across_leaves(self):
        tree = BPlusTree(fanout=4)
        for key in range(100):
            tree.insert(key, key)
        assert len(tree.range(0, 99)) == 100

    def test_items_sorted(self):
        tree = BPlusTree(fanout=4)
        for key in (5, 1, 9, 3):
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [1, 3, 5, 9]


class TestStringKeys:
    def test_non_integer_keys(self):
        tree = BPlusTree(fanout=4)
        words = ["spitfire", "hymem", "dram", "nvm", "ssd", "clock", "mvto"]
        for word in words:
            tree.insert(word, word.upper())
        for word in words:
            assert tree.get(word) == word.upper()
        assert [k for k, _ in tree.items()] == sorted(words)


class TestConcurrency:
    def test_concurrent_inserts_disjoint_ranges(self):
        tree = BPlusTree(fanout=16)
        errors = []

        def worker(base):
            try:
                for i in range(300):
                    tree.insert(base + i, base + i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k * 1000,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tree) == 1200
        tree.check_invariants()
        for k in range(4):
            for i in range(300):
                assert tree.get(k * 1000 + i) == k * 1000 + i

    def test_concurrent_readers_and_writers(self):
        tree = BPlusTree(fanout=16)
        for key in range(200):
            tree.insert(key, key)
        stop = threading.Event()
        errors = []

        def reader():
            rng = random.Random(1)
            try:
                while not stop.is_set():
                    key = rng.randrange(200)
                    value = tree.get(key)
                    assert value is None or value in (key, key + 1000)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for key in range(200, 600):
                    tree.insert(key, key)
                for key in range(0, 200, 2):
                    tree.insert(key, key + 1000)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writer_thread = threading.Thread(target=writer)
        for t in readers:
            t.start()
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert len(tree) == 600
        tree.check_invariants()


class _Key:
    """An int key whose comparisons first run a one-shot hook.

    The hook stands in for a writer thread that is scheduled at exactly
    that point of an optimistic read — the interleaving a threaded test
    hits once in hundreds of runs, made deterministic.
    """

    #: ``{"lt" | "gt" | "eq": callable}``; a hook is removed as it fires.
    hooks: dict = {}

    def __init__(self, k: int) -> None:
        self.k = k

    @classmethod
    def _fire(cls, op: str) -> None:
        hook = cls.hooks.pop(op, None)
        if hook is not None:
            hook()

    def __lt__(self, other):
        self._fire("lt")
        return self.k < other.k

    def __gt__(self, other):
        self._fire("gt")
        return self.k > other.k

    def __eq__(self, other):
        self._fire("eq")
        return self.k == other.k

    def __ge__(self, other):  # check_invariants only
        return self.k >= other.k

    def __hash__(self):
        return hash(self.k)


class TestTornReads:
    """An optimistic reader that indexes a node mid-split must restart,
    not raise ``IndexError`` (benign in C++ OLC, fatal in Python)."""

    @pytest.fixture(autouse=True)
    def _no_stale_hooks(self):
        _Key.hooks.clear()
        yield
        _Key.hooks.clear()

    @staticmethod
    def deep_tree() -> BPlusTree:
        tree = BPlusTree(fanout=4)
        for i in range(40):
            tree.insert(_Key(i), i)
        assert tree.depth() >= 2
        return tree

    @pytest.mark.parametrize("op", ["get", "insert", "delete", "range"])
    def test_inner_node_split_under_the_descent(self, op):
        tree = self.deep_tree()

        def split_root():
            # What a concurrent pessimistic insert does while this
            # reader sits between ``bisect`` and ``children[index]``:
            # keys and children of the old root are cut in half.
            with tree._structure_lock:
                tree._split_root()

        _Key.hooks["lt"] = split_root
        if op == "get":
            assert tree.get(_Key(39)) == 39
        elif op == "insert":
            assert tree.insert(_Key(39), "new") is False
            assert tree.get(_Key(39)) == "new"
        elif op == "delete":
            assert tree.delete(_Key(39)) is True
            assert tree.get(_Key(39)) is None
        else:
            assert [v for _, v in tree.range(_Key(38), _Key(39))] == [38, 39]
        assert not _Key.hooks  # the split did happen mid-descent
        assert tree.restarts >= 1
        tree.check_invariants()

    def test_leaf_split_between_key_match_and_value_read(self):
        tree = BPlusTree(fanout=4)
        for i in range(4):
            tree.insert(_Key(i), i)  # one full leaf: the next insert splits
        _Key.hooks["eq"] = lambda: tree.insert(_Key(4), 4)
        # keys[3] matches, the leaf splits, values[3] is gone.
        assert tree.get(_Key(3)) == 3
        assert not _Key.hooks
        assert tree.restarts >= 1
        tree.check_invariants()

    def test_leaf_split_under_a_range_scan(self):
        tree = BPlusTree(fanout=4)
        for i in range(4):
            tree.insert(_Key(i), i)
        _Key.hooks["gt"] = lambda: tree.insert(_Key(4), 4)
        assert [v for _, v in tree.range(_Key(0), _Key(9))] == [0, 1, 2, 3, 4]
        assert not _Key.hooks
        assert tree.restarts >= 1

    def test_index_error_on_a_stable_node_is_not_swallowed(self):
        tree = BPlusTree(fanout=4)
        for i in range(3):
            tree.insert(i, i)
        tree._root.values.pop()  # a broken tree, no writer involved
        with pytest.raises(IndexError):
            tree.get(2)
        assert tree.restarts == 0


class TestAgainstDictModel:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["put", "del", "get"]), st.integers(0, 40)),
        max_size=120,
    ))
    def test_matches_dict_semantics(self, operations):
        tree = BPlusTree(fanout=4)
        model: dict[int, int] = {}
        for op, key in operations:
            if op == "put":
                assert tree.insert(key, key * 3) == (key not in model)
                model[key] = key * 3
            elif op == "del":
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            else:
                assert tree.get(key) == model.get(key)
        assert len(tree) == len(model)
        assert dict(tree.items()) == model
        tree.check_invariants()
