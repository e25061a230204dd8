"""The concurrent mapping table: one dict, one mutation lock."""

import threading

from repro.core.mapping_table import MappingTable


class TestBasics:
    def test_get_missing(self):
        assert MappingTable().get(1) is None

    def test_get_or_create_is_stable(self):
        table = MappingTable()
        first = table.get_or_create(42)
        second = table.get_or_create(42)
        assert first is second
        assert table.get(42) is first

    def test_len_and_contains(self):
        table = MappingTable()
        table.get_or_create(1)
        table.get_or_create(2)
        assert len(table) == 2
        assert 1 in table
        assert 3 not in table

    def test_remove(self):
        table = MappingTable()
        descriptor = table.get_or_create(1)
        assert table.remove(1) is descriptor
        assert table.remove(1) is None

    def test_iteration_snapshot(self):
        table = MappingTable()
        for page_id in range(10):
            table.get_or_create(page_id)
        seen = {d.page_id for d in table}
        assert seen == set(range(10))

    def test_clear(self):
        table = MappingTable()
        table.get_or_create(1)
        table.clear()
        assert len(table) == 0


class TestConcurrency:
    def test_concurrent_get_or_create_single_instance(self):
        table = MappingTable()
        results: list = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for page_id in range(100):
                results.append((page_id, table.get_or_create(page_id)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_page: dict[int, set[int]] = {}
        for page_id, descriptor in results:
            by_page.setdefault(page_id, set()).add(id(descriptor))
        assert all(len(instances) == 1 for instances in by_page.values())
        assert len(table) == 100
