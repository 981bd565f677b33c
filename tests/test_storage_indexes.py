"""Tests for hash and ordered indexes."""

import pytest

from repro.errors import StorageError
from repro.storage.indexes import DuplicateKeyError, HashIndex, OrderedIndex


class TestHashIndex:
    def test_insert_lookup_delete(self):
        index = HashIndex("i", [0])
        index.insert(10, ("a", 1))
        index.insert(11, ("a", 2))
        index.insert(12, ("b", 3))
        assert sorted(index.lookup(("a",))) == [10, 11]
        index.delete(10, ("a", 1))
        assert index.lookup(("a",)) == [11]
        assert len(index) == 2

    def test_composite_key(self):
        index = HashIndex("i", [0, 2])
        index.insert(1, ("x", "ignored", 5))
        assert index.lookup(("x", 5)) == [1]
        assert index.lookup(("x", 6)) == []

    def test_unique_enforced(self):
        index = HashIndex("i", [0], unique=True)
        index.insert(1, ("k",))
        with pytest.raises(DuplicateKeyError):
            index.insert(2, ("k",))

    def test_delete_absent_is_noop(self):
        index = HashIndex("i", [0])
        index.delete(1, ("nope",))
        index.insert(1, ("a",))
        index.delete(99, ("a",))
        assert index.lookup(("a",)) == [1]

    def test_len_counts_entries_through_every_mutation(self):
        # __len__ is a maintained counter (the table re-accounts its
        # footprint on every write); it must track the buckets exactly,
        # through rejected inserts and no-op deletes too.
        import random

        rng = random.Random(3)
        index = HashIndex("i", [0], unique=False)
        unique = HashIndex("u", [0], unique=True)
        live = {}
        for step in range(2000):
            rid, key = rng.randrange(300), (rng.randrange(40),)
            if rng.random() < 0.6 and rid not in live:
                index.insert(rid, key)
                live[rid] = key
                try:
                    unique.insert(rid, key)
                except DuplicateKeyError:
                    pass
            else:
                index.delete(rid, live.pop(rid, key))
                unique.delete(rid, key)
            for each in (index, unique):
                entries = sum(len(each.lookup(k)) for k in each.keys())
                assert len(each) == entries
                assert each.estimated_bytes() == (
                    64 + 48 * len(list(each.keys())) + 8 * entries
                )
        assert len(index) == len(live) > 0

    def test_empty_key_columns_rejected(self):
        with pytest.raises(StorageError):
            HashIndex("i", [])

    def test_keys_iteration(self):
        index = HashIndex("i", [0])
        index.insert(1, ("a",))
        index.insert(2, ("b",))
        assert sorted(index.keys()) == [("a",), ("b",)]


class TestOrderedIndex:
    def make_index(self):
        index = OrderedIndex("i", [0])
        for rid, value in enumerate([30, 10, 20, 20, 40]):
            index.insert(rid, (value,))
        return index

    def test_point_lookup(self):
        index = self.make_index()
        assert sorted(index.lookup((20,))) == [2, 3]
        assert index.lookup((99,)) == []

    def test_range_inclusive(self):
        index = self.make_index()
        rids = index.range((10,), (30,))
        values = sorted(rids)
        assert values == [0, 1, 2, 3]

    def test_range_exclusive_bounds(self):
        index = self.make_index()
        assert sorted(index.range((10,), (30,), include_low=False, include_high=False)) == [2, 3]

    def test_open_ended_ranges(self):
        index = self.make_index()
        assert sorted(index.range(low=(30,))) == [0, 4]
        assert sorted(index.range(high=(10,))) == [1]
        assert len(index.range()) == 5

    def test_delete_specific_rid_among_duplicates(self):
        index = self.make_index()
        index.delete(2, (20,))
        assert index.lookup((20,)) == [3]

    def test_unique_enforced(self):
        index = OrderedIndex("i", [0], unique=True)
        index.insert(1, (5,))
        with pytest.raises(DuplicateKeyError):
            index.insert(2, (5,))
        index.insert(3, (6,))

    def test_null_keys_rejected(self):
        # A key with a NULL part is rejected from the index, not the row:
        # insert and delete leave it out, and no lookup or range sees it.
        index = OrderedIndex("i", [0, 1])
        index.insert(1, (None, 1))
        index.insert(2, (5, None))
        index.insert(3, (5, 1))
        assert len(index) == 1
        assert index.range() == [3]
        assert index.lookup((5, 1)) == [3]
        index.delete(1, (None, 1))
        index.delete(2, (5, None))
        assert index.range() == [3]

    def test_ordering_is_by_key_not_rid(self):
        index = OrderedIndex("i", [0])
        index.insert(100, (1,))
        index.insert(1, (2,))
        assert index.range() == [100, 1]
