"""Tests for in-memory tables, including memory accounting."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import OutOfMemoryError, StorageError
from repro.machine.memory import MemoryAccount
from repro.storage import DataType, Schema, Table
from repro.storage.indexes import DuplicateKeyError, OrderedIndex


@pytest.fixture
def schema():
    return Schema.of(id=DataType.INT, name=DataType.STRING)


class TestBasicOperations:
    def test_insert_assigns_increasing_rids(self, schema):
        table = Table("t", schema)
        rids = [table.insert(row) for row in [(1, "a"), (2, "b")]]
        assert rids == [0, 1]
        assert len(table) == 2

    def test_get_and_scan(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        assert table.get(0) == (1, "a")
        assert list(table.scan()) == [(0, (1, "a"))]
        assert list(table.rows()) == [(1, "a")]

    def test_get_missing_raises(self, schema):
        table = Table("t", schema)
        with pytest.raises(StorageError):
            table.get(0)

    def test_delete_returns_row_and_frees_rid(self, schema):
        table = Table("t", schema)
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        assert table.delete(0) == (1, "a")
        assert not table.has_rid(0)
        assert len(table) == 1
        # rid is NOT reused: next insert gets a fresh id.
        assert table.insert((3, "c")) == 2

    def test_update_replaces_and_returns_old(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        old = table.update(0, (1, "z"))
        assert old == (1, "a")
        assert table.get(0) == (1, "z")

    def test_truncate(self, schema):
        table = Table("t", schema)
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        assert table.truncate() == 2
        assert len(table) == 0

    def test_insert_validates_schema(self, schema):
        table = Table("t", schema)
        with pytest.raises(StorageError):
            table.insert(("one", "a"))

    def test_insert_with_rid_for_recovery(self, schema):
        table = Table("t", schema)
        table.insert_with_rid(7, (1, "a"))
        assert table.get(7) == (1, "a")
        # Fresh inserts continue past the restored rid.
        assert table.insert((2, "b")) == 8
        with pytest.raises(StorageError):
            table.insert_with_rid(7, (9, "z"))


class TestIndexMaintenance:
    def test_hash_index_follows_mutations(self, schema):
        table = Table("t", schema)
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        index = table.create_hash_index("byid", ["id"])
        assert index.lookup((2,)) == [1]
        table.update(1, (5, "b"))
        assert index.lookup((2,)) == []
        assert index.lookup((5,)) == [1]
        table.delete(1)
        assert index.lookup((5,)) == []

    def test_unique_violation_rolls_back_insert(self, schema):
        table = Table("t", schema)
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b"))
        assert len(table) == 1

    def test_refused_insert_leaves_no_entry_in_earlier_indexes(self, schema):
        table = Table("t", schema)
        table.create_hash_index("by_name", ["name"])
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert((1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "b"))
        # The refused row's id is the next insert's: no stale entry may
        # point the earlier index at it.
        assert table.indexes["by_name"].lookup(("b",)) == []
        rid = table.insert((2, "c"))
        assert table.indexes["by_name"].lookup(("b",)) == []
        assert table.indexes["by_name"].lookup(("c",)) == [rid]

    def test_refused_insert_with_rid_leaves_no_entry(self, schema):
        table = Table("t", schema)
        table.create_hash_index("by_name", ["name"])
        table.create_hash_index("pk", ["id"], unique=True)
        table.insert_with_rid(0, (1, "a"))
        with pytest.raises(DuplicateKeyError):
            table.insert_with_rid(5, (1, "b"))
        assert table.indexes["by_name"].lookup(("b",)) == []
        assert not table.has_rid(5)

    def test_unique_violation_on_update_restores_old_entries(self, schema):
        table = Table("t", schema)
        table.create_hash_index("pk", ["id"], unique=True)
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        with pytest.raises(DuplicateKeyError):
            table.update(1, (1, "b"))
        # Old state fully restored.
        assert table.get(1) == (2, "b")
        assert table.indexes["pk"].lookup((2,)) == [1]

    def test_index_backfills_existing_rows(self, schema):
        table = Table("t", schema)
        for row in [(1, "a"), (2, "b")]:
            table.insert(row)
        index = table.create_ordered_index("byid", ["id"])
        assert index.lookup((1,)) == [0]

    def test_duplicate_index_name_rejected(self, schema):
        table = Table("t", schema)
        table.create_hash_index("i", ["id"])
        with pytest.raises(StorageError):
            table.create_ordered_index("i", ["id"])

    def test_drop_index(self, schema):
        table = Table("t", schema)
        table.create_hash_index("i", ["id"])
        table.drop_index("i")
        assert table.indexes == {}
        with pytest.raises(StorageError):
            table.drop_index("i")

    def test_truncate_clears_indexes(self, schema):
        table = Table("t", schema)
        table.insert((1, "a"))
        index = table.create_hash_index("i", ["id"])
        table.truncate()
        assert table.indexes["i"].lookup((1,)) == []
        table.insert((1, "x"))
        assert table.indexes["i"].lookup((1,)) == [0 + 1]


class TestMemoryAccounting:
    def test_footprint_grows_and_shrinks(self, schema):
        memory = MemoryAccount(10_000, owner="PE0")
        table = Table("t", schema, memory=memory)
        table.insert((1, "abc"))
        used_after_insert = memory.used
        assert used_after_insert == table.footprint_bytes() > 0
        table.delete(0)
        assert memory.used == 0

    def test_out_of_memory_rejects_insert_cleanly(self, schema):
        memory = MemoryAccount(40, owner="PE0")
        table = Table("t", schema, memory=memory)
        table.insert((1, "ab"))
        with pytest.raises(OutOfMemoryError):
            table.insert((2, "this-row-is-way-too-large-to-fit"))
        # The failed row is not half-inserted.
        assert len(table) == 1
        assert memory.used == table.footprint_bytes()

    def test_out_of_memory_rejects_update_cleanly(self, schema):
        memory = MemoryAccount(200, owner="PE0")
        table = Table("t", schema, memory=memory)
        table.create_hash_index("by_name", ["name"])
        table.insert((1, "ab"))
        with pytest.raises(OutOfMemoryError):
            table.update(0, (1, "this-row-is-way-too-large-to-fit" * 3))
        assert table.get(0) == (1, "ab")
        assert table.indexes["by_name"].lookup(("ab",)) == [0]
        assert len(table.indexes["by_name"]) == 1
        assert memory.used == table.footprint_bytes()

    def test_out_of_memory_rejects_index_cleanly(self, schema):
        memory = MemoryAccount(100, owner="PE0")
        table = Table("t", schema, memory=memory)
        for i in range(5):
            table.insert((i, "x"))
        with pytest.raises(OutOfMemoryError):
            table.create_hash_index("i", ["id"])
        # Not left registered: a later CREATE INDEX under the name works.
        assert table.indexes == {}
        assert memory.used == table.footprint_bytes()

    def test_indexes_count_against_memory(self, schema):
        memory = MemoryAccount(100_000)
        table = Table("t", schema, memory=memory)
        for i in range(50):
            table.insert((i, "x"))
        before = memory.used
        table.create_hash_index("i", ["id"])
        assert memory.used > before

    def test_release_memory(self, schema):
        memory = MemoryAccount(10_000)
        table = Table("t", schema, memory=memory)
        table.insert((1, "a"))
        table.release_memory()
        assert memory.used == 0


# -- index consistency, as a state machine ---------------------------------------

VALUES = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
ROWS = st.tuples(VALUES, VALUES, VALUES)
RIDS = st.integers(min_value=0, max_value=12)
NULLABLE = Schema.of(u=DataType.INT, h=DataType.INT, o=DataType.INT)


def index_contents(table: Table) -> dict:
    """What each index answers: its size and the row ids under each key."""
    contents = {}
    for name, index in table.indexes.items():
        keys = [None, 0, 1, 2, 3]
        if isinstance(index, OrderedIndex):
            keys = keys[1:]  # no lookup reads a NULL key
        contents[name] = (
            len(index),
            {key: sorted(index.lookup((key,))) for key in keys},
        )
    return contents


def rebuilt_index_contents(table: Table) -> dict:
    """:func:`index_contents` of indexes built afresh from the stored rows."""
    fresh = Table("rebuilt", table.schema)
    for name, index in table.indexes.items():
        rebuilt = type(index)(name, index.key_positions, index.unique)
        for rid, row in table.scan():
            rebuilt.insert(rid, row)
        fresh.indexes[name] = rebuilt
    return index_contents(fresh)


class IndexConsistencyMachine(RuleBasedStateMachine):
    """One table, three indexes on nullable columns, and a dict of rows.

    The unique index comes last, so a row it refuses has already entered
    the other two: every refused write must take those entries back.
    """

    def __init__(self):
        super().__init__()
        self.memory = MemoryAccount(1_000_000)
        self.table = Table("t", NULLABLE, memory=self.memory)
        self.table.create_hash_index("by_h", ["h"])
        self.table.create_ordered_index("by_o", ["o"])
        self.table.create_hash_index("by_u", ["u"], unique=True)
        self.rows: dict[int, tuple] = {}

    def _taken(self, u, rid=None) -> bool:
        # The unique hash index keys NULL like any other value.
        return any(row[0] == u for other, row in self.rows.items() if other != rid)

    def _state(self):
        return dict(self.table.scan()), index_contents(self.table), self.memory.used

    def _refused(self, write) -> None:
        before = self._state()
        with pytest.raises(StorageError):
            write()
        assert self._state() == before

    @rule(row=ROWS)
    def insert(self, row):
        if self._taken(row[0]):
            self._refused(lambda: self.table.insert(row))
        else:
            self.rows[self.table.insert(row)] = row

    @rule(rid=RIDS, row=ROWS)
    def insert_with_rid(self, rid, row):
        if rid in self.rows or self._taken(row[0]):
            self._refused(lambda: self.table.insert_with_rid(rid, row))
        else:
            self.table.insert_with_rid(rid, row)
            self.rows[rid] = row

    @rule(rid=RIDS, row=ROWS)
    def update(self, rid, row):
        if rid not in self.rows or self._taken(row[0], rid):
            self._refused(lambda: self.table.update(rid, row))
        else:
            assert self.table.update(rid, row) == self.rows[rid]
            self.rows[rid] = row

    @rule(rid=RIDS)
    def delete(self, rid):
        if rid not in self.rows:
            self._refused(lambda: self.table.delete(rid))
        else:
            assert self.table.delete(rid) == self.rows.pop(rid)

    @rule()
    def truncate(self):
        assert self.table.truncate() == len(self.rows)
        self.rows.clear()

    @invariant()
    def rows_and_indexes_agree(self):
        assert dict(self.table.scan()) == self.rows
        assert index_contents(self.table) == rebuilt_index_contents(self.table)
        assert self.table.data_bytes == sum(
            NULLABLE.row_bytes(row) for row in self.rows.values()
        )
        assert self.memory.used == self.table.footprint_bytes()


TestIndexConsistency = IndexConsistencyMachine.TestCase
TestIndexConsistency.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
