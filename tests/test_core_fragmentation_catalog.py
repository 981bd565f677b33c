"""Tests for fragmentation schemes, the catalog, and allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, CatalogError
from repro.machine import Machine, MachineConfig
from repro.pool import PoolRuntime
from repro.core.allocation import DataAllocationManager
from repro.core.catalog import Catalog, FragmentInfo, IndexInfo, TableInfo
from repro.core.fragmentation import (
    FragmentationScheme,
    HashFragmentation,
    RangeFragmentation,
    RoundRobinFragmentation,
    SingleFragment,
    build_scheme,
    stable_hash,
)
from repro.storage import DataType, Schema


class TestHashFragmentation:
    def test_deterministic_and_in_range(self):
        scheme = HashFragmentation(0, 8)
        for value in [0, 1, 12345, "abc", 2.5, True, None]:
            fragment = scheme.fragment_of((value, "x"))
            assert 0 <= fragment < 8
            assert fragment == scheme.fragment_of((value, "other"))

    def test_equal_values_colocate(self):
        scheme = HashFragmentation(1, 4)
        assert scheme.fragment_of((1, "k")) == scheme.fragment_of((2, "k"))

    def test_pruning_point_lookup(self):
        scheme = HashFragmentation(0, 8)
        fragment = scheme.fragment_of((42, None))
        assert scheme.prunable_fragments(0, 42) == [fragment]
        assert scheme.prunable_fragments(1, 42) is None
        assert scheme.prunable_fragments(0, None) is None

    def test_spec_roundtrip(self):
        scheme = HashFragmentation(2, 5)
        rebuilt = FragmentationScheme.from_spec(scheme.to_spec())
        assert isinstance(rebuilt, HashFragmentation)
        assert rebuilt.column == 2 and rebuilt.n_fragments == 5

    @given(st.integers(-10_000, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_stable_hash_is_stable_for_ints(self, value):
        assert stable_hash(value) == stable_hash(value)
        assert stable_hash(value) >= 0


class TestRangeFragmentation:
    def test_boundaries_define_fragments(self):
        scheme = RangeFragmentation(0, (10, 20))
        assert scheme.n_fragments == 3
        assert scheme.fragment_of((5,)) == 0
        assert scheme.fragment_of((10,)) == 1
        assert scheme.fragment_of((15,)) == 1
        assert scheme.fragment_of((20,)) == 2
        assert scheme.fragment_of((99,)) == 2

    def test_nulls_in_first_fragment(self):
        scheme = RangeFragmentation(0, (10,))
        assert scheme.fragment_of((None,)) == 0

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(CatalogError):
            RangeFragmentation(0, (20, 10))

    def test_pruning(self):
        scheme = RangeFragmentation(0, (10, 20))
        assert scheme.prunable_fragments(0, 15) == [1]

    def test_spec_roundtrip(self):
        scheme = RangeFragmentation(1, ("d", "m"))
        rebuilt = FragmentationScheme.from_spec(scheme.to_spec())
        assert rebuilt.boundaries == ("d", "m")


class TestRoundRobin:
    def test_perfect_balance(self):
        scheme = RoundRobinFragmentation(4)
        counts = [0] * 4
        for i in range(40):
            counts[scheme.fragment_of((i,))] += 1
        assert counts == [10, 10, 10, 10]

    def test_no_pruning(self):
        assert RoundRobinFragmentation(4).prunable_fragments(0, 1) is None


class TestBuildScheme:
    SCHEMA = Schema.of(id=DataType.INT, name=DataType.STRING)

    def test_hash_by_name(self):
        scheme = build_scheme("hash", self.SCHEMA, "name", 4)
        assert isinstance(scheme, HashFragmentation)
        assert scheme.column == 1

    def test_range(self):
        scheme = build_scheme("range", self.SCHEMA, "id", 0, (10,))
        assert isinstance(scheme, RangeFragmentation)

    def test_unknown_kind(self):
        with pytest.raises(CatalogError):
            build_scheme("zigzag", self.SCHEMA, "id", 2)


class TestCatalog:
    def make_info(self, name="t"):
        return TableInfo(
            name=name,
            schema=Schema.of(id=DataType.INT, v=DataType.STRING),
            scheme=HashFragmentation(0, 2),
            fragments=[FragmentInfo(0, 1, f"{name}.0"), FragmentInfo(1, 2, f"{name}.1")],
            primary_key=("id",),
            indexes=[IndexInfo("pk_t", ("id",), True, "hash")],
            row_count=100,
            distinct_estimates={"id": 100, "v": 10},
            total_bytes=2000,
        )

    def test_create_lookup_drop(self):
        catalog = Catalog()
        catalog.create_table(self.make_info())
        assert catalog.has_table("T")  # case-insensitive
        assert catalog.table("t").row_count == 100
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.table("t")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table(self.make_info())
        with pytest.raises(CatalogError):
            catalog.create_table(self.make_info())

    def test_views_for_binder_and_optimizer(self):
        catalog = Catalog()
        catalog.create_table(self.make_info())
        assert "t" in catalog.schemas()
        stats = catalog.statistics()["t"]
        assert stats.row_count == 100
        assert stats.ndv("id") == 100

    def test_serialize_roundtrip(self):
        catalog = Catalog()
        catalog.create_table(self.make_info("alpha"))
        catalog.create_table(self.make_info("beta"))
        rebuilt = Catalog.deserialize(catalog.serialize())
        assert rebuilt.table_names() == ["alpha", "beta"]
        info = rebuilt.table("alpha")
        assert info.primary_key == ("id",)
        assert info.schema.names() == ["id", "v"]
        assert isinstance(info.scheme, HashFragmentation)
        assert info.fragments[1].ofm_name == "alpha.1"
        assert info.indexes[0].unique


class TestAllocation:
    def test_spreads_over_distinct_nodes(self):
        machine = Machine(MachineConfig(n_nodes=8))
        allocator = DataAllocationManager(PoolRuntime(machine), reserve_node=0)
        nodes = allocator.place_fragments(4)
        assert len(set(nodes)) == 4
        assert 0 not in nodes  # reserved for the GDH

    def test_wraps_when_more_fragments_than_nodes(self):
        machine = Machine(MachineConfig(n_nodes=4))
        allocator = DataAllocationManager(PoolRuntime(machine), reserve_node=None)
        nodes = allocator.place_fragments(10)
        assert len(nodes) == 10
        assert set(nodes) <= set(range(4))

    def test_prefers_free_memory(self):
        machine = Machine(MachineConfig(n_nodes=4))
        machine.node(1).memory.allocate(10_000_000, "hog")
        allocator = DataAllocationManager(PoolRuntime(machine), reserve_node=None)
        nodes = allocator.place_fragments(3)
        assert 1 not in nodes

    def test_capacity_check(self):
        machine = Machine(MachineConfig(n_nodes=2))
        allocator = DataAllocationManager(PoolRuntime(machine), reserve_node=None)
        with pytest.raises(AllocationError):
            allocator.place_fragments(
                1, expected_bytes_per_fragment=machine.config.memory_bytes + 1
            )

    def test_reserve_used_when_unavoidable(self):
        machine = Machine(MachineConfig(n_nodes=2))
        allocator = DataAllocationManager(PoolRuntime(machine), reserve_node=0)
        nodes = allocator.place_fragments(2)
        assert sorted(set(nodes)) == [0, 1]
