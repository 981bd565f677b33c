"""Tests for memory accounting and the disk model."""

import pytest

from repro.errors import OutOfMemoryError
from repro.machine.disk import Disk
from repro.machine.memory import MemoryAccount


class TestMemoryAccount:
    def test_allocate_and_free(self):
        account = MemoryAccount(1000, owner="PE0")
        account.allocate(400, "frag-a")
        account.allocate(100, "frag-b")
        assert account.used == 500
        assert account.available == 500
        assert account.free("frag-a") == 400
        assert account.used == 100

    def test_allocation_accumulates_under_same_tag(self):
        account = MemoryAccount(1000)
        account.allocate(100, "t")
        account.allocate(50, "t")
        assert account.holding("t") == 150

    def test_exhaustion_raises(self):
        account = MemoryAccount(100)
        account.allocate(80, "a")
        with pytest.raises(OutOfMemoryError):
            account.allocate(30, "b")
        # Failed allocation leaves the account unchanged.
        assert account.used == 80

    def test_resize_up_and_down(self):
        account = MemoryAccount(1000)
        account.allocate(100, "t")
        account.resize("t", 700)
        assert account.holding("t") == 700
        account.resize("t", 0)
        assert account.holding("t") == 0
        assert account.used == 0

    def test_resize_respects_capacity(self):
        account = MemoryAccount(100)
        account.allocate(50, "t")
        with pytest.raises(OutOfMemoryError):
            account.resize("t", 150)
        assert account.holding("t") == 50

    def test_peak_tracks_high_water_mark(self):
        account = MemoryAccount(1000)
        account.allocate(600, "t")
        account.free("t")
        account.allocate(100, "u")
        assert account.peak == 600

    def test_negative_and_zero_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccount(0)
        account = MemoryAccount(10)
        with pytest.raises(ValueError):
            account.allocate(-1, "t")

    def test_free_unknown_tag_is_noop(self):
        account = MemoryAccount(10)
        assert account.free("nothing") == 0


class TestDisk:
    def test_write_then_read_roundtrip(self):
        disk = Disk(node=0)
        disk.write("log/1", b"hello")
        payload, cost = disk.read("log/1")
        assert payload == b"hello"
        assert cost > 0

    def test_missing_key_raises(self):
        disk = Disk(node=0)
        with pytest.raises(KeyError):
            disk.read("absent")

    def test_sequential_cheaper_than_random(self):
        disk = Disk(node=0)
        big = 10 * disk.page_bytes
        assert disk.access_cost(big, sequential=True) < disk.access_cost(
            big, sequential=False
        )

    def test_cost_charges_whole_pages(self):
        disk = Disk(node=0)
        assert disk.transfer_time(1) == disk.transfer_time(disk.page_bytes)
        assert disk.transfer_time(disk.page_bytes + 1) == pytest.approx(
            2 * disk.transfer_time(disk.page_bytes)
        )

    def test_zero_bytes_free(self):
        disk = Disk(node=0)
        assert disk.access_cost(0) == 0.0

    def test_keys_prefix_listing(self):
        disk = Disk(node=0)
        disk.write("wal/ofm1/0", b"a")
        disk.write("wal/ofm1/1", b"b")
        disk.write("wal/ofm2/0", b"c")
        assert disk.keys("wal/ofm1/") == ["wal/ofm1/0", "wal/ofm1/1"]
        assert "wal/ofm2/0" in disk

    def test_delete_and_stats(self):
        disk = Disk(node=0)
        disk.write("k", b"xyz")
        disk.delete("k")
        assert "k" not in disk
        assert disk.stats.writes == 1
        assert disk.stats.bytes_written == 3
        assert disk.size_of("k") == 0
