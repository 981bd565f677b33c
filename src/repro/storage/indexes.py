"""In-memory index structures for One-Fragment Managers.

Section 2.5 gives each OFM "(various) storage structures"; we provide
the two classic main-memory ones:

* :class:`HashIndex` — exact-match lookups, O(1);
* :class:`OrderedIndex` — a sorted array maintained with binary search,
  supporting range scans (a main-memory stand-in for a B-tree; at 1988
  memory sizes a sorted array with bisection was the common choice,
  cf. AVL/T-trees).

Indexes map key values to *row ids* in a :class:`~repro.storage.table.Table`.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator, Sequence
from typing import Any

from repro.errors import StorageError

Key = tuple


class DuplicateKeyError(StorageError):
    """A unique index rejected a second row with the same key."""


class _IndexBase:
    """Shared machinery: key extraction and uniqueness."""

    def __init__(self, name: str, key_positions: Sequence[int], unique: bool = False):
        if not key_positions:
            raise StorageError(f"index {name!r} needs at least one key column")
        self.name = name
        self.key_positions = tuple(key_positions)
        self.unique = unique

    def key_of(self, row: Sequence[Any]) -> Key:
        return tuple(row[i] for i in self.key_positions)


class HashIndex(_IndexBase):
    """Hash index: key tuple -> set of row ids."""

    def __init__(self, name: str, key_positions: Sequence[int], unique: bool = False):
        super().__init__(name, key_positions, unique)
        self._buckets: dict[Key, list[int]] = {}
        #: Row ids over all buckets, kept by insert/delete: the table
        #: re-accounts its footprint (which asks ``len``) on every write.
        self._entries = 0

    def insert(self, rid: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        bucket = self._buckets.setdefault(key, [])
        if self.unique and bucket:
            raise DuplicateKeyError(
                f"unique index {self.name!r} already has key {key!r}"
            )
        bucket.append(rid)
        self._entries += 1

    def delete(self, rid: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(rid)
        except ValueError:
            return
        self._entries -= 1
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: Key) -> list[int]:
        """Row ids whose key equals *key* (a tuple, even for one column)."""
        return list(self._buckets.get(tuple(key), ()))

    def __len__(self) -> int:
        return self._entries

    def keys(self) -> Iterator[Key]:
        return iter(self._buckets)

    def estimated_bytes(self) -> int:
        """Rough footprint for memory accounting (pointers + keys)."""
        return 64 + 48 * len(self._buckets) + 8 * len(self)


class OrderedIndex(_IndexBase):
    """Sorted-array index supporting range scans.

    Entries are ``(key, rid)`` pairs kept sorted; point and range lookups
    use binary search.  Keys must be mutually comparable (single-type
    columns guarantee this; NULLs are not indexable).
    """

    def __init__(self, name: str, key_positions: Sequence[int], unique: bool = False):
        super().__init__(name, key_positions, unique)
        self._entries: list[tuple[Key, int]] = []

    def insert(self, rid: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        if any(part is None for part in key):
            raise StorageError(
                f"ordered index {self.name!r} cannot index NULL key {key!r}"
            )
        position = bisect.bisect_left(self._entries, (key, -1))
        if self.unique and position < len(self._entries):
            existing_key, _ = self._entries[position]
            if existing_key == key:
                raise DuplicateKeyError(
                    f"unique index {self.name!r} already has key {key!r}"
                )
        self._entries.insert(position, (key, rid))

    def delete(self, rid: int, row: Sequence[Any]) -> None:
        key = self.key_of(row)
        position = bisect.bisect_left(self._entries, (key, -1))
        while position < len(self._entries):
            entry_key, entry_rid = self._entries[position]
            if entry_key != key:
                return
            if entry_rid == rid:
                del self._entries[position]
                return
            position += 1

    def lookup(self, key: Key) -> list[int]:
        key = tuple(key)
        start = bisect.bisect_left(self._entries, (key, -1))
        rids = []
        for entry_key, rid in self._entries[start:]:
            if entry_key != key:
                break
            rids.append(rid)
        return rids

    def range(
        self,
        low: Key | None = None,
        high: Key | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Row ids with low <= key <= high (bounds optional/exclusive)."""
        entries = self._entries
        if low is None:
            start = 0
        else:
            low = tuple(low)
            start = (
                bisect.bisect_left(entries, (low, -1))
                if include_low
                else bisect.bisect_right(entries, (low, float("inf")))
            )
        rids = []
        for entry_key, rid in entries[start:]:
            if high is not None:
                high_t = tuple(high)
                if entry_key > high_t or (entry_key == high_t and not include_high):
                    break
            rids.append(rid)
        return rids

    def min_key(self) -> Key | None:
        return self._entries[0][0] if self._entries else None

    def max_key(self) -> Key | None:
        return self._entries[-1][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def estimated_bytes(self) -> int:
        return 64 + 40 * len(self._entries)


Index = HashIndex | OrderedIndex
