"""Fragmentation schemes: how a relation splits into one-tuple-home
fragments.

PRISMA is built around the One-Fragment Manager: every relation is
horizontally fragmented and each fragment is owned by exactly one OFM
on one processing element.  The schemes here decide which fragment a
tuple belongs to; the data allocation manager decides which element
hosts each fragment.

Hash fragmentation routes through a bucket map, ``BUCKETS_PER_FRAGMENT``
buckets per fragment at CREATE TABLE, so the online rebalancer
(:mod:`repro.core.rebalance`) reshapes a table by editing the map:
a split or a merge moves only the rows of the buckets it reroutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.errors import CatalogError, RebalanceError
from repro.storage.schema import Schema

#: Hash buckets per fragment of a fresh hash map: a fragment can split
#: three times before it is down to one bucket.
BUCKETS_PER_FRAGMENT = 8


class FragmentationScheme:
    """Maps rows to fragment numbers ``0..n_fragments-1``."""

    n_fragments: int

    def fragment_of(self, row: tuple) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def key_columns(self) -> tuple[int, ...]:
        """Columns that determine the fragment (empty if none)."""
        return ()

    def shuffle_key(self) -> tuple[int, ...] | None:
        """The key columns when the executor's shuffle hash routes rows
        exactly as this scheme does (fragment ``i`` holds the rows the
        shuffle sends to part ``i``), else ``None``.

        Only then may a scan of every fragment claim to be
        hash-partitioned, so that a join pairs its parts by index.
        """
        return None

    def prunable_fragments(self, column: int, value: Any) -> list[int] | None:
        """Fragments that can hold rows with ``row[column] == value``.

        ``None`` means "no pruning possible — all fragments".  The
        executor uses this to skip fragments for point queries.
        """
        return None

    def to_spec(self) -> dict:
        """JSON-able description (persisted in the data dictionary)."""
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: dict) -> "FragmentationScheme":
        build = _FROM_SPEC.get(spec["kind"])
        if build is None:
            raise CatalogError(f"unknown fragmentation kind {spec['kind']!r}")
        return build(spec)


@dataclass
class SingleFragment(FragmentationScheme):
    """No fragmentation: the whole relation in one OFM."""

    n_fragments: int = 1

    def fragment_of(self, row: tuple) -> int:
        return 0

    def describe(self) -> str:
        return "single"

    def to_spec(self) -> dict:
        return {"kind": "single", "n_fragments": 1}


class HashFragmentation(FragmentationScheme):
    """Hash on one column: equal values share a fragment (good for
    equi-joins and point lookups on the key).

    ``bucket_map[stable_hash(key) % len(bucket_map)]`` is the fragment
    id.  A fresh map has ``n × BUCKETS_PER_FRAGMENT`` buckets and gives
    bucket ``b`` to fragment ``b % n``, so a row's fragment is
    ``stable_hash(key) % n`` (``n`` divides the bucket count).  The
    rebalancer's :meth:`split` and :meth:`merge` return edited maps;
    after a merge the fragment ids may have gaps, which
    :meth:`TableInfo.fragment` handles.
    """

    def __init__(
        self,
        column: int,
        n_fragments: int,
        bucket_map: tuple[int, ...] | None = None,
    ):
        if n_fragments < 1:
            raise CatalogError(f"need at least 1 fragment, got {n_fragments}")
        fresh = tuple(b % n_fragments for b in range(n_fragments * BUCKETS_PER_FRAGMENT))
        self.column = column
        self.bucket_map = fresh if bucket_map is None else tuple(bucket_map)
        self.n_fragments = len(set(self.bucket_map))
        if self.n_fragments != n_fragments:
            raise CatalogError(
                f"bucket map routes to {self.n_fragments} fragments, not {n_fragments}"
            )
        #: Whether the map differs from a fresh one of this size.
        self.edited = self.bucket_map != fresh

    def fragment_of(self, row: tuple) -> int:
        return self.bucket_map[stable_hash(row[self.column]) % len(self.bucket_map)]

    def key_columns(self) -> tuple[int, ...]:
        return (self.column,)

    def shuffle_key(self) -> tuple[int, ...] | None:
        return None if self.edited else (self.column,)

    def prunable_fragments(self, column: int, value: Any) -> list[int] | None:
        if column == self.column and value is not None:
            return [self.bucket_map[stable_hash(value) % len(self.bucket_map)]]
        return None

    def describe(self) -> str:
        text = f"hash(col{self.column}) into {self.n_fragments}"
        if self.edited:
            text += f" over {len(self.bucket_map)} rebalanced buckets"
        return text

    def to_spec(self) -> dict:
        spec: dict = {
            "kind": "hash",
            "column": self.column,
            "n_fragments": self.n_fragments,
        }
        if self.edited:
            spec["bucket_map"] = list(self.bucket_map)
        return spec

    # -- editing (the rebalancer) -------------------------------------------

    def fragment_buckets(self, fragment_id: int) -> list[int]:
        """The bucket indices currently routed to *fragment_id*."""
        return [
            bucket
            for bucket, owner in enumerate(self.bucket_map)
            if owner == fragment_id
        ]

    def _remapped(self, bucket_map: tuple[int, ...]) -> "HashFragmentation":
        return HashFragmentation(self.column, len(set(bucket_map)), bucket_map)

    def split(self, fragment_id: int, new_fragment_id: int) -> "HashFragmentation":
        """Route the odd half of *fragment_id*'s buckets to a new id."""
        buckets = self.fragment_buckets(fragment_id)
        if len(buckets) < 2:
            raise RebalanceError(
                f"fragment {fragment_id} holds a single bucket; cannot split"
            )
        moved = set(buckets[1::2])
        return self._remapped(
            tuple(
                new_fragment_id if bucket in moved else owner
                for bucket, owner in enumerate(self.bucket_map)
            )
        )

    def merge(self, source_id: int, dest_id: int) -> "HashFragmentation":
        """Route every bucket of *source_id* to *dest_id*."""
        if source_id == dest_id:
            raise RebalanceError("cannot merge a fragment into itself")
        if not self.fragment_buckets(source_id):
            raise RebalanceError(f"fragment {source_id} owns no buckets")
        return self._remapped(
            tuple(dest_id if owner == source_id else owner for owner in self.bucket_map)
        )


class RangeFragmentation(FragmentationScheme):
    """Range on one column: boundaries ``(b0 < b1 < ...)`` create
    fragments ``(-inf, b0), [b0, b1), ..., [bk, +inf)``."""

    def __init__(self, column: int, boundaries: tuple):
        if not boundaries:
            raise CatalogError("range fragmentation needs at least one boundary")
        if list(boundaries) != sorted(boundaries):
            raise CatalogError(f"range boundaries must be sorted: {boundaries}")
        self.column = column
        self.boundaries = tuple(boundaries)
        self.n_fragments = len(boundaries) + 1

    def fragment_of(self, row: tuple) -> int:
        value = row[self.column]
        if value is None:
            return 0  # NULLs live in the first fragment
        import bisect

        return bisect.bisect_right(self.boundaries, value)

    def key_columns(self) -> tuple[int, ...]:
        return (self.column,)

    def prunable_fragments(self, column: int, value: Any) -> list[int] | None:
        if column == self.column and value is not None:
            import bisect

            return [bisect.bisect_right(self.boundaries, value)]
        return None

    def describe(self) -> str:
        return f"range(col{self.column}; {self.boundaries})"

    def to_spec(self) -> dict:
        return {
            "kind": "range",
            "column": self.column,
            "boundaries": list(self.boundaries),
        }


class RoundRobinFragmentation(FragmentationScheme):
    """Round-robin: perfect balance, no pruning (a stateful scheme —
    each table keeps its own instance)."""

    def __init__(self, n_fragments: int):
        if n_fragments < 1:
            raise CatalogError(f"need at least 1 fragment, got {n_fragments}")
        self.n_fragments = n_fragments
        self._next = 0

    def fragment_of(self, row: tuple) -> int:
        fragment = self._next
        self._next = (self._next + 1) % self.n_fragments
        return fragment

    def describe(self) -> str:
        return f"roundrobin into {self.n_fragments}"

    def to_spec(self) -> dict:
        return {"kind": "roundrobin", "n_fragments": self.n_fragments}


#: kind -> how to rebuild a scheme from its :meth:`~FragmentationScheme.to_spec`.
_FROM_SPEC = {
    "single": lambda spec: SingleFragment(),
    "hash": lambda spec: HashFragmentation(
        spec["column"], spec["n_fragments"], spec.get("bucket_map")
    ),
    "range": lambda spec: RangeFragmentation(spec["column"], tuple(spec["boundaries"])),
    "roundrobin": lambda spec: RoundRobinFragmentation(spec["n_fragments"]),
}


def stable_hash(value: Any) -> int:
    """Deterministic across runs (unlike ``hash(str)`` with PYTHONHASHSEED).

    Fragmentation must be stable so recovery re-derives the same tuple
    homes after a restart.  Values that compare equal hash equal, so a
    shuffle never separates join or group partners: ``True`` hashes as
    ``1`` and an integral float as the int it equals.  A float whose
    scaled value overflows (every infinity) hashes by its sign alone,
    and NaN to 0.
    """
    if type(value) is str:
        return _str_hash(value)
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        if value.is_integer():
            return int(value) & 0x7FFFFFFF
        try:
            return int(value * 2654435761) & 0x7FFFFFFF
        except OverflowError:  # the scaled value is an infinity
            return 1 if value > 0 else 2
        except ValueError:  # NaN
            return 0
    if isinstance(value, str):
        return _fnv1a(value)
    raise CatalogError(f"cannot fragment on value {value!r}")


def _fnv1a(value: str) -> int:
    """31-bit FNV-1a over the UTF-8 bytes."""
    h = 2166136261
    for byte in value.encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h & 0x7FFFFFFF


#: Exact ``str`` values memoized (a shuffle hashes the same names every
#: round); bounded, so a stream of distinct strings cannot grow it.
_str_hash = lru_cache(maxsize=1 << 14)(_fnv1a)


def build_scheme(
    kind: str,
    schema: Schema,
    column: str | None,
    count: int,
    boundaries: tuple = (),
) -> FragmentationScheme:
    """Build a scheme from SQL's ``FRAGMENTED BY`` clause."""
    if kind == "hash":
        assert column is not None
        return HashFragmentation(schema.index_of(column), count)
    if kind == "range":
        assert column is not None
        return RangeFragmentation(schema.index_of(column), boundaries)
    if kind == "roundrobin":
        return RoundRobinFragmentation(count)
    raise CatalogError(f"unknown fragmentation kind {kind!r}")
