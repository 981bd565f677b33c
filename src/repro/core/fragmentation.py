"""Fragmentation schemes: how a relation splits into one-tuple-home
fragments.

PRISMA is built around the One-Fragment Manager: every relation is
horizontally fragmented and each fragment is owned by exactly one OFM
on one processing element.  The schemes here decide which fragment a
tuple belongs to; the data allocation manager decides which element
hosts each fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.errors import CatalogError
from repro.storage.schema import Schema


#: kind string -> scheme class, populated by ``__init_subclass__`` (the
#: same pattern prismalint's ``Rule`` registry uses).  Derived schemes —
#: e.g. the rebalancer's bucket-remap scheme — register themselves by
#: subclassing with ``kind=...`` instead of editing ``from_spec``.
_SCHEME_KINDS: dict[str, type["FragmentationScheme"]] = {}


def registered_kinds() -> list[str]:
    """The fragmentation kinds the dictionary can deserialize."""
    return sorted(_SCHEME_KINDS)


class FragmentationScheme:
    """Maps rows to fragment numbers ``0..n_fragments-1``."""

    n_fragments: int
    #: Registry key of concrete subclasses (set by ``__init_subclass__``).
    spec_kind: str = ""

    def __init_subclass__(cls, kind: str | None = None, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        if kind is not None:
            existing = _SCHEME_KINDS.get(kind)
            if existing is not None and existing is not cls:
                raise CatalogError(
                    f"fragmentation kind {kind!r} already registered"
                    f" by {existing.__name__}"
                )
            cls.spec_kind = kind
            _SCHEME_KINDS[kind] = cls

    def fragment_of(self, row: tuple) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def key_columns(self) -> tuple[int, ...]:
        """Columns that determine the fragment (empty if none)."""
        return ()

    def prunable_fragments(self, column: int, value: Any) -> list[int] | None:
        """Fragments that can hold rows with ``row[column] == value``.

        ``None`` means "no pruning possible — all fragments".  The
        executor uses this to skip fragments for point queries.
        """
        return None

    def to_spec(self) -> dict:
        """JSON-able description (persisted in the data dictionary)."""
        raise NotImplementedError

    @classmethod
    def _from_spec(cls, spec: dict) -> "FragmentationScheme":
        """Rebuild an instance from its :meth:`to_spec` payload."""
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: dict) -> "FragmentationScheme":
        scheme_cls = _SCHEME_KINDS.get(spec["kind"])
        if scheme_cls is None:
            raise CatalogError(f"unknown fragmentation kind {spec['kind']!r}")
        return scheme_cls._from_spec(spec)


@dataclass
class SingleFragment(FragmentationScheme, kind="single"):
    """No fragmentation: the whole relation in one OFM."""

    n_fragments: int = 1

    def fragment_of(self, row: tuple) -> int:
        return 0

    def describe(self) -> str:
        return "single"

    def to_spec(self) -> dict:
        return {"kind": "single", "n_fragments": 1}

    @classmethod
    def _from_spec(cls, spec: dict) -> "SingleFragment":
        return cls()


class HashFragmentation(FragmentationScheme, kind="hash"):
    """Hash on one column: equal values share a fragment (good for
    equi-joins and point lookups on the key)."""

    def __init__(self, column: int, n_fragments: int):
        if n_fragments < 1:
            raise CatalogError(f"need at least 1 fragment, got {n_fragments}")
        self.column = column
        self.n_fragments = n_fragments

    def fragment_of(self, row: tuple) -> int:
        return stable_hash(row[self.column]) % self.n_fragments

    def key_columns(self) -> tuple[int, ...]:
        return (self.column,)

    def prunable_fragments(self, column: int, value: Any) -> list[int] | None:
        if column == self.column and value is not None:
            return [stable_hash(value) % self.n_fragments]
        return None

    def describe(self) -> str:
        return f"hash(col{self.column}) into {self.n_fragments}"

    def to_spec(self) -> dict:
        return {
            "kind": "hash",
            "column": self.column,
            "n_fragments": self.n_fragments,
        }

    @classmethod
    def _from_spec(cls, spec: dict) -> "HashFragmentation":
        return cls(spec["column"], spec["n_fragments"])


class RangeFragmentation(FragmentationScheme, kind="range"):
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

    @classmethod
    def _from_spec(cls, spec: dict) -> "RangeFragmentation":
        return cls(spec["column"], tuple(spec["boundaries"]))


class RoundRobinFragmentation(FragmentationScheme, kind="roundrobin"):
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

    @classmethod
    def _from_spec(cls, spec: dict) -> "RoundRobinFragmentation":
        return cls(spec["n_fragments"])


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
