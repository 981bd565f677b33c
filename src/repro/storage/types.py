"""Column data types and the byte-size model.

PRISMA is a main-memory system with a hard 16 MByte budget per
processing element, so sizes matter: every value has a defined storage
size, and tables report their footprint to the hosting element's
:class:`~repro.machine.memory.MemoryAccount`.

NULLs are supported with simple semantics: ``None`` is a legal value in
nullable columns; comparisons against NULL are false (two-valued logic,
a documented deviation from SQL's three-valued logic — PRISMA predates
consistent NULL treatment anyway).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import StorageError


class DataType(enum.Enum):
    """The column types supported by the engine.

    ``ANY`` is the dynamically-typed column PRISMAlog relations use —
    the paper notes POOL-X "introduces dynamic typing to efficiently
    support the implementation of relation types" (Section 3.1), and
    Datalog predicates are untyped.
    """

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"
    ANY = "any"

    def coerce(self, value: Any) -> Any:
        """Convert *value* to this type, or raise :class:`StorageError`.

        Follows SQL-ish conversions: ints widen to floats, bools do not
        silently become ints, strings are never implicitly parsed.
        """
        if value is None:
            return None
        if self is DataType.ANY:
            if isinstance(value, (bool, int, float, str)):
                return value
            raise _coercion_error(self, value)
        if self is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise _coercion_error(self, value)
            return value
        if self is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise _coercion_error(self, value)
            return float(value)
        if self is DataType.STRING:
            if not isinstance(value, str):
                raise _coercion_error(self, value)
            return value
        if self is DataType.BOOL:
            if not isinstance(value, bool):
                raise _coercion_error(self, value)
            return value
        raise AssertionError(f"unhandled type {self}")  # pragma: no cover

    def size_of(self, value: Any) -> int:
        """Storage bytes for one value of this type."""
        if value is None:
            return 1
        if self is DataType.STRING or (self is DataType.ANY and isinstance(value, str)):
            # length prefix + utf-8 payload
            return 2 + len(value.encode("utf-8"))
        if self is DataType.ANY:
            return _FIXED_SIZES.get(infer_type(value), 8)
        return _FIXED_SIZES[self]

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Parse a type name as written in SQL (INT, INTEGER, VARCHAR...)."""
        try:
            return _TYPE_NAMES[name.strip().lower()]
        except KeyError:
            raise StorageError(f"unknown data type {name!r}") from None


_FIXED_SIZES = {
    DataType.INT: 4,
    DataType.FLOAT: 8,
    DataType.BOOL: 1,
}

_TYPE_NAMES = {
    "int": DataType.INT,
    "integer": DataType.INT,
    "smallint": DataType.INT,
    "bigint": DataType.INT,
    "float": DataType.FLOAT,
    "real": DataType.FLOAT,
    "double": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "numeric": DataType.FLOAT,
    "string": DataType.STRING,
    "text": DataType.STRING,
    "char": DataType.STRING,
    "varchar": DataType.STRING,
    "bool": DataType.BOOL,
    "boolean": DataType.BOOL,
    "any": DataType.ANY,
}


def _coercion_error(data_type: DataType, value: Any) -> StorageError:
    return StorageError(
        f"cannot store {value!r} ({type(value).__name__}) in a"
        f" {data_type.value.upper()} column"
    )


def infer_type(value: Any) -> DataType:
    """The :class:`DataType` that naturally stores *value*."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    raise StorageError(f"no column type for {value!r} ({type(value).__name__})")
