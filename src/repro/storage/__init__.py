"""Main-memory relational storage: types, schemas, tables and indexes —
the storage structures inside every One-Fragment Manager (paper Section
2.5).  Markings and cursors are not modelled: the statement path ships
its predicate to the fragment (``OneFragmentManager.filtered_scan``)
and receives the matching rows, so nothing holds a position in a
table."""

from repro.storage.indexes import DuplicateKeyError, HashIndex, OrderedIndex
from repro.storage.schema import Column, Row, Schema
from repro.storage.table import Table
from repro.storage.types import DataType, infer_type

__all__ = [
    "Column",
    "DataType",
    "DuplicateKeyError",
    "HashIndex",
    "OrderedIndex",
    "Row",
    "Schema",
    "Table",
    "infer_type",
]
