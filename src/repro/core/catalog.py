"""The data dictionary of the Global Data Handler (paper Section 2.2).

Tracks every relation: schema, primary key, fragmentation scheme,
fragment placement (on which processing element, under which OFM name,
each fragment copy lives — which process serves it is the data
allocation manager's table, :mod:`repro.core.allocation`), secondary
indexes, and per-table statistics for the optimizer.

The dictionary itself is critical state: it is serialized to stable
storage on every DDL change so restart recovery can rebuild the system
(:mod:`repro.core.recovery`).
"""

from __future__ import annotations

import ast as _pyast
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CatalogError
from repro.exec.expressions import ColumnRef, Comparison, Expr, Literal, Param, conjuncts
from repro.algebra.estimates import TableStats
from repro.core.fragmentation import FragmentationScheme
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType


@dataclass
class IndexInfo:
    name: str
    columns: tuple[str, ...]
    unique: bool
    method: str  # 'hash' | 'btree'


@dataclass
class FragmentInfo:
    """One fragment: its primary copy plus any replicas.

    The paper's concurrency rule speaks of "the same *copy* of base
    fragments" (Section 2.2) — fragments may have several copies.
    ``node_id``/``ofm_name`` identify the primary; ``replicas`` lists
    the additional copies as ``(node_id, ofm_name)`` pairs.  Reads pick
    any copy (load balancing); writes go to all of them.
    """

    fragment_id: int
    node_id: int
    ofm_name: str
    replicas: tuple[tuple[int, str], ...] = ()

    def all_copies(self) -> list[tuple[int, str]]:
        """(node_id, ofm_name) of the primary and every replica."""
        return [(self.node_id, self.ofm_name), *self.replicas]


#: ``(column, operand)`` of each ``column = constant`` / ``column = ?``
#: conjunct of a predicate, in conjunct order.
PruningKeys = tuple[tuple[int, Literal | Param], ...]


def pruning_keys(predicate: Expr | None) -> PruningKeys:
    """The conjuncts of *predicate* that may narrow a table to the
    fragments holding one value of its fragmentation key."""
    if predicate is None:
        return ()
    return tuple(
        (conjunct.left.index, conjunct.right)
        for conjunct in conjuncts(predicate)
        if isinstance(conjunct, Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, Literal | Param)
    )


@dataclass
class TableInfo:
    """Dictionary entry for one relation."""

    name: str
    schema: Schema
    scheme: FragmentationScheme
    fragments: list[FragmentInfo] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()
    indexes: list[IndexInfo] = field(default_factory=list)
    row_count: int = 0
    #: crude per-column distinct-value estimates, updated on writes
    distinct_estimates: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0

    def stats(self) -> TableStats:
        avg = self.total_bytes / self.row_count if self.row_count else float(
            self.schema.average_row_bytes()
        )
        return TableStats(self.row_count, avg, dict(self.distinct_estimates))

    def pruned_fragments(self, keys: PruningKeys, params: Sequence[Any] = ()) -> list[int] | None:
        """The fragments the first of *keys* (:func:`pruning_keys`) that
        names the fragmentation key narrows the table to, a ``?`` read
        from *params*; ``None`` when nothing prunes.

        The one statement of this rule: a dispatch plan evaluates it once
        per execution, for the GDH's lock set and the executor's scan set.
        """
        for column, operand in keys:
            value = params[operand.index] if isinstance(operand, Param) else operand.value
            pruned = self.scheme.prunable_fragments(column, value)
            if pruned is not None:
                return pruned
        return None

    def target_fragments(self, keys: PruningKeys, params: Sequence[Any] = ()) -> list[int]:
        """Ids of the fragments *keys* can touch (all, unpruned)."""
        pruned = self.pruned_fragments(keys, params)
        if pruned is None:
            return [fragment.fragment_id for fragment in self.fragments]
        return pruned

    def fragment(self, fragment_id: int) -> FragmentInfo:
        """The entry for *fragment_id*.

        Position usually equals id, but an online merge removes entries,
        leaving id gaps — so fall back to a search when they diverge.
        """
        if (
            0 <= fragment_id < len(self.fragments)
            and self.fragments[fragment_id].fragment_id == fragment_id
        ):
            return self.fragments[fragment_id]
        for fragment in self.fragments:
            if fragment.fragment_id == fragment_id:
                return fragment
        raise CatalogError(
            f"table {self.name!r} has no fragment {fragment_id}"
        )


#: Where one fragment copy lives: (table, fragment, element, OFM name).
PlacedCopy = tuple[TableInfo, FragmentInfo, int, str]


class Catalog:
    """The data dictionary: name -> TableInfo, plus schema views."""

    def __init__(self):
        self._tables: dict[str, TableInfo] = {}

    # -- mutation ---------------------------------------------------------------

    def create_table(self, info: TableInfo) -> None:
        name = info.name.lower()
        if name in self._tables:
            raise CatalogError(f"table {info.name!r} already exists")
        info.name = name
        self._tables[name] = info

    def drop_table(self, name: str) -> TableInfo:
        info = self.table(name)
        del self._tables[info.name]
        return info

    # -- lookup -----------------------------------------------------------------

    def table(self, name: str) -> TableInfo:
        info = self._tables.get(name.lower())
        if info is None:
            raise CatalogError(f"unknown table {name!r}")
        return info

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> list[TableInfo]:
        """All dictionary entries, in name order."""
        return [self._tables[name] for name in sorted(self._tables)]

    def placed_copies(self) -> Iterator[PlacedCopy]:
        """Every fragment copy the dictionary places: tables in name
        order, a fragment's primary before its replicas."""
        for info in self.tables():
            for fragment in info.fragments:
                for node_id, ofm_name in fragment.all_copies():
                    yield info, fragment, node_id, ofm_name

    def locate_copy(self, ofm_name: str) -> PlacedCopy:
        """Where the copy named *ofm_name* lives."""
        for placed in self.placed_copies():
            if placed[3] == ofm_name:
                return placed
        raise CatalogError(f"no catalog entry places fragment copy {ofm_name!r}")

    def adopt(self, other: "Catalog") -> None:
        """Replace this dictionary's contents with *other*'s, in place.

        Restart recovery adopts the durable copy through this: the
        Catalog *object* is shared by reference with the executor, the
        binder, and every component the GDH wired up, so the swap must
        mutate it rather than rebind a private attribute elsewhere.
        """
        self._tables.clear()
        for info in other.tables():
            self._tables[info.name] = info

    def schemas(self) -> dict[str, Schema]:
        """The binder's view: table name -> schema."""
        return {name: info.schema for name, info in self._tables.items()}

    def statistics(self) -> dict[str, TableStats]:
        """The optimizer's view: table name -> stats."""
        return {name: info.stats() for name, info in self._tables.items()}

    # -- persistence (the dictionary must survive crashes) ------------------------

    def serialize(self) -> bytes:
        """A literal-eval-able snapshot of all metadata (no row data)."""
        payload = []
        for info in self._tables.values():
            payload.append(
                {
                    "name": info.name,
                    "columns": [
                        (c.name, c.data_type.value, c.nullable)
                        for c in info.schema.columns
                    ],
                    "scheme": info.scheme.to_spec(),
                    "fragments": [
                        (f.fragment_id, f.node_id, f.ofm_name, list(f.replicas))
                        for f in info.fragments
                    ],
                    "primary_key": list(info.primary_key),
                    "indexes": [
                        (i.name, list(i.columns), i.unique, i.method)
                        for i in info.indexes
                    ],
                    "row_count": info.row_count,
                    "distinct": dict(info.distinct_estimates),
                    "total_bytes": info.total_bytes,
                }
            )
        return repr(payload).encode("utf-8")

    @classmethod
    def deserialize(cls, payload: bytes) -> "Catalog":
        catalog = cls()
        entries = _pyast.literal_eval(payload.decode("utf-8"))
        for entry in entries:
            schema = Schema(
                Column(name, DataType(type_name), nullable)
                for name, type_name, nullable in entry["columns"]
            )
            info = TableInfo(
                name=entry["name"],
                schema=schema,
                scheme=FragmentationScheme.from_spec(entry["scheme"]),
                fragments=[
                    FragmentInfo(
                        fid, node, ofm,
                        tuple((int(rn), str(ro)) for rn, ro in replicas),
                    )
                    for fid, node, ofm, replicas in entry["fragments"]
                ],
                primary_key=tuple(entry["primary_key"]),
                indexes=[
                    IndexInfo(name, tuple(cols), unique, method)
                    for name, cols, unique, method in entry["indexes"]
                ],
                row_count=entry["row_count"],
                distinct_estimates=dict(entry["distinct"]),
                total_bytes=entry["total_bytes"],
            )
            catalog.create_table(info)
        return catalog
