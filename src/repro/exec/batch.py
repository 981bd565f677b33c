"""Columnar batches and the public batch-kernel constructors.

The paper's generative approach (Section 2.5) compiled *scalar*
expressions into per-row routines; PR 4 extended it to shuffle
splitters, PR 7 to whole operators, and :mod:`repro.exec.pipeline` to
whole **chains** of operators: one specialized function per chain shape
that passes over a batch of rows with the expression code inlined, so
the hot loops contain **zero per-row Python calls** (no predicate
callable, no projector callable, no key extractor) and no relation is
built between a selection, the projection above it and the aggregation
above that.  The constructors here — ``compile_batch_predicate``,
``compile_batch_projector``, ``compile_agg_kernel`` — are that
compiler's one-op chains in ``rows -> rows`` form (what the
micro-benchmarks time); the INNER equi-join kernel, which has two
inputs and so ends a chain, is generated here.

Two data layouts are supported through :class:`ColumnBatch`:

* **row-major** — a list of tuples, the engine's wire/storage format.
  All compiled kernels consume this view directly: a generated
  comprehension like ``[row for row in rows if row[2] > 100]`` runs the
  filter entirely in the interpreter's C loop.
* **column-major** — one plain Python list per column (``array('q')``
  backed when a column is all machine ints), with a *selection vector*
  (list of surviving row indices) as the filter result.  Conversion in
  either direction is a single ``zip`` and is cached, so passing a
  batch across a plan boundary costs nothing when the layout already
  matches.

Which layout wins is an empirical question; the ``columnar`` perf-gate
suite measures both.  On CPython the row-major compiled kernels win for
this engine's mixed-type tuples (building a selection vector and then
gathering costs two passes where the fused comprehension costs one),
so the executors use the row view; the columnar path stays available
for column-sliced projections (zero-copy pass-through) and for
all-int analytics where ``array`` packing pays.

Simulated-clock charges are **unchanged** by any of this: kernels are a
host-CPU optimization, and a chain charges each of its operators the
same closed-form :class:`~repro.exec.operators.WorkMeter` totals as the
row-at-a-time form it replaces.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ExecutionError
from repro.exec.compiler import _build_source, _Emitter
from repro.exec.expressions import ColumnRef, Expr
from repro.exec.pipeline import aggregate_op, kernel_of

Row = tuple
BatchKernel = Callable[[Sequence[Row]], list]
JoinBatchKernel = Callable[[Sequence[Row], Sequence[Row]], list]

#: ``array`` typecode for packed integer columns (64-bit signed).
_INT_TYPECODE = "q"
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ColumnBatch:
    """A batch of rows with cached dual row/column representation.

    Construction from either layout is O(1) (the input list is adopted,
    not copied); the *other* layout is materialized lazily on first
    access and cached.  Batches are treated as immutable once built —
    callers must not mutate adopted lists.
    """

    __slots__ = ("_rows", "_columns", "_length", "_width")

    def __init__(self, rows, columns, length, width):
        self._rows = rows
        self._columns = columns
        self._length = length
        self._width = width

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int | None = None) -> "ColumnBatch":
        rows = rows if isinstance(rows, list) else list(rows)
        if width is None:
            width = len(rows[0]) if rows else 0
        return cls(rows, None, len(rows), width)

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[Any]], length: int | None = None
    ) -> "ColumnBatch":
        columns = list(columns)
        if length is None:
            length = len(columns[0]) if columns else 0
        for column in columns:
            if len(column) != length:
                raise ExecutionError("ColumnBatch columns have unequal lengths")
        return cls(None, columns, length, len(columns))

    # -- shape --------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def width(self) -> int:
        return self._width

    @property
    def has_rows(self) -> bool:
        return self._rows is not None

    @property
    def has_columns(self) -> bool:
        return self._columns is not None

    # -- layout access ------------------------------------------------------

    def rows(self) -> list[Row]:
        """The row-major view (materialized once, then cached)."""
        if self._rows is None:
            self._rows = list(zip(*self._columns)) if self._columns else []
        return self._rows

    def columns(self) -> list[Sequence[Any]]:
        """The column-major view (materialized once, then cached)."""
        if self._columns is None:
            if self._rows:
                self._columns = [list(col) for col in zip(*self._rows)]
            else:
                self._columns = [[] for _ in range(self._width)]
        return self._columns

    def column(self, index: int) -> Sequence[Any]:
        return self.columns()[index]

    def packed_column(self, index: int) -> Sequence[Any]:
        """The column, ``array('q')``-packed when it is all machine ints.

        Falls back to the plain list for mixed/overflowing columns
        (bools are deliberately *not* packed: ``array`` would flatten
        ``True`` to ``1`` and break exact round-tripping).
        """
        column = self.column(index)
        if not all(
            type(value) is int and _INT64_MIN <= value <= _INT64_MAX
            for value in column
        ):
            return column
        return array(_INT_TYPECODE, column)

    # -- batch operations ----------------------------------------------------

    def take(self, selection: Sequence[int]) -> "ColumnBatch":
        """Gather the rows named by a selection vector (in order)."""
        if self._rows is not None:
            rows = self._rows
            return ColumnBatch.from_rows([rows[i] for i in selection], self._width)
        picked = [[column[i] for i in selection] for column in self.columns()]
        return ColumnBatch.from_columns(picked, len(selection))

    def project(self, indices: Sequence[int]) -> "ColumnBatch":
        """Column slicing: pass-through columns are shared, not copied.

        Zero-copy when the column-major view exists; otherwise a compiled
        batch projector over the row view is the cheaper route and the
        caller should use that instead.
        """
        columns = self.columns()
        return ColumnBatch.from_columns(
            [columns[i] for i in indices], self._length
        )


# ---------------------------------------------------------------------------
# Kernel constructors.  Kernels are cached per shape by the
# ExpressionCompilerCache, exactly like row-level routines.
# ---------------------------------------------------------------------------


def compile_batch_predicate(expr: Expr) -> BatchKernel:
    """``rows -> surviving rows`` with the predicate inlined in one pass."""
    return kernel_of(("select", expr))


def compile_selection_vector(expr: Expr) -> Callable[[Sequence[Row]], list[int]]:
    """``rows -> selection vector`` (indices of surviving rows).

    The opteryx-style columnar filter form: combined with
    :meth:`ColumnBatch.take` it filters without rebuilding rows.  Kept
    for the columnar layout and the micro-benchmarks; the fused
    :func:`compile_batch_predicate` form is what the executors use.
    """
    emitter = _Emitter()
    body = emitter.predicate(expr)
    source = (
        "def _selection_vector(rows):\n"
        f"    return [_i for _i, row in enumerate(rows) if {body}]\n"
    )
    return _build_source(source, emitter.env, "_selection_vector")


def compile_batch_projector(exprs: Sequence[Expr]) -> BatchKernel:
    """``rows -> projected rows`` with every output expression inlined.

    Pass-through projections (every output a plain column reference)
    run the whole batch in C through ``itemgetter`` + ``map``/``zip``.
    """
    return kernel_of(("project", tuple(exprs)))


def _key_exprs(positions: Sequence[int]) -> tuple[str, str]:
    """(key-building code, NULL-test code) for build-side rows."""
    if len(positions) == 1:
        return f"row[{positions[0]}]", f"_k is None"
    key = "(" + ", ".join(f"row[{c}]" for c in positions) + ")"
    null_test = " or ".join(f"row[{c}] is None" for c in positions)
    return key, null_test


def compile_join_kernel(
    left_keys: Sequence[int], right_keys: Sequence[int]
) -> JoinBatchKernel:
    """INNER equi-join kernel: build once, probe in one comprehension.

    Semantics are identical to the :func:`~repro.exec.operators.hash_join`
    INNER fast path: NULL keys on either side never match (the build
    side skips them, so a NULL probe key simply misses), matches emit in
    left-row order with build-insertion order inside a key, and output
    rows are ``left_row + right_row``.  Probing with the raw value (or
    key tuple) as the dict key gives one dict lookup per left row with
    no key-extractor call.
    """
    left_keys = tuple(left_keys)
    right_keys = tuple(right_keys)
    if not left_keys or len(left_keys) != len(right_keys):
        raise ExecutionError("join kernel needs matching, non-empty key lists")
    if len(left_keys) == 1:
        # Single-column keys need no codegen: the only thing the
        # generated source would specialize is the key index, and a
        # LOAD_FAST of a bound default is as cheap as a LOAD_CONST.
        # Skipping compile() keeps first-query latency down.
        lc, rc = left_keys[0], right_keys[0]

        def _join_kernel(left, right, _lc=lc, _rc=rc):
            table = {}
            get = table.get
            for row in right:
                _k = row[_rc]
                if _k is None:
                    continue
                _b = get(_k)
                if _b is None:
                    table[_k] = [row]
                else:
                    _b.append(row)
            _e = ()
            return [row + _m for row in left for _m in get(row[_lc], _e)]

        _join_kernel.__prisma_source__ = f"<closure join left[{lc}]=right[{rc}]>"
        return _join_kernel
    build_key, build_null = _key_exprs(right_keys)
    if len(left_keys) == 1:
        probe_key = f"row[{left_keys[0]}]"
    else:
        probe_key = "(" + ", ".join(f"row[{c}]" for c in left_keys) + ")"
    lines = [
        "def _join_kernel(left, right):",
        "    table = {}",
        "    get = table.get",
        "    for row in right:",
        f"        _k = {build_key}",
        f"        if {build_null}:",
        "            continue",
        "        _b = get(_k)",
        "        if _b is None:",
        "            table[_k] = [row]",
        "        else:",
        "            _b.append(row)",
        "    _e = ()",
        f"    return [row + _m for row in left for _m in get({probe_key}, _e)]",
    ]
    source = "\n".join(lines) + "\n"
    return _build_source(source, {}, "_join_kernel")


def compile_agg_kernel(
    group_cols: Sequence[int], aggregates: Sequence[tuple[str, Expr | None]]
) -> BatchKernel:
    """Non-DISTINCT hash aggregation; *aggregates* is ``(func, arg_or_None)``.

    Accumulation order — and hence float results, NULL handling, and
    first-occurrence group output order — matches
    :func:`~repro.exec.operators.aggregate_rows` exactly.
    """
    return kernel_of(aggregate_op(group_cols, aggregates))


def batchable_projection(exprs: Sequence[Expr]) -> tuple[int, ...] | None:
    """Column indices when every output is a plain column reference.

    Such projections are pure column slices — zero copies on a
    column-major :class:`ColumnBatch`.
    """
    indices = []
    for expr in exprs:
        if not isinstance(expr, ColumnRef):
            return None
        indices.append(expr.index)
    return tuple(indices)
