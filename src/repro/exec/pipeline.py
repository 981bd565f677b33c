"""The pipeline compiler: one generated function per operator chain.

The paper's generative approach (Section 2.5) generates routines for
the query at hand instead of interpreting a generic plan.  PR 7 took
that to one kernel per *operator*; this module takes it to one kernel
per **chain** of unary operators, so nothing is interpreted — and no
intermediate relation is built — between a selection, the projection
above it and the aggregation above that.

A chain is a tuple of *stages*; a stage is a tuple of *ops* that share
one :class:`~repro.exec.operators.WorkMeter` (one simulated charge).
The distributed executor runs one op per stage, except for the merge
phase of a two-phase aggregation (aggregate + final projection, charged
together); a single-site plan is one stage however many ops it has.
Ops are plain hashable tuples — the chain *is* its cache key:

===========  ====================================================
``select``   ``("select", predicate)``
``project``  ``("project", exprs)``
``aggregate````("aggregate", group_cols, ((func, arg, distinct, exact_int), ...))``
``topn``     ``("topn", keys, limit, offset)``
``sort``     ``("sort", keys)``
``limit``    ``("limit", limit, offset)``
``distinct`` ``("distinct",)``
===========  ====================================================

Code generation walks the chain bottom-up keeping a *source* (the last
materialized list of rows) and a *pending projection* (expressions over
the source's rows).  A projection emits no code: it is composed into
whatever reads it, so ``Project[v] → SUM(col0)`` becomes a reduction
over ``row[1]`` of the scanned rows.  A selection is a comprehension
over the source with the composed predicate as its condition (it keeps
the source's rows, so the projection stays pending).  A group-less
aggregation extracts each argument's non-NULL column once and reduces
it in C (``len``/``sum``/``min``/``max``); grouped aggregation and
top-N keep their loops and read the composed expressions.  The function
returns its rows and the cardinality after every op, from which
:meth:`Pipeline.run` charges each stage its operators' closed-form
work.  The row-at-a-time reference these kernels must equal, rows,
element types and charges, is the test-side oracle in ``tests/oracle``.

Identity traps, all covered by ``tests/test_exec_pipeline.py``:

* ``SUM`` must add left to right: ``sum()`` is compensated for floats
  from Python 3.12 on and starts from ``0`` (so ``[True]`` sums to
  ``1`` and ``[-0.0]`` to ``0.0``).  ``sum`` is used only where the
  schema declares the argument INT (``exact_int``: storage admits
  nothing but ``int`` there); everything else goes through
  ``reduce(add)``.
* ``min``/``max`` keep the first of equal values and never replace on
  an unordered comparison (NaN) — exactly the ``<``/``>`` loop — once
  NULLs are filtered.
* Groups come out in first-occurrence order.
* A DISTINCT aggregate sees each value once, the first of those equal
  as set members (``1``, ``1.0`` and ``True`` are one value; ``-0.0``
  and ``0.0`` too): ``dict.fromkeys`` dedups a group-less column in
  order, a grouped one keeps a ``set`` per group and aggregate.

A dead expression is never evaluated: where the row-at-a-time oracle
would raise on a projected column nothing reads, the kernel does not.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from operator import add, itemgetter
from typing import Any

from repro.errors import ExecutionError
from repro.exec.compiler import _build_source, _Emitter
from repro.exec.expressions import (
    ColumnRef,
    Expr,
    expression_weight,
    substitute_columns,
)
from repro.exec.operators import (
    AGGREGATE_FUNCTIONS,
    Row,
    WorkMeter,
    charge_aggregate,
    charge_distinct,
    charge_limit,
    charge_per_row,
    charge_sort,
    charge_top_n,
    sort_rows,
    top_n_rows,
)

Op = tuple
Stage = tuple
Chain = tuple


def _positions(keys):
    return [i for i, _ in keys], [d for _, d in keys]


class Pipeline:
    """A compiled chain: the kernel plus each op's closed-form charge."""

    __slots__ = ("kernel", "_charges", "operator_shapes")

    def __init__(self, kernel, charges: tuple, operator_shapes: tuple):
        self.kernel = kernel
        #: Per stage, one ``charge(meter, n_in, n_out)`` per op.
        self._charges = charges
        #: ``("op", shape)`` of every selection, projection and
        #: aggregation: what the compiler cache counts lookups by.
        self.operator_shapes = operator_shapes

    def run(
        self, rows: Sequence[Row], meters: Sequence[WorkMeter], rescan: bool = False
    ) -> tuple[list[Row], list[int]]:
        """Run the chain over *rows*; returns (rows, rows out of each stage).

        ``meters[i]`` is charged stage *i*'s work; with *rescan* each
        stage first reads its input like a scan does (a stage shipped to
        a site on its own starts from a relation, not from a pipe).
        """
        try:
            out, counts = self.kernel(rows)
        except (TypeError, ZeroDivisionError) as exc:
            raise ExecutionError(f"operator chain failed: {exc}") from None
        n = len(rows)
        outs = []
        position = 0
        for charges, meter in zip(self._charges, meters):
            if rescan:
                meter.tuples += n
            for charge in charges:
                n_out = counts[position]
                position += 1
                charge(meter, n, n_out)
                n = n_out
            outs.append(n)
        return out, outs


def compile_pipeline(stages: Chain) -> Pipeline:
    """Generate the kernel of a chain."""
    generator = _Generator()
    charges = tuple(
        tuple(generator.op(*op) for op in stage) for stage in stages
    )
    shapes = tuple(
        ("op", _operator_shape(op))
        for stage in stages
        for op in stage
        if op[0] in ("select", "project", "aggregate")
    )
    return Pipeline(generator.build(), charges, shapes)


def _operator_shape(op: Op) -> tuple:
    if op[0] == "aggregate":
        return (op[0], op[1], tuple((func, arg, distinct) for func, arg, distinct, _ in op[2]))
    return op


def _tuple_code(parts: Sequence[str]) -> str:
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


class _Generator:
    """Emits one function body for a chain, op by op."""

    def __init__(self):
        self.emitter = _Emitter()
        self.lines: list[str] = []
        self.counts: list[str] = []
        #: Name of the last materialized row list.
        self.source = "rows"
        #: Pending projection over the source's rows (None: identity).
        self.cols: tuple[Expr, ...] | None = None
        self._names = 0

    def op(self, kind: str, *args):
        """Emit one op; returns its ``charge(meter, n_in, n_out)``."""
        charge = getattr(self, f"_{kind}")(*args)
        self.counts.append(f"len({self.source})")
        return charge

    def build(self):
        self._materialize()
        body = "".join(f"    {line}\n" for line in self.lines)
        source = (
            f"def _pipeline(rows):\n{body}"
            f"    return {self.source}, {_tuple_code(self.counts)}\n"
        )
        return _build_source(source, self.emitter.env, "_pipeline")

    # -- helpers ------------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._names += 1
        return f"_{prefix}{self._names}"

    def _emit(self, expression: str) -> None:
        """Bind the next source to *expression*."""
        name = self._fresh("r")
        self.lines.append(f"{name} = {expression}")
        self.source = name

    def _compose(self, expr: Expr) -> Expr:
        return expr if self.cols is None else substitute_columns(expr, self.cols)

    def _materialize(self) -> None:
        """Build the pending projection's tuples."""
        if self.cols is None:
            return
        if all(isinstance(e, ColumnRef) for e in self.cols):
            # Pure column slices run in C: itemgetter + map/zip build
            # the same tuples the comprehension would.
            getter = self.emitter.bind("get", itemgetter(*(e.index for e in self.cols)))
            mapped = f"map({getter}, {self.source})"
            self._emit(f"list(zip({mapped}))" if len(self.cols) == 1 else f"list({mapped})")
        else:
            parts = [self.emitter.scalar(e) for e in self.cols]
            self._emit(f"[{_tuple_code(parts)} for row in {self.source}]")
        self.cols = None

    def _physical_keys(self, keys) -> tuple[list[int], list[bool]]:
        """Sort keys as positions in the source's rows, materializing
        the pending projection unless every key passes a column through."""
        positions, directions = _positions(keys)
        if self.cols is not None:
            if all(isinstance(self.cols[i], ColumnRef) for i in positions):
                positions = [self.cols[i].index for i in positions]
            else:
                self._materialize()
        return positions, directions

    # -- ops ----------------------------------------------------------------

    def _select(self, predicate: Expr):
        condition = self.emitter.predicate(self._compose(predicate))
        self._emit(f"[row for row in {self.source} if {condition}]")
        weight = expression_weight(predicate)
        return lambda meter, n, _out: charge_per_row(meter, n, weight)

    def _project(self, exprs: Sequence[Expr]):
        self.cols = tuple(self._compose(e) for e in exprs)
        weight = sum(expression_weight(e) for e in exprs)
        return lambda meter, n, _out: charge_per_row(meter, n, weight)

    def _topn(self, keys, limit: int, offset: int):
        positions, directions = self._physical_keys(keys)
        fn = self.emitter.bind("fn", top_n_rows)
        self._emit(f"{fn}({self.source}, {positions}, {limit}, {offset}, {directions})")
        keep, n_keys = limit + offset, len(keys)
        return lambda meter, n, _out: charge_top_n(meter, n, keep, n_keys)

    def _sort(self, keys):
        positions, directions = self._physical_keys(keys)
        fn = self.emitter.bind("fn", sort_rows)
        self._emit(f"{fn}({self.source}, {positions}, {directions})")
        n_keys = len(keys)
        return lambda meter, n, _out: charge_sort(meter, n, n_keys)

    def _limit(self, limit: int | None, offset: int):
        end = "" if limit is None else offset + limit
        self._emit(f"{self.source}[{offset}:{end}]")
        return lambda meter, n, _out: charge_limit(meter, n, limit, offset)

    def _distinct(self):
        self._materialize()
        self._emit(f"list(dict.fromkeys({self.source}))")
        return charge_distinct

    def _aggregate(self, group_cols: Sequence[int], aggregates):
        composed = [
            (func, None if arg is None else self._compose(arg), distinct, exact)
            for func, arg, distinct, exact in aggregates
        ]
        if group_cols:
            keys = [self._compose(ColumnRef(i)) for i in group_cols]
            self._grouped_aggregate(keys, composed)
        else:
            self._global_aggregate(composed)
        self.cols = None
        return charge_aggregate

    def _global_aggregate(self, aggregates) -> None:
        """One output row (even for empty input: SQL semantics), each
        value a C-level reduction over its argument's non-NULL column."""
        source = self.source
        columns: dict[tuple[Expr, bool], str] = {}
        totals: dict[tuple[Expr, bool, bool], str] = {}

        def column_of(arg: Expr, distinct: bool) -> str:
            column = columns.get((arg, distinct))
            if column is None:
                column = columns[arg, distinct] = self._fresh("c")
                if distinct:
                    self.lines.append(
                        f"{column} = list(dict.fromkeys({column_of(arg, False)}))"
                    )
                else:
                    self.lines.append(
                        f"{column} = [_v for row in {source}"
                        f" if (_v := {self.emitter.scalar(arg)}) is not None]"
                    )
            return column

        values = []
        for func, arg, distinct, exact in aggregates:
            if arg is None:
                values.append(f"len({source})")
                continue
            column = column_of(arg, distinct)
            if func in ("sum", "avg"):
                total = totals.get((arg, distinct, exact))
                if total is None:
                    total = totals[arg, distinct, exact] = self._fresh("s")
                    if exact:
                        summed = f"sum({column})"
                    else:
                        self.emitter.env.update(_reduce=reduce, _add=add)
                        summed = f"_reduce(_add, {column})"
                    self.lines.append(f"{total} = {summed} if {column} else None")
            if func == "count":
                values.append(f"len({column})")
            elif func == "sum":
                values.append(total)
            elif func == "avg":
                values.append(f"(None if {total} is None else {total} / len({column}))")
            else:
                values.append(f"{func}({column}, default=None)")
        self._emit(f"[{_tuple_code(values)}]")

    def _grouped_aggregate(self, keys: Sequence[Expr], aggregates) -> None:
        """Hash aggregation over flat accumulator slots, one list per
        group; values accumulate left to right, groups come out in
        first-occurrence order."""
        scalar = self.emitter.scalar
        inits: list[str] = []  # slot initial values, as code
        updates: list[str] = []  # per-row update lines (loop body)
        results: list[str] = []  # output value expressions over `state`

        def slot(initial: str) -> int:
            inits.append(initial)
            return len(inits) - 1

        for index, (func, arg, distinct, _exact) in enumerate(aggregates):
            if arg is None:
                count = slot("0")
                updates.append(f"state[{count}] += 1")
                results.append(f"state[{count}]")
                continue
            value = f"_v{index}"
            updates.append(f"{value} = {scalar(arg)}")
            if distinct:
                seen = slot("set()")
                updates.append(
                    f"if {value} is not None and {value} not in state[{seen}]:"
                )
                updates.append(f"    state[{seen}].add({value})")
            else:
                updates.append(f"if {value} is not None:")
            if func in ("count", "avg"):
                count = slot("0")
                updates.append(f"    state[{count}] += 1")
            if func in ("sum", "avg"):
                total = slot("None")
                updates.append(f"    _t = state[{total}]")
                updates.append(
                    f"    state[{total}] = {value} if _t is None else _t + {value}"
                )
            if func == "count":
                results.append(f"state[{count}]")
            elif func == "sum":
                results.append(f"state[{total}]")
            elif func == "avg":
                results.append(
                    f"(None if state[{count}] == 0 else state[{total}] / state[{count}])"
                )
            else:
                best = slot("None")
                compare = "<" if func == "min" else ">"
                updates.append(
                    f"    if state[{best}] is None or {value} {compare} state[{best}]:"
                )
                updates.append(f"        state[{best}] = {value}")
                results.append(f"state[{best}]")

        if len(keys) == 1:
            key_code, out_key = scalar(keys[0]), "(_k,)"
        else:
            key_code, out_key = _tuple_code([scalar(k) for k in keys]), "_k"
        out_row = f"{out_key} + {_tuple_code(results)}" if results else out_key
        self.lines += [
            "groups = {}",
            "get = groups.get",
            f"for row in {self.source}:",
            f"    _k = {key_code}",
            "    state = get(_k)",
            "    if state is None:",
            f"        groups[_k] = state = [{', '.join(inits)}]",
            *(f"    {line}" for line in updates),
        ]
        self._emit(f"[{out_row} for _k, state in groups.items()]")


def aggregate_op(group_cols: Sequence[int], aggregates: Sequence[tuple]) -> Op:
    """An ``aggregate`` op from ``(func, arg[, distinct[, exact_int]])`` specs."""
    specs = tuple((*spec, False, False)[:4] for spec in aggregates)
    for func, arg, _distinct, _exact in specs:
        if func not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {func!r}")
        if func != "count" and arg is None:
            raise ExecutionError(f"{func.upper()} needs an argument")
    return ("aggregate", tuple(group_cols), specs)


def kernel_of(*ops: Op) -> Any:
    """``rows -> rows`` for a one-stage chain (the public kernel form)."""
    kernel = compile_pipeline((ops,)).kernel

    def run(rows):
        return kernel(rows)[0]

    run.__prisma_source__ = kernel.__prisma_source__
    return run
