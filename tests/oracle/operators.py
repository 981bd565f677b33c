"""Row-at-a-time relational operators and the chain runner built on them.

The engine runs every chain of unary operators as one generated kernel
(``repro.exec.pipeline``).  These are the loops it replaced, one
operator call per op: the reference a kernel must equal in rows, element
types and ``WorkMeter`` charges.  Each charges through the same
closed-form ``charge_*`` functions the kernels use.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError
from repro.exec.operators import (
    AGGREGATE_FUNCTIONS,
    Row,
    Rows,
    WorkMeter,
    charge_aggregate,
    charge_distinct,
    charge_limit,
    charge_per_row,
    sort_rows,
    top_n_rows,
)
from repro.exec.pipeline import _positions

KeyFn = Callable[[Row], tuple]


def select_rows(
    rows: Sequence[Row],
    predicate: Callable[[Row], bool],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> Rows:
    """Filter *rows*; *eval_weight* is comparisons charged per evaluation.

    Interpreted predicates pass a larger weight than compiled ones — the
    paper's "interpretation overhead" lives in this number for the
    simulated clock (and in real wall time for E5).
    """
    charge_per_row(meter, len(rows), eval_weight)
    try:
        return [row for row in rows if predicate(row)]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"predicate failed: {exc}") from None


def project_rows(
    rows: Sequence[Row],
    projector: Callable[[Row], Row],
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> Rows:
    charge_per_row(meter, len(rows), eval_weight)
    try:
        return [projector(row) for row in rows]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"projection failed: {exc}") from None


def distinct_rows(rows: Sequence[Row], meter: WorkMeter) -> Rows:
    output: Rows = list(dict.fromkeys(rows))
    charge_distinct(meter, len(rows), len(output))
    return output


def limit_rows(
    rows: Sequence[Row],
    limit: int | None,
    offset: int = 0,
    meter: WorkMeter | None = None,
) -> Rows:
    """Slice ``rows[offset : offset+limit]`` (see ``charge_limit``)."""
    if offset < 0 or (limit is not None and limit < 0):
        raise ExecutionError("LIMIT/OFFSET must be non-negative")
    end = None if limit is None else offset + limit
    if meter is not None:
        charge_limit(meter, len(rows), limit, offset)
    return list(rows[offset:end])


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a GROUP BY: ``func(arg)`` with optional DISTINCT.

    ``arg`` is a row -> value callable, or ``None`` for ``COUNT(*)``.
    """

    func: str
    arg: Callable[[Row], Any] | None = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise ExecutionError(f"{self.func.upper()} needs an argument")


class _AggState:
    __slots__ = ("count", "total", "minimum", "maximum", "seen")

    def __init__(self, distinct: bool):
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set | None = set() if distinct else None

    def feed(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self, func: str) -> Any:
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "avg":
            return None if self.count == 0 else self.total / self.count
        if func == "min":
            return self.minimum
        return self.maximum


def aggregate_rows(
    rows: Sequence[Row],
    group_key: KeyFn | None,
    specs: Sequence[AggSpec],
    meter: WorkMeter,
) -> Rows:
    """Hash aggregation.

    Output rows are ``group_key_values + aggregate_values``.  With
    ``group_key=None`` a single global row is produced even for empty
    input (COUNT gives 0, the others NULL) — SQL semantics.
    """
    groups: dict[tuple, list[_AggState]] = {}

    def new_states() -> list[_AggState]:
        return [_AggState(spec.distinct) for spec in specs]

    if group_key is None:
        groups[()] = new_states()

    try:
        for row in rows:
            key = group_key(row) if group_key is not None else ()
            states = groups.get(key)
            if states is None:
                states = new_states()
                groups[key] = states
            for spec, state in zip(specs, states):
                if spec.func == "count" and spec.arg is None:
                    state.count += 1
                else:
                    assert spec.arg is not None
                    state.feed(spec.arg(row))
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"aggregate argument failed: {exc}") from None

    output: Rows = []
    for key, states in groups.items():
        output.append(
            tuple(key) + tuple(state.result(spec.func) for spec, state in zip(specs, states))
        )
    charge_aggregate(meter, len(rows), len(output))
    return output


# ---------------------------------------------------------------------------
# The chain runner: one operator call per op.
# ---------------------------------------------------------------------------


def _row_select(evaluator, rows, meter, predicate):
    fn, weight = evaluator.predicate(predicate)
    return select_rows(rows, fn, meter, eval_weight=weight)


def _row_project(evaluator, rows, meter, exprs):
    fn, weight = evaluator.projector(exprs)
    return project_rows(rows, fn, meter, eval_weight=weight)


def _row_aggregate(evaluator, rows, meter, group_cols, aggregates):
    group_key = evaluator.key(group_cols) if group_cols else None
    specs = [
        AggSpec(func, None if arg is None else evaluator.scalar(arg)[0], distinct)
        for func, arg, distinct, _exact in aggregates
    ]
    return aggregate_rows(rows, group_key, specs, meter)


def _row_topn(_evaluator, rows, meter, keys, limit, offset):
    positions, directions = _positions(keys)
    return top_n_rows(rows, positions, limit, offset, directions, meter)


def _row_sort(_evaluator, rows, meter, keys):
    return sort_rows(rows, *_positions(keys), meter)


_ROW_OPS = {
    "select": _row_select,
    "project": _row_project,
    "aggregate": _row_aggregate,
    "topn": _row_topn,
    "sort": _row_sort,
    "limit": lambda _evaluator, rows, meter, limit, offset: limit_rows(
        rows, limit, offset, meter
    ),
    "distinct": lambda _evaluator, rows, meter: distinct_rows(rows, meter),
}


class RowPipeline:
    """A chain run one operator call per op, each charging its meter."""

    def __init__(self, stages: tuple, evaluator):
        self.stages = stages
        self.evaluator = evaluator

    def run(
        self, rows: Sequence[Row], meters: Sequence[WorkMeter], rescan: bool = False
    ) -> tuple[list[Row], list[int]]:
        """Same contract as ``repro.exec.pipeline.Pipeline.run``."""
        outs = []
        for stage, meter in zip(self.stages, meters):
            if rescan:
                meter.tuples += len(rows)
            for op in stage:
                rows = _ROW_OPS[op[0]](self.evaluator, rows, meter, *op[1:])
            outs.append(len(rows))
        return rows, outs
