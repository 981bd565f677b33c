"""Physical relational operators.

Everything is main-memory and materialized (lists of tuples), as in
PRISMA: fragments are small enough to live in a processing element's
16 MByte store, and operators run to completion inside one OFM.

Every operator threads a :class:`WorkMeter` that counts the abstract
work units (tuples touched, hash operations, comparisons) which the
scheduler later converts into simulated time on the hosting processing
element.  The counts — not Python's own speed — are what the parallel
speedup experiments measure.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExecutionError
from repro.obs.api import SnapshotMixin

Row = tuple
Rows = list
KeyFn = Callable[[Row], tuple]
PredicateFn = Callable[[Row], bool]
ProjectFn = Callable[[Row], Row]


@dataclass
class WorkMeter(SnapshotMixin):
    """Abstract work counters, converted to simulated seconds later.

    Also a :class:`~repro.obs.api.Snapshot`, so a meter can register in
    an observatory or be fingerprinted like every other stats surface.
    """

    tuples: float = 0.0
    hashes: float = 0.0
    compares: float = 0.0

    def stats(self) -> dict[str, float]:
        return {
            "tuples": self.tuples,
            "hashes": self.hashes,
            "compares": self.compares,
        }


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT_OUTER = "left"
    SEMI = "semi"
    ANTI = "anti"


# ---------------------------------------------------------------------------
# Selection / projection.
# ---------------------------------------------------------------------------


def charge_per_row(meter: WorkMeter, n: int, eval_weight: float) -> None:
    """Closed-form work of a selection or projection over *n* rows."""
    meter.tuples += n
    meter.compares += n * eval_weight


def select_rows(
    rows: Sequence[Row],
    predicate: PredicateFn,
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
    projector: ProjectFn,
    meter: WorkMeter,
    eval_weight: float = 1.0,
) -> Rows:
    charge_per_row(meter, len(rows), eval_weight)
    try:
        return [projector(row) for row in rows]
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"projection failed: {exc}") from None


# ---------------------------------------------------------------------------
# Joins.
# ---------------------------------------------------------------------------


def hash_join(
    left: Sequence[Row],
    right: Sequence[Row],
    left_key: KeyFn,
    right_key: KeyFn,
    meter: WorkMeter,
    kind: JoinKind = JoinKind.INNER,
    right_width: int | None = None,
    residual: PredicateFn | None = None,
) -> Rows:
    """Equi-join with a hash table on the smaller (right) input.

    NULL keys never match (SQL semantics).  ``LEFT_OUTER`` pads
    unmatched left rows with ``right_width`` NULLs.  *residual* filters
    concatenated candidate rows (for mixed equi + non-equi conditions).
    """
    if kind is JoinKind.LEFT_OUTER and right_width is None:
        raise ExecutionError("LEFT_OUTER join needs right_width for NULL padding")
    # Build + probe hash charges in closed form up front: one hash per
    # input row, independent of match counts (same totals the per-row
    # accumulation produced).
    meter.hashes += len(right) + len(left)
    table: dict[tuple, list[Row]] = {}
    setdefault = table.setdefault
    for row in right:
        key = right_key(row)
        if None in key:
            continue
        setdefault(key, []).append(row)

    output: Rows = []
    append = output.append
    get = table.get
    pad = (None,) * (right_width or 0)
    for row in left:
        key = left_key(row)
        matches = get(key, ()) if None not in key else ()
        if residual is not None and matches:
            candidates = [m for m in matches if residual(row + m)]
            meter.compares += len(matches)
        else:
            candidates = matches
        if kind is JoinKind.INNER:
            for match in candidates:
                append(row + match)
        elif kind is JoinKind.LEFT_OUTER:
            if candidates:
                for match in candidates:
                    append(row + match)
            else:
                append(row + pad)
        elif kind is JoinKind.SEMI:
            if candidates:
                append(row)
        elif kind is JoinKind.ANTI:
            if not candidates:
                append(row)
    meter.tuples += len(output)
    return output


def hash_join_batch(
    left: Sequence[Row],
    right: Sequence[Row],
    kernel: Callable[[Sequence[Row], Sequence[Row]], Rows],
    meter: WorkMeter,
) -> Rows:
    """INNER equi-join via a compiled batch kernel (build + probe fused).

    The kernel (see :func:`repro.exec.batch.compile_join_kernel`) builds
    the hash table over *right* once and probes with a single
    dict-lookup loop over *left* — key extraction inlined, no per-row
    calls.  Output rows/order and meter charges are identical to
    :func:`hash_join` with ``kind=INNER`` and no residual.
    """
    meter.hashes += len(right) + len(left)
    output = kernel(left, right)
    meter.tuples += len(output)
    return output


def nested_loop_join(
    left: Sequence[Row],
    right: Sequence[Row],
    condition: PredicateFn | None,
    meter: WorkMeter,
    kind: JoinKind = JoinKind.INNER,
    right_width: int | None = None,
) -> Rows:
    """General join for non-equi conditions (or cross product)."""
    if kind is JoinKind.LEFT_OUTER and right_width is None:
        raise ExecutionError("LEFT_OUTER join needs right_width for NULL padding")
    output: Rows = []
    pad = (None,) * (right_width or 0)
    meter.compares += len(left) * len(right)
    try:
        for left_row in left:
            matched = False
            for right_row in right:
                combined = left_row + right_row
                if condition is None or condition(combined):
                    matched = True
                    if kind is JoinKind.INNER or kind is JoinKind.LEFT_OUTER:
                        output.append(combined)
                    elif kind is JoinKind.SEMI:
                        break
                    elif kind is JoinKind.ANTI:
                        break
            if kind is JoinKind.SEMI and matched:
                output.append(left_row)
            elif kind is JoinKind.ANTI and not matched:
                output.append(left_row)
            elif kind is JoinKind.LEFT_OUTER and not matched:
                output.append(left_row + pad)
    except (TypeError, ZeroDivisionError) as exc:
        raise ExecutionError(f"join condition failed: {exc}") from None
    meter.tuples += len(output)
    return output


# ---------------------------------------------------------------------------
# Sorting, duplicates, limits.
# ---------------------------------------------------------------------------


def _sort_compares(n: int) -> float:
    if n < 2:
        return 0.0
    return n * math.log2(n)


def charge_sort(meter: WorkMeter, n: int, n_keys: int) -> None:
    meter.compares += _sort_compares(n) * max(1, n_keys)
    meter.tuples += n


def charge_distinct(meter: WorkMeter, n: int, n_out: int) -> None:
    meter.hashes += n
    meter.tuples += n_out


def charge_limit(meter: WorkMeter, n: int, limit: int | None, offset: int) -> None:
    """Rows skipped by ``offset`` and rows emitted under ``limit`` are
    tuples the operator touched; rows beyond the cap are never visited."""
    meter.tuples += n if limit is None else min(n, offset + limit)


def charge_top_n(meter: WorkMeter, n: int, keep: int, n_keys: int) -> None:
    """``n·log₂(min(n, keep))`` per key column — the sort formula when
    ``keep ≥ n``, so top-N is never charged more than the sort it replaces."""
    meter.tuples += n
    bound = min(n, keep)
    if n >= 2 and bound >= 1:
        meter.compares += n * math.log2(max(2, bound)) * max(1, n_keys)


def charge_aggregate(meter: WorkMeter, n: int, n_out: int) -> None:
    """One hash + one tuple per input row, one tuple per output group."""
    meter.hashes += n
    meter.tuples += n
    meter.tuples += n_out


def sort_rows(
    rows: Sequence[Row],
    key_positions: Sequence[int],
    descending: Sequence[bool] | None = None,
    meter: WorkMeter | None = None,
) -> Rows:
    """Stable multi-column sort; NULLs sort first (ascending).

    Mixed ascending/descending columns are handled by sorting from the
    least-significant key outward (stability does the rest).
    """
    if meter is not None:
        charge_sort(meter, len(rows), len(key_positions))
    if descending is None:
        descending = [False] * len(key_positions)
    if len(descending) != len(key_positions):
        raise ExecutionError("sort: key/direction lists differ in length")
    result = list(rows)
    for position, desc in reversed(list(zip(key_positions, descending))):
        result.sort(
            key=lambda row: _null_safe_key(row[position]),
            reverse=desc,
        )
    return result


def _null_safe_key(value: Any) -> tuple:
    # None < bools < numbers < strings, each comparable within its class.
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def distinct_rows(rows: Sequence[Row], meter: WorkMeter) -> Rows:
    # dict.fromkeys is the C-speed first-occurrence dedup: identical
    # rows and order to the old per-row seen-set loop.
    output: Rows = list(dict.fromkeys(rows))
    charge_distinct(meter, len(rows), len(output))
    return output


def limit_rows(
    rows: Sequence[Row],
    limit: int | None,
    offset: int = 0,
    meter: WorkMeter | None = None,
) -> Rows:
    """Slice ``rows[offset : offset+limit]`` (see :func:`charge_limit`)."""
    if offset < 0 or (limit is not None and limit < 0):
        raise ExecutionError("LIMIT/OFFSET must be non-negative")
    end = None if limit is None else offset + limit
    if meter is not None:
        charge_limit(meter, len(rows), limit, offset)
    return list(rows[offset:end])


class _Desc:
    """Inverts the ordering of one sort-key component (descending keys).

    Only ``__lt__``/``__eq__`` are needed: tuple comparison tests
    elements with ``==`` first and decides with ``<``, and the appended
    original-row index makes the full decorated key a total order.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key


def top_n_rows(
    rows: Sequence[Row],
    key_positions: Sequence[int],
    limit: int,
    offset: int = 0,
    descending: Sequence[bool] | None = None,
    meter: WorkMeter | None = None,
) -> Rows:
    """Fused ORDER BY + LIMIT via a bounded heap.

    Produces exactly ``limit_rows(sort_rows(rows, ...), limit, offset)``
    — including stability (ties resolve by original row position, the
    same order repeated stable sorts give) — but keeps only the best
    ``offset + limit`` candidates at any time, so the comparison charge
    is :func:`charge_top_n`'s instead of the full ``n·log₂(n)`` sort.
    """
    if offset < 0 or limit < 0:
        raise ExecutionError("LIMIT/OFFSET must be non-negative")
    if descending is None:
        descending = [False] * len(key_positions)
    if len(descending) != len(key_positions):
        raise ExecutionError("top-n: key/direction lists differ in length")
    keep = offset + limit
    if meter is not None:
        charge_top_n(meter, len(rows), keep, len(key_positions))
    if keep == 0:
        return []

    directions = tuple(zip(key_positions, descending))

    def decorated(item: tuple) -> tuple:
        index, row = item
        parts: list = []
        for position, desc in directions:
            key = _null_safe_key(row[position])
            parts.append(_Desc(key) if desc else key)
        parts.append(index)
        return tuple(parts)

    smallest = heapq.nsmallest(keep, enumerate(rows), key=decorated)
    return [row for _index, row in smallest[offset:]]


# ---------------------------------------------------------------------------
# Set operations (SQL semantics: UNION/INTERSECT/EXCEPT deduplicate).
# ---------------------------------------------------------------------------


def union_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    return distinct_rows(list(left) + list(right), meter)


def union_all_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.tuples += len(left) + len(right)
    return list(left) + list(right)


def intersect_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.hashes += len(left) + len(right)
    right_set = set(right)
    output = []
    seen: set[Row] = set()
    for row in left:
        if row in right_set and row not in seen:
            seen.add(row)
            output.append(row)
    meter.tuples += len(output)
    return output


def difference_rows(left: Sequence[Row], right: Sequence[Row], meter: WorkMeter) -> Rows:
    meter.hashes += len(left) + len(right)
    right_set = set(right)
    output = []
    seen: set[Row] = set()
    for row in left:
        if row not in right_set and row not in seen:
            seen.add(row)
            output.append(row)
    meter.tuples += len(output)
    return output


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate in a GROUP BY: ``func(arg)`` with optional DISTINCT.

    ``arg`` is a compiled scalar (row -> value) or ``None`` for
    ``COUNT(*)``.
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

    Work charges are closed-form per batch (:func:`charge_aggregate`).
    This is the row path (the interpreted back-end, DISTINCT aggregates,
    the identity oracle); the compiled pipeline's aggregate kernel
    accumulates in the same order, so float results, NULL handling and
    group output order agree.
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

