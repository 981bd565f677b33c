"""The public batch-kernel constructors.

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

A batch is a list of row tuples, the engine's wire/storage format: a
generated comprehension like ``[row for row in rows if row[2] > 100]``
runs the filter entirely in the interpreter's C loop.  There is no
column-major form — on CPython, building a selection vector and then
gathering costs two passes over this engine's mixed-type tuples where
the fused comprehension costs one.

Simulated-clock charges are **unchanged** by any of this: kernels are a
host-CPU optimization, and a chain charges each of its operators the
same closed-form :class:`~repro.exec.operators.WorkMeter` totals as the
row-at-a-time form it replaces.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from operator import itemgetter

from repro.errors import ExecutionError
from repro.exec.compiler import _build_source
from repro.exec.expressions import Expr
from repro.exec.pipeline import aggregate_op, kernel_of

Row = tuple
BatchKernel = Callable[[Sequence[Row]], list]
JoinBatchKernel = Callable[[Sequence[Row], Sequence[Row]], list]


# ---------------------------------------------------------------------------
# Kernel constructors.  Kernels are cached per shape by the
# ExpressionCompilerCache, exactly like row-level routines.
# ---------------------------------------------------------------------------


def compile_batch_predicate(expr: Expr) -> BatchKernel:
    """``rows -> surviving rows`` with the predicate inlined in one pass."""
    return kernel_of(("select", expr))


def compile_batch_projector(exprs: Sequence[Expr]) -> BatchKernel:
    """``rows -> projected rows`` with every output expression inlined.

    Pass-through projections (every output a plain column reference)
    run the whole batch in C through ``itemgetter`` + ``map``/``zip``.
    """
    return kernel_of(("project", tuple(exprs)))


def compile_join_kernel(
    left_keys: Sequence[int], right_keys: Sequence[int]
) -> JoinBatchKernel:
    """INNER equi-join kernel: build once, probe in one comprehension.

    Semantics are identical to an INNER
    :func:`~repro.exec.operators.hash_join` without residual: NULL keys
    on either side never match (the build side skips them, so a NULL
    probe key simply misses), matches emit in left-row order with
    build-insertion order inside a key, and output rows are
    ``left_row + right_row``.  Probing with the raw value (or key tuple)
    as the dict key gives one dict lookup per left row with no
    key-extractor call.

    A single-column build whose non-NULL keys are unique (a join on a
    key column) is built and probed without a Python object per row:
    the key column and the table come out of C (``map``/``zip``/
    ``dict``), and each left row costs one lookup.  One list per build
    row would otherwise survive until the probe ends and wake CPython's
    cyclic collector.
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

        def _join_kernel(left, right, _lc=lc, _rc=rc, _key=itemgetter(rc)):
            keys = list(map(_key, right))
            table = dict(zip(keys, right))
            nulls = keys.count(None) if None in table else 0
            # Unique iff every non-NULL row made its own entry (the NULL
            # rows share one); keys equal as dict keys (1, 1.0, True)
            # collide, so they count as duplicates.
            if len(table) + nulls - (nulls > 0) == len(right):
                table.pop(None, None)
                get = table.get
                return [row + m for row in left if (m := get(row[_lc])) is not None]  # prismalint: disable=PL101 -- kernel body; charged per batch in hash_join_batch
            table = {}
            get = table.get
            for row in right:  # prismalint: disable=PL101 -- as above
                _k = row[_rc]
                if _k is None:
                    continue
                _b = get(_k)
                if _b is None:
                    table[_k] = [row]
                else:
                    _b.append(row)
            _e = ()
            return [row + _m for row in left for _m in get(row[_lc], _e)]  # prismalint: disable=PL101 -- as above

        _join_kernel.__prisma_source__ = f"<closure join left[{lc}]=right[{rc}]>"
        return _join_kernel
    build_key = "(" + ", ".join(f"row[{c}]" for c in right_keys) + ")"
    build_null = " or ".join(f"row[{c}] is None" for c in right_keys)
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
    """Hash aggregation; *aggregates* is ``(func, arg_or_None[, distinct])``.

    Values accumulate left to right and groups come out in
    first-occurrence order, so float results, NULL handling and group
    order match the row-at-a-time reference (``tests/oracle``) exactly.
    """
    return kernel_of(aggregate_op(group_cols, aggregates))

