"""Equivalence of the expression compiler and the interpreter.

The paper's generative approach (Section 2.5) only makes sense if the
compiled routines are *semantically identical* to interpretation; the
hypothesis test at the bottom enforces that over random expressions and
rows.
"""

import math
import warnings
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExpressionError
from repro.exec.compiler import (
    ExpressionCompilerCache,
    compile_key,
    compile_predicate,
    compile_projector,
    compile_scalar,
    guard_call,
)
from repro.exec.expressions import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    and_,
    col,
    eq,
    lit,
    or_,
)

from tests.oracle.interpreter import evaluate, evaluate_predicate


class TestInterpreterSemantics:
    def test_null_comparisons_are_false(self):
        expr = Comparison(">", col(0), lit(5))
        assert evaluate(expr, (None,)) is False
        assert evaluate(eq(col(0), lit(None)), (5,)) is False

    def test_null_arithmetic_propagates(self):
        expr = Arithmetic("+", col(0), lit(1))
        assert evaluate(expr, (None,)) is None

    def test_function_on_null_is_null(self):
        assert evaluate(FunctionCall("abs", (col(0),)), (None,)) is None

    def test_is_null(self):
        assert evaluate(IsNull(col(0)), (None,)) is True
        assert evaluate(IsNull(col(0), negated=True), (None,)) is False

    def test_division_by_zero_raises(self):
        expr = Arithmetic("/", lit(1), col(0))
        with pytest.raises(ExpressionError):
            evaluate(expr, (0,))
        expr = FunctionCall("mod", (lit(5), col(0)))
        with pytest.raises(ExpressionError):
            evaluate(expr, (0,))

    def test_type_confusion_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(Comparison("<", col(0), lit("x")), (1,))
        with pytest.raises(ExpressionError):
            evaluate(Arithmetic("+", col(0), lit("x")), (1,))

    def test_like_semantics(self):
        expr = Like(col(0), "a_c%")
        assert evaluate(expr, ("abcdef",)) is True
        assert evaluate(expr, ("abX",)) is False
        assert evaluate(expr, (None,)) is False
        assert evaluate(Like(col(0), "a%", negated=True), ("xyz",)) is True

    def test_like_is_anchored(self):
        assert evaluate(Like(col(0), "b"), ("abc",)) is False

    def test_in_list(self):
        expr = InList(col(0), (1, 2, 3))
        assert evaluate(expr, (2,)) is True
        assert evaluate(expr, (9,)) is False
        assert evaluate(expr, (None,)) is False

    def test_short_circuit_or_with_null(self):
        # TRUE OR (NULL comparison) must be TRUE.
        expr = or_(eq(col(0), lit(1)), Comparison(">", col(1), lit(5)))
        assert evaluate_predicate(expr, (1, None)) is True

    def test_functions(self):
        assert evaluate(FunctionCall("length", (lit("abcd"),)), ()) == 4
        assert evaluate(FunctionCall("upper", (lit("ab"),)), ()) == "AB"
        assert evaluate(FunctionCall("lower", (lit("AB"),)), ()) == "ab"
        assert evaluate(FunctionCall("mod", (lit(7), lit(3))), ()) == 1
        assert evaluate(FunctionCall("abs", (lit(-3),)), ()) == 3


class TestCompiledMatchesHandPicked:
    CASES = [
        (Comparison(">", col(0), lit(5)), [(6,), (5,), (None,)]),
        (eq(col(0), col(1)), [(1, 1), (1, 2), (None, None)]),
        (
            and_(Comparison(">=", col(0), lit(0)), Comparison("<", col(0), lit(10))),
            [(5,), (-1,), (10,), (None,)],
        ),
        (or_(IsNull(col(0)), eq(col(0), lit("x"))), [(None,), ("x",), ("y",)]),
        (Not(InList(col(0), (1, 2))), [(1,), (3,), (None,)]),
        (Like(col(0), "%@prisma.nl"), [("a@prisma.nl",), ("b@other",), (None,)]),
        (
            Comparison("<", Arithmetic("*", col(0), lit(2)), col(1)),
            [(2, 5), (3, 5), (None, 5), (2, None)],
        ),
        (eq(FunctionCall("mod", (col(0), lit(2))), lit(0)), [(4,), (5,), (None,)]),
    ]

    @pytest.mark.parametrize("expr,rows", CASES)
    def test_predicate_equivalence(self, expr, rows):
        compiled = compile_predicate(expr)
        for row in rows:
            assert bool(compiled(row)) == evaluate_predicate(expr, row), (
                expr.to_sql(),
                row,
            )

    def test_scalar_equivalence(self):
        expr = Arithmetic("+", Arithmetic("*", col(0), lit(3)), Negate(col(1)))
        compiled = compile_scalar(expr)
        for row in [(2, 5), (0, 0), (None, 1), (1, None)]:
            assert compiled(row) == evaluate(expr, row)

    def test_projector(self):
        projector = compile_projector([col(1), Arithmetic("+", col(0), lit(1)), lit("k")])
        assert projector((10, "a")) == ("a", 11, "k")

    def test_single_column_projector_returns_tuple(self):
        projector = compile_projector([col(0)])
        assert projector((7,)) == (7,)

    def test_compile_key(self):
        key = compile_key([2, 0])
        assert key(("a", "b", "c")) == ("c", "a")

    def test_guard_call_translates_runtime_faults(self):
        divider = compile_scalar(Arithmetic("/", lit(1), col(0)))
        with pytest.raises(ExpressionError):
            guard_call(divider, (0,))
        comparer = compile_predicate(Comparison("<", col(0), col(1)))
        with pytest.raises(ExpressionError):
            guard_call(comparer, (1, "x"))

    def test_non_finite_literals_are_bound_constants(self):
        assert compile_predicate(Comparison("<", col(0), lit(math.inf)))((2.5,)) is True
        assert compile_scalar(Arithmetic("*", col(0), lit(-math.inf)))((2.5,)) == -math.inf
        nan = compile_scalar(lit(math.nan))(())
        assert nan != nan

    def test_is_null_of_a_constant_compiles_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compile_predicate(IsNull(lit(5)))(()) is False
            assert compile_scalar(IsNull(Negate(lit(5)), negated=True))(()) is True

    def test_generated_source_attached(self):
        fn = compile_predicate(eq(col(0), lit(1)))
        assert "def _compiled_predicate(row):" in fn.__prisma_source__


class TestCompilerCache:
    def test_cache_hits_on_equal_expressions(self):
        cache = ExpressionCompilerCache()
        a = cache.predicate(eq(col(0), lit(5)))
        b = cache.predicate(eq(col(0), lit(5)))
        assert a is b
        assert cache.compilations == 1
        assert cache.hits == 1

    def test_cache_distinguishes_different_expressions(self):
        cache = ExpressionCompilerCache()
        cache.predicate(eq(col(0), lit(5)))
        cache.predicate(eq(col(0), lit(6)))
        assert cache.compilations == 2

    def test_projector_cache(self):
        cache = ExpressionCompilerCache()
        exprs = (col(0), col(1))
        assert cache.projector(exprs) is cache.projector(exprs)


# ---------------------------------------------------------------------------
# Property: compiled == interpreted for random expressions and rows.
# ---------------------------------------------------------------------------

ROW_WIDTH = 4

_values = st.one_of(
    st.none(),
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.text(alphabet="abc%_", max_size=4),
    st.booleans(),
)

# inf and nan have no Python literal: the compiler binds them as constants.
_non_finite = st.sampled_from([math.inf, -math.inf, math.nan])

_numeric_literal = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20, allow_nan=False),
    _non_finite,
)

_columns = st.builds(ColumnRef, st.integers(min_value=0, max_value=ROW_WIDTH - 1))

_numeric_scalar = st.recursive(
    st.one_of(_columns, st.builds(Literal, _numeric_literal)),
    lambda children: st.builds(
        Arithmetic,
        st.sampled_from(["+", "-", "*"]),
        children,
        children,
    ),
    max_leaves=4,
)

_predicates = st.recursive(
    st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            _numeric_scalar,
            _numeric_scalar,
        ),
        st.builds(IsNull, _columns, st.booleans()),
        st.builds(
            InList,
            _columns,
            st.tuples(_numeric_literal, _numeric_literal),
        ),
    ),
    lambda children: st.one_of(
        st.builds(lambda a, b: BoolOp("and", (a, b)), children, children),
        st.builds(lambda a, b: BoolOp("or", (a, b)), children, children),
        st.builds(Not, children),
    ),
    max_leaves=6,
)

# Row-less constants, NULL and division included: what the binder and the
# optimizer's folding rules compile and run on the empty row.
_constant_scalar = st.recursive(
    st.builds(Literal, st.one_of(st.none(), _numeric_literal)),
    lambda children: st.one_of(
        st.builds(
            Arithmetic,
            st.sampled_from(["+", "-", "*", "/", "%"]),
            children,
            children,
        ),
        st.builds(Negate, children),
    ),
    max_leaves=4,
)

_constants = st.one_of(
    _constant_scalar,
    st.builds(
        Comparison,
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        _constant_scalar,
        _constant_scalar,
    ),
    st.builds(IsNull, _constant_scalar, st.booleans()),
)

_rows = st.tuples(*([_values] * ROW_WIDTH))


def _assert_agrees(reference, compiled, row, as_result=lambda value: value):
    """*compiled* on *row* gives what *reference* gives (nan equal to
    nan), or both raise ExpressionError."""
    try:
        expected = reference(row)
    except ExpressionError:
        with pytest.raises(ExpressionError):
            guard_call(compiled, row)
        return
    result = as_result(guard_call(compiled, row))
    assert result == expected or (result != result and expected != expected)


@given(expr=_predicates, row=_rows)
@settings(max_examples=300, deadline=None)
def test_property_compiled_equals_interpreted(expr, row):
    _assert_agrees(partial(evaluate_predicate, expr), compile_predicate(expr), row, bool)


@given(expr=_numeric_scalar, row=_rows)
@settings(max_examples=200, deadline=None)
def test_property_scalar_compiled_equals_interpreted(expr, row):
    _assert_agrees(partial(evaluate, expr), compile_scalar(expr), row)


@given(expr=_constants)
@settings(max_examples=200, deadline=None)
def test_property_constant_folding_compiled_equals_interpreted(expr):
    _assert_agrees(partial(evaluate, expr), compile_scalar(expr), ())
    _assert_agrees(partial(evaluate_predicate, expr), compile_predicate(expr), (), bool)
