"""Tests for the expression AST and its structural utilities."""

import pytest

from repro.errors import ExpressionError
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
    Param,
    and_,
    col,
    columns_used,
    conjuncts,
    default_name,
    eq,
    has_params,
    infer_result_type,
    is_constant,
    lit,
    or_,
    remap_columns,
    substitute_params,
    validate_against,
)
from repro.storage import DataType, Schema


class TestConstruction:
    def test_bad_operators_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("==", col(0), lit(1))
        with pytest.raises(ExpressionError):
            Arithmetic("**", col(0), lit(1))
        with pytest.raises(ExpressionError):
            BoolOp("xor", (lit(True), lit(False)))

    def test_boolop_needs_two_operands(self):
        with pytest.raises(ExpressionError):
            BoolOp("and", (lit(True),))

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            FunctionCall("sqrt", (lit(4),))

    def test_function_arity_checked(self):
        with pytest.raises(ExpressionError):
            FunctionCall("abs", (lit(1), lit(2)))

    def test_and_flattens_nested_ands(self):
        expr = and_(eq(col(0), lit(1)), and_(eq(col(1), lit(2)), eq(col(2), lit(3))))
        assert isinstance(expr, BoolOp)
        assert len(expr.operands) == 3

    def test_and_or_single_operand_passthrough(self):
        inner = eq(col(0), lit(1))
        assert and_(inner) is inner
        assert or_(inner) is inner


class TestIdentity:
    def test_structural_equality_and_hash(self):
        a = and_(eq(col(0, "x"), lit(5)), Comparison("<", col(1), lit(2.0)))
        b = and_(eq(col(0, "x"), lit(5)), Comparison("<", col(1), lit(2.0)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != or_(eq(col(0), lit(5)), Comparison("<", col(1), lit(2.0)))

    def test_column_name_is_cosmetic_for_identity(self):
        assert col(0, "a") == col(0, "b")

    def test_literal_type_distinguished(self):
        # 1 and True are equal in Python; identity keys must separate them.
        assert lit(1) != lit(True)
        assert lit(1) != lit(1.0)


class TestSqlRendering:
    def test_to_sql_round_trippable_shapes(self):
        expr = and_(
            Comparison(">", col(0, "salary"), lit(100)),
            Like(col(1, "name"), "a%"),
            IsNull(col(2, "bonus")),
        )
        text = expr.to_sql()
        assert "salary > 100" in text
        assert "name LIKE 'a%'" in text
        assert "bonus IS NULL" in text

    def test_string_escaping(self):
        assert lit("o'brien").to_sql() == "'o''brien'"

    def test_null_and_bool_literals(self):
        assert lit(None).to_sql() == "NULL"
        assert lit(True).to_sql() == "TRUE"

    def test_in_and_not(self):
        expr = Not(InList(col(0, "x"), (1, 2)))
        assert expr.to_sql() == "(NOT (x IN (1, 2)))"


class TestStructuralUtilities:
    def test_columns_used(self):
        expr = and_(
            eq(col(0), lit(1)),
            Comparison("<", Arithmetic("+", col(2), col(4)), lit(9)),
        )
        assert columns_used(expr) == {0, 2, 4}

    def test_conjuncts_splits_only_top_level_ands(self):
        expr = and_(
            eq(col(0), lit(1)),
            or_(eq(col(1), lit(2)), eq(col(2), lit(3))),
            eq(col(3), lit(4)),
        )
        parts = conjuncts(expr)
        assert len(parts) == 3

    def test_conjuncts_of_non_and_is_singleton(self):
        expr = eq(col(0), lit(1))
        assert conjuncts(expr) == [expr]

    def test_remap_columns(self):
        expr = Comparison(">", col(3, "c"), col(5, "d"))
        remapped = remap_columns(expr, {3: 0, 5: 1})
        assert columns_used(remapped) == {0, 1}

    def test_remap_missing_column_raises(self):
        with pytest.raises(ExpressionError):
            remap_columns(eq(col(3), lit(1)), {0: 0})

    def test_remap_preserves_all_node_kinds(self):
        expr = or_(
            Not(IsNull(col(0))),
            InList(col(1), (1, 2)),
            Like(col(2), "x%"),
            Comparison("=", FunctionCall("abs", (Negate(col(3)),)), lit(4)),
            Comparison("<", Arithmetic("%", col(4), lit(2)), lit(1)),
        )
        remapped = remap_columns(expr, {i: i + 10 for i in range(5)})
        assert columns_used(remapped) == {10, 11, 12, 13, 14}

    def test_is_constant(self):
        assert is_constant(Arithmetic("+", lit(1), lit(2)))
        assert not is_constant(Arithmetic("+", col(0), lit(2)))

    def test_a_parameter_is_neither_constant_nor_evaluable(self):
        from repro.exec.compiler import compile_scalar
        from tests.oracle.interpreter import evaluate

        param = Param(0, DataType.INT)
        for expr in (
            Arithmetic("+", param, lit(2)),
            InList(lit(1), (1, param)),  # IN values are not children
            Like(lit("x"), Param(1, DataType.STRING)),
        ):
            assert has_params(expr) and not is_constant(expr)
        assert not has_params(InList(col(0), (1, 2)))
        with pytest.raises(ExpressionError):
            evaluate(param, ())
        with pytest.raises(ExpressionError):
            compile_scalar(param)

    def test_substitute_params(self):
        expr = and_(
            eq(col(0), Param(0, DataType.INT)),
            InList(col(1), ("a", Param(1, DataType.STRING))),
            Like(col(1), Param(2, DataType.STRING), negated=True),
            Comparison("<", col(2), lit(9)),
        )
        bound = substitute_params(expr, (5, "b", "c%"))
        assert bound == and_(
            eq(col(0), lit(5)),
            InList(col(1), ("a", "b")),
            Like(col(1), "c%", negated=True),
            Comparison("<", col(2), lit(9)),
        )
        assert not has_params(bound)
        # The parameter-free conjunct is shared, and so is a whole
        # expression without parameters.
        assert bound.operands[3] is expr.operands[3]
        assert substitute_params(bound, (5, "b", "c%")) is bound
        # Same index, other type: a different parameter (and no literal).
        assert Param(0, DataType.INT) != Param(0, DataType.FLOAT)
        assert Param(0, DataType.INT) != lit(0)

    def test_validate_against(self):
        schema = Schema.of(a=DataType.INT, b=DataType.INT)
        validate_against(eq(col(1), lit(2)), schema)
        with pytest.raises(ExpressionError):
            validate_against(eq(col(5), lit(2)), schema)

    def test_default_name(self):
        assert default_name(col(0, "salary"), 0) == "salary"
        assert default_name(Arithmetic("+", col(0), lit(1)), 2) == "col2"


class TestParamTypeInference:
    def test_a_parameter_types_like_the_literal_it_stands_for(self):
        from repro.exec.expressions import param_type

        schema = Schema.of(a=DataType.INT)
        for value in (1, 1.5, "x", True, None):
            param = Param(0, param_type(value))
            for make in (lambda e: e, lambda e: Arithmetic("+", col(0), e)):
                assert infer_result_type(make(param), schema) == infer_result_type(
                    make(lit(value)), schema
                )


class TestTypeInference:
    def setup_method(self):
        self.schema = Schema.of(
            i=DataType.INT, f=DataType.FLOAT, s=DataType.STRING, b=DataType.BOOL
        )

    def test_column_and_literal_types(self):
        assert infer_result_type(col(0, "i"), self.schema) is DataType.INT
        assert infer_result_type(lit(2.5), self.schema) is DataType.FLOAT

    def test_arithmetic_widening(self):
        int_plus_int = Arithmetic("+", col(0), lit(1))
        assert infer_result_type(int_plus_int, self.schema) is DataType.INT
        int_plus_float = Arithmetic("+", col(0), col(1))
        assert infer_result_type(int_plus_float, self.schema) is DataType.FLOAT

    def test_division_always_float(self):
        expr = Arithmetic("/", col(0), lit(2))
        assert infer_result_type(expr, self.schema) is DataType.FLOAT

    def test_predicates_are_bool(self):
        assert infer_result_type(eq(col(0), lit(1)), self.schema) is DataType.BOOL
        assert infer_result_type(IsNull(col(2)), self.schema) is DataType.BOOL
