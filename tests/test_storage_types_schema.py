"""Tests for data types and schemas."""

import pytest

from repro.errors import StorageError
from repro.storage import Column, DataType, Schema, infer_type


class TestDataType:
    def test_coercion_accepts_matching_values(self):
        assert DataType.INT.coerce(5) == 5
        assert DataType.FLOAT.coerce(2) == 2.0
        assert isinstance(DataType.FLOAT.coerce(2), float)
        assert DataType.STRING.coerce("x") == "x"
        assert DataType.BOOL.coerce(True) is True

    def test_coercion_rejects_mismatches(self):
        with pytest.raises(StorageError):
            DataType.INT.coerce("5")
        with pytest.raises(StorageError):
            DataType.INT.coerce(True)  # bools are not ints here
        with pytest.raises(StorageError):
            DataType.BOOL.coerce(1)
        with pytest.raises(StorageError):
            DataType.STRING.coerce(5)
        with pytest.raises(StorageError):
            DataType.FLOAT.coerce("2.5")

    def test_none_passes_through(self):
        assert DataType.INT.coerce(None) is None

    def test_sizes(self):
        assert DataType.INT.size_of(7) == 4
        assert DataType.FLOAT.size_of(1.0) == 8
        assert DataType.BOOL.size_of(True) == 1
        assert DataType.STRING.size_of("abc") == 5
        assert DataType.STRING.size_of("") == 2
        assert DataType.INT.size_of(None) == 1

    def test_from_name_synonyms(self):
        assert DataType.from_name("INTEGER") is DataType.INT
        assert DataType.from_name("varchar") is DataType.STRING
        assert DataType.from_name(" Real ") is DataType.FLOAT
        with pytest.raises(StorageError):
            DataType.from_name("blob")

    def test_infer_type(self):
        assert infer_type(True) is DataType.BOOL
        assert infer_type(3) is DataType.INT
        assert infer_type(3.5) is DataType.FLOAT
        assert infer_type("s") is DataType.STRING
        with pytest.raises(StorageError):
            infer_type([1])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StorageError):
            Schema([Column("a", DataType.INT), Column("a", DataType.INT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(StorageError):
            Schema([])

    def test_lookup(self):
        schema = Schema.of(a=DataType.INT, b=DataType.STRING)
        assert schema.index_of("b") == 1
        assert schema.has_column("a")
        assert not schema.has_column("z")
        with pytest.raises(StorageError):
            schema.index_of("z")

    def test_validate_row_coerces(self):
        schema = Schema.of(a=DataType.INT, b=DataType.FLOAT)
        assert schema.validate_row((1, 2)) == (1, 2.0)

    def test_validate_row_arity(self):
        schema = Schema.of(a=DataType.INT)
        with pytest.raises(StorageError):
            schema.validate_row((1, 2))

    def test_not_nullable_enforced(self):
        schema = Schema([Column("a", DataType.INT, nullable=False)])
        with pytest.raises(StorageError):
            schema.validate_row((None,))

    def test_row_bytes(self):
        schema = Schema.of(a=DataType.INT, b=DataType.STRING)
        assert schema.row_bytes((1, "xy")) == 4 + 4

    def test_concat_disambiguates(self):
        left = Schema.of(id=DataType.INT, name=DataType.STRING)
        right = Schema.of(id=DataType.INT, city=DataType.STRING)
        joined = left.concat(right)
        assert joined.names() == ["id", "name", "id_r", "city"]

    def test_concat_double_clash(self):
        left = Schema.of(id=DataType.INT, id_r=DataType.INT)
        right = Schema.of(id=DataType.INT)
        assert left.concat(right).names() == ["id", "id_r", "id_r2"]

    def test_concat_strict_mode(self):
        left = Schema.of(id=DataType.INT)
        with pytest.raises(StorageError):
            left.concat(Schema.of(id=DataType.INT), disambiguate=False)

    def test_equality_and_hash(self):
        a = Schema.of(x=DataType.INT)
        b = Schema.of(x=DataType.INT)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Schema.of(x=DataType.FLOAT)
