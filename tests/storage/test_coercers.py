"""Compiled per-column coercers behave exactly like ``coerce``."""

import enum
import math

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.storage import types
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType, coerce, coercer


class Level(enum.IntEnum):
    HIGH = 3


class Opaque:
    def __repr__(self):
        return "Opaque()"


INPUTS = [
    7, 0, -3, 2 ** 70,                 # exact int
    2.5, 1.0, 1.5, -0.0, math.nan, math.inf,
    "7", "x", "", "2.5",
    True, False,
    np.int64(5), np.float64(2.0), np.bool_(True),
    Level.HIGH,
    b"7", [1], (), Opaque(),
]


def outcome(fn, value):
    try:
        result = fn(value)
    except StorageError as exc:
        return ("error", str(exc))
    # repr tells -0.0 from 0.0 and makes NaN compare equal to itself.
    return ("value", type(result), repr(result))


@pytest.mark.parametrize("data_type", list(DataType), ids=lambda t: t.value)
@pytest.mark.parametrize("value", INPUTS, ids=repr)
def test_compiled_coercer_matches_coerce(data_type, value):
    assert outcome(coercer(data_type), value) == \
        outcome(lambda v: coerce(v, data_type), value)


@pytest.mark.parametrize("data_type, value", [
    (DataType.INT, 7), (DataType.BIGINT, 2 ** 70), (DataType.TIMESTAMP, 0),
    (DataType.DOUBLE, -0.0), (DataType.DOUBLE, math.nan),
    (DataType.TEXT, "x"), (DataType.BOOL, False),
])
def test_exact_type_passes_through_unchanged(monkeypatch, data_type, value):
    monkeypatch.setattr(types, "coerce", None)    # the fast path never calls it
    assert coercer(data_type)(value) is value


@pytest.mark.parametrize("data_type, value", [
    (DataType.INT, True), (DataType.INT, np.int64(5)),
    (DataType.INT, Level.HIGH), (DataType.INT, 1.0),
    (DataType.DOUBLE, 3), (DataType.DOUBLE, np.float64(2.0)),
    (DataType.TEXT, 7), (DataType.BOOL, 1),
])
def test_other_types_fall_back_to_coerce(monkeypatch, data_type, value):
    calls = []

    def spy(v, t):
        calls.append((v, t))
        return coerce(v, t)
    monkeypatch.setattr(types, "coerce", spy)
    outcome(coercer(data_type), value)
    assert calls == [(value, data_type)]


def test_spot_values():
    assert coercer(DataType.INT)(1.0) == 1
    assert type(coercer(DataType.INT)(1.0)) is int
    assert coercer(DataType.INT)("7") == 7
    assert type(coercer(DataType.DOUBLE)(3)) is float
    assert coercer(DataType.INT)(Level.HIGH) is Level.HIGH
    with pytest.raises(StorageError, match="cannot coerce bool True to int"):
        coercer(DataType.INT)(True)
    with pytest.raises(StorageError, match="cannot coerce 1.5 to int"):
        coercer(DataType.INT)(1.5)
    with pytest.raises(StorageError, match="cannot coerce 'x' to int"):
        coercer(DataType.INT)("x")
    with pytest.raises(StorageError, match="cannot coerce 7 to TEXT"):
        coercer(DataType.TEXT)(7)


def schema():
    return TableSchema("t", [
        Column("id", DataType.INT),
        Column("name", DataType.TEXT, nullable=False),
        Column("score", DataType.DOUBLE),
    ], primary_key="id")


class TestCoerceRow:
    def test_coerces_each_column(self):
        row = schema().coerce_row({"id": "4", "name": "a", "score": 2})
        assert row == {"id": 4, "name": "a", "score": 2.0}
        assert type(row["score"]) is float

    def test_missing_nullable_column_is_null(self):
        assert schema().coerce_row({"id": 1, "name": "a"})["score"] is None

    def test_null_primary_key(self):
        with pytest.raises(StorageError) as exc:
            schema().coerce_row({"id": None, "name": "a"})
        assert str(exc.value) == "table t: NULL primary key"

    def test_not_null_primary_key_column_reports_primary_key(self):
        s = TableSchema("t", [Column("id", DataType.INT, nullable=False)],
                        primary_key="id")
        with pytest.raises(StorageError) as exc:
            s.coerce_row({})
        assert str(exc.value) == "table t: NULL primary key"

    def test_not_null_column(self):
        with pytest.raises(StorageError) as exc:
            schema().coerce_row({"id": 1})
        assert str(exc.value) == "table t: column name is NOT NULL"

    def test_unknown_columns(self):
        with pytest.raises(StorageError) as exc:
            schema().coerce_row({"id": 1, "name": "a", "zz": 1, "b": 2})
        assert str(exc.value) == "table t: unknown columns ['b', 'zz']"

    def test_null_check_precedes_unknown_columns(self):
        with pytest.raises(StorageError, match="NOT NULL"):
            schema().coerce_row({"id": 1, "zz": 1})

    def test_bad_value_error_matches_coerce(self):
        with pytest.raises(StorageError) as exc:
            schema().coerce_row({"id": "x", "name": "a"})
        with pytest.raises(StorageError) as ref:
            coerce("x", DataType.INT)
        assert str(exc.value) == str(ref.value)
