"""Tests for the vectorized execution path over the column store.

The predicate kernels (``scan_filter_vectors`` / ``selection_mask``) are
tested directly; aggregation runs through SQL on a column-oriented table,
on the batch executor and the row executor alike, so the batch
accumulation kernel and the row loop are both held to the same answers.
"""

import numpy as np
import pytest

from repro.cluster.mpp import MppCluster
from repro.common.errors import ExecutionError
from repro.exec.fragments import scan_filter_vectors, selection_mask
from repro.sql.engine import SqlEngine
from repro.storage.colstore import ColumnStore
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType

ROWS = 300


@pytest.fixture
def store():
    schema = TableSchema(
        "m",
        [Column("id", DataType.INT), Column("g", DataType.TEXT),
         Column("v", DataType.DOUBLE)],
        "id",
    )
    cs = ColumnStore(schema, chunk_rows=64)
    cs.append_rows([
        {"id": i, "g": f"g{i % 4}", "v": float(i)} for i in range(ROWS)
    ])
    return cs


def _engine(orientation: str, batch_enabled: bool) -> SqlEngine:
    engine = SqlEngine(MppCluster(num_dns=2), batch_enabled=batch_enabled,
                       plan_cache_size=0)
    engine.execute("create table m (id int primary key, g text, v double) "
                   f"with (orientation = {orientation})")
    engine.execute("insert into m values " + ", ".join(
        f"({i}, 'g{i % 4}', {float(i)})" for i in range(ROWS)))
    return engine


@pytest.fixture(scope="module")
def engines():
    """Column-oriented table on the batch and the row executor."""
    return _engine("column", True), _engine("column", False)


@pytest.fixture(scope="module")
def row_table():
    return _engine("row", False)


def _scalar(engines, sql):
    """The single value ``sql`` returns, asserted equal on both executors."""
    batch, row = engines
    rows = batch.execute(sql).rows
    assert rows == row.execute(sql).rows
    assert len(rows) == 1 and len(rows[0]) == 1
    return rows[0][0]


class TestScanFilter:
    def test_filtering(self, store):
        total = sum(len(b["id"]) for b in scan_filter_vectors(
            store, ["id"], [("v", ">", 249.0)]))
        assert total == 50

    def test_multiple_predicates_anded(self, store):
        batches = list(scan_filter_vectors(
            store, ["id"],
            [("v", ">=", 100.0), ("v", "<", 110.0), ("g", "=", "g0")]))
        ids = np.concatenate([b["id"].data for b in batches])
        assert sorted(ids.tolist()) == [100, 104, 108]

    def test_unknown_predicate_column(self, store):
        with pytest.raises(Exception):
            list(scan_filter_vectors(store, ["id"], [("zz", "=", 1)]))

    def test_bad_operator(self, store):
        with pytest.raises(ExecutionError):
            list(scan_filter_vectors(store, ["id"], [("v", "~", 1)]))


class TestAggregates:
    def test_whole_table(self, engines):
        assert _scalar(engines, "select sum(v) from m") == sum(range(ROWS))
        assert _scalar(engines, "select min(v) from m") == 0.0
        assert _scalar(engines, "select max(v) from m") == 299.0
        assert _scalar(engines, "select count(v) from m") == ROWS
        assert _scalar(engines, "select avg(v) from m") == 149.5

    def test_filtered(self, engines):
        assert _scalar(engines,
                       "select count(v) from m where g = 'g1'") == 75

    def test_empty_result(self, engines):
        assert _scalar(engines,
                       "select sum(v) from m where v > 10000.0") is None

    def test_group_aggregate(self, engines):
        for engine in engines:
            counts = engine.execute(
                "select g, count(v) from m group by g").rows
            assert dict(counts) == {"g0": 75, "g1": 75, "g2": 75, "g3": 75}
            sums = engine.execute(
                "select g, sum(v) from m where v < 8.0 group by g").rows
            assert dict(sums) == {"g0": 0.0 + 4.0, "g1": 1.0 + 5.0,
                                  "g2": 2.0 + 6.0, "g3": 3.0 + 7.0}


class TestRowFallbackEquivalence:
    @pytest.mark.parametrize("func", ["sum", "min", "max", "count", "avg"])
    def test_same_answers(self, engines, row_table, func):
        sql = f"select {func}(v) from m where v >= 50.0 and v < 250.0"
        assert _scalar(engines, sql) == row_table.execute(sql).rows[0][0]

    def test_selection_mask_respects_validity(self):
        schema = TableSchema("t", [Column("id", DataType.INT),
                                   Column("v", DataType.DOUBLE)], "id")
        cs = ColumnStore(schema, chunk_rows=8)
        cs.append_rows([{"id": 1, "v": None}, {"id": 2, "v": 5.0}])
        chunk = next(cs.scan_chunks(["v"]))
        mask = selection_mask(chunk, [("v", ">=", 0.0)])
        assert mask.tolist() == [False, True]   # NULL never matches
        vecs = list(scan_filter_vectors(cs, ["id", "v"], [("v", ">=", 0.0)]))
        assert [b["id"].data.tolist() for b in vecs] == [[2]]
        assert vecs[0]["v"].validity.tolist() == [True]
