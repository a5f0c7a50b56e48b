"""Batch execution pipeline: kernels, NULL semantics, activation rules.

Covers the two bugfix satellites directly:

* the many-groups regression — the partial-aggregate batch kernel must
  bucket groups with one ``np.unique(..., return_inverse=True)`` pass
  instead of re-scanning the chunk per group (O(groups x rows));
* NULL semantics — the batch kernels and the row executor must agree on
  SQL three-valued logic; the parametrized suite runs the same query
  through both executors and requires identical rows.
"""

import time

import numpy as np
import pytest

from repro.cluster.mpp import MppCluster
from repro.exec.batch import (
    Batch,
    _members,
    batches_from_rows,
    concat_batches,
    enable_batches,
    group_codes,
    rows_from_batches,
    sort_indices,
)
from repro.exec.operators import PPartialAgg, PScan, walk_physical
from repro.optimizer.expr import BoundColumn
from repro.optimizer.logical import AggSpec, ColumnInfo
from repro.sql.engine import SqlEngine
from repro.storage.colstore import ColumnStore, ColumnVector
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType


# -- satellite: many-groups regression -------------------------------------

class TestManyGroups:
    def _store(self, rows: int, groups: int) -> ColumnStore:
        schema = TableSchema(
            "m", [Column("id", DataType.INT), Column("g", DataType.INT),
                  Column("v", DataType.DOUBLE)], "id")
        cs = ColumnStore(schema, chunk_rows=65536)
        cs.append_rows([
            {"id": i, "g": i % groups, "v": float(i % 97)}
            for i in range(rows)
        ])
        return cs

    def _group_states(self, cs: ColumnStore, func: str) -> dict:
        """``select g, func(v) from m group by g`` as one batched partial
        aggregate over the store: group -> (count, total, min, max)."""
        schema = [ColumnInfo(c.name, "m", c.data_type)
                  for c in cs.schema.columns]
        scan = PScan("m", lambda: iter(()), schema,
                     vector_store=lambda: cs, vector_preds=[])
        agg = PPartialAgg(
            scan, [BoundColumn(1, "m.g", DataType.INT)],
            [AggSpec(func, BoundColumn(2, "m.v", DataType.DOUBLE))],
            [schema[1], ColumnInfo("state", None)])
        enable_batches(agg)
        assert agg.batch_mode and scan.batch_mode
        return {g: state for g, state in agg.execute()}

    def test_many_groups_matches_row_path(self):
        cs = self._store(rows=5000, groups=701)
        states = self._group_states(cs, "sum")
        # row-at-a-time reference, computed directly
        expected = {}
        for row in cs.scan_rows():
            g, v = row["g"], row["v"]
            expected[g] = expected.get(g, 0.0) + v
        assert {g: state[1] for g, state in states.items()} == expected

    def test_many_groups_is_not_quadratic(self):
        # 200k rows x 20k groups: a per-group boolean-mask rescan performs
        # ~4e9 element comparisons (tens of seconds); the bucketed path is
        # one argsort per chunk.  A generous wall-clock ceiling catches the
        # regression without being timing-flaky.
        cs = self._store(rows=200_000, groups=20_000)
        start = time.perf_counter()
        result = self._group_states(cs, "count")
        elapsed = time.perf_counter() - start
        assert len(result) == 20_000
        assert sum(state[0] for state in result.values()) == 200_000
        assert elapsed < 5.0, f"partial aggregate took {elapsed:.1f}s"

    def test_group_codes_partitions_exactly(self):
        keys = np.array([3, 1, 3, 2, 1, 1, 3], dtype=np.int64)
        vec = ColumnVector(keys, np.ones(len(keys), dtype=bool))
        uniq, codes = group_codes([vec], len(keys))
        assert uniq == [(3,), (1,), (2,)]          # first-seen order
        seen = []
        for code, member in enumerate(_members(codes, len(uniq))):
            assert (keys[member] == uniq[code][0]).all()
            # members come back in ascending row order (stable argsort)
            assert member.tolist() == sorted(member.tolist())
            seen.extend(member.tolist())
        assert sorted(seen) == list(range(len(keys)))


# -- satellite: NULL semantics, both executors ------------------------------

NULL_PREDICATES = [
    "v > 25",
    "v >= 30 and v <= 90",
    "v <> 30",
    "g = 'a'",
    "v > 25 and g <> 'b'",
    "v > 25 or g = 'b'",
    "not (v > 25)",
    "not (g = 'a' and v > 10)",
    "v is null",
    "v is not null",
    "v is null or g is null",
    "g in ('a', 'b')",
    "v in (10, 30, 90)",
    "v not in (10, 30)",
    "v + 10 > 35",
    "v * 2 <= 60",
    "-v < -25",
    "v - w > 0",
    "(v > 10 and v < 90) or g = 'c'",
    "v > 25 and w is null",
]


def _engine(batch_enabled: bool) -> SqlEngine:
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(cluster, batch_enabled=batch_enabled,
                       plan_cache_size=0)
    engine.execute(
        "create table t (id int primary key, g text, v int, w int) "
        "with (orientation = column)")
    values = []
    for i in range(60):
        g = "null" if i % 7 == 0 else f"'{'abc'[i % 3]}'"
        v = "null" if i % 5 == 0 else str(i * 2)
        w = "null" if i % 4 == 0 else str(i)
        values.append(f"({i}, {g}, {v}, {w})")
    engine.execute("insert into t values " + ", ".join(values))
    engine.analyze()
    return engine


@pytest.fixture(scope="module")
def engines():
    return _engine(batch_enabled=True), _engine(batch_enabled=False)


class TestNullSemanticsSharedByBothPaths:
    @pytest.mark.parametrize("predicate", NULL_PREDICATES)
    def test_filter_agreement(self, engines, predicate):
        batch, row = engines
        sql = f"select id, g, v, w from t where {predicate} order by id"
        assert batch.execute(sql).rows == row.execute(sql).rows

    @pytest.mark.parametrize("predicate", NULL_PREDICATES[:6])
    def test_aggregate_agreement(self, engines, predicate):
        batch, row = engines
        sql = (f"select g, count(*), sum(v) from t where {predicate} "
               "group by g order by g")
        assert batch.execute(sql).rows == row.execute(sql).rows

    def test_null_sort_keys_agree(self, engines):
        batch, row = engines
        for direction in ("asc", "desc"):
            sql = f"select id, v from t order by v {direction}, id"
            assert batch.execute(sql).rows == row.execute(sql).rows

    def test_aggregates_skip_nulls(self, engines):
        # NULL inputs are skipped by count/sum/avg/min/max, NULL group keys
        # form one group, and COUNT(*) still counts every row.
        batch, row = engines
        sql = ("select g, count(*), count(v), sum(v), avg(v), min(v), "
               "max(v) from t where id < 30 group by g")
        rows = batch.execute(sql).rows
        assert rows == row.execute(sql).rows
        expected = {}
        for i in range(30):
            g = None if i % 7 == 0 else "abc"[i % 3]
            v = None if i % 5 == 0 else i * 2
            expected.setdefault(g, [0, []])
            expected[g][0] += 1
            if v is not None:
                expected[g][1].append(v)
        assert {r[0] for r in rows} == set(expected) and None in expected
        for g, n, count_v, sum_v, avg_v, min_v, max_v in rows:
            total, vals = expected[g]
            assert (n, count_v, sum_v, min_v, max_v) == (
                total, len(vals), float(sum(vals)), min(vals), max(vals))
            assert avg_v == sum(vals) / len(vals)


# -- batch bridges and kernels ---------------------------------------------

class TestBatchBridges:
    def test_row_round_trip_preserves_nones(self):
        rows = [(1, "a", None), (None, "b", 2.5), (3, None, 0.0)]
        batches = list(batches_from_rows(iter(rows), width=3, batch_size=2))
        assert [b.n for b in batches] == [2, 1]
        assert list(rows_from_batches(batches)) == rows

    def test_take_and_select(self):
        data = np.array([10, 20, 30, 40], dtype=np.int64)
        validity = np.array([True, False, True, True])
        batch = Batch([ColumnVector(data, validity)], 4)
        taken = batch.take(np.array([3, 0]))
        assert taken.columns[0].data.tolist() == [40, 10]
        picked = batch.select(np.array([False, True, True, False]))
        assert picked.n == 2
        assert picked.columns[0].validity.tolist() == [False, True]

    def test_concat(self):
        def one(values):
            arr = np.array(values, dtype=np.int64)
            return Batch([ColumnVector(arr, np.ones(len(values), bool))],
                         len(values))
        merged = concat_batches([one([1, 2]), one([3])], width=1)
        assert merged.n == 3
        assert merged.columns[0].data.tolist() == [1, 2, 3]

    def test_sort_indices_matches_python_composite(self):
        values = [5, None, 2, 5, None, 1, 2]
        data = np.array([0 if v is None else v for v in values],
                        dtype=np.int64)
        validity = np.array([v is not None for v in values])
        vec = ColumnVector(data, validity)
        from repro.exec.operators import _sort_key
        for descending in (False, True):
            order = sort_indices([(vec, descending)], len(values))
            reference = sorted(
                range(len(values)),
                key=lambda i: _sort_key(values[i], descending),
                reverse=descending,
            )
            # index-exact: ties must keep input order in both paths
            assert order.tolist() == reference


# -- activation rules -------------------------------------------------------

class TestActivation:
    def _plan(self, engine, sql):
        from repro.sql.parser import parse
        from repro.exec.batch import enable_batches
        txn = engine.cluster.session().begin(multi_shard=True)
        try:
            physical = engine.plan_select(parse(sql), txn)
        finally:
            txn.commit()
        enable_batches(physical)
        return physical

    def test_limit_batches_below_first_blocking_operator(self, engines):
        from repro.exec import operators as ops
        batch, _ = engines
        # a streaming chain directly under a LIMIT stays row-mode throughout
        physical = self._plan(batch, "select id from t where v > 4 limit 3")
        assert not any(op.batch_mode for op in walk_physical(physical))
        # the first blocking operator under it stays row-mode (it counts
        # only the rows the LIMIT pulls) but sorts with the batch kernel,
        # and everything below it batches
        physical = self._plan(
            batch, "select id from t where v > 4 order by v limit 3")
        sorts = [op for op in walk_physical(physical)
                 if isinstance(op, ops.PSort)]
        assert len(sorts) == 1
        sort = sorts[0]
        assert not sort.batch_mode and sort._batch_keys is not None
        below = list(walk_physical(sort.child))
        assert below and all(op.batch_mode for op in below)
        assert not any(op.batch_mode for op in walk_physical(physical)
                       if op not in below)

    @pytest.mark.parametrize("sql", [
        "select id from t where v > 4 limit 3",
        "select id, v from t where v > 4 order by v desc, id limit 3",
        "select id from t order by v, id limit 0",
        "select g, count(*), sum(v) from t group by g order by g limit 2",
        "select a.id, b.v from t a, t b where a.id = b.w "
        "order by b.v, a.id limit 4",
        "select a.id, b.v from t a, t b where a.id = b.w limit 4",
    ])
    def test_limit_row_counts_match_row_engine(self, engines, sql):
        # the property the LIMIT rule protects: every operator's
        # actual_rows (and so every simulated time) equals the row engine's
        batch, row = engines
        fast, seed = batch.execute(sql), row.execute(sql)
        assert fast.rows == seed.rows
        assert fast.profile.rows_table() == seed.profile.rows_table()
        assert fast.profile.elapsed_time_us == seed.profile.elapsed_time_us

    def test_scan_batches_complex_predicates(self, engines):
        batch, _ = engines
        physical = self._plan(
            batch, "select id from t where v > 4 or g = 'a'")
        from repro.exec import operators as ops
        scans = [op for op in walk_physical(physical)
                 if isinstance(op, ops.PScan)]
        assert scans and all(op.batch_mode for op in scans)
