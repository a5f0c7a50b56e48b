"""Replay identity: batch execution + plan cache vs the seed row path.

Mirrors tests/htap/test_replay_identity.py: the same TPC-C-lite + reporting
workload runs once with the fast path on (columnar batches, plan cache) and
once with both disabled (the seed executor), and every query-visible
surface must match byte for byte — result rows, per-operator profile row
counts, simulated elapsed time, wait accounting, metric counters, the
slow-query log, and the learning optimizer's plan-store contents (captured
step keys and observed cardinalities).

Batching only changes *wall-clock*; every simulated quantity is a pure
function of row counts, which the batch pipeline reproduces exactly.
"""

import pytest

from repro.cluster.mpp import MppCluster
from repro.exec import operators as ops
from repro.exec.batch import enable_batches
from repro.exec.operators import walk_physical
from repro.sql.engine import SqlEngine
from repro.sql.parser import parse
from repro.wlm import ResourceGroup, WlmConfig
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc


REPORTING = [
    # simple vector-spec predicate (seed already vectorizes the scan)
    "select count(*) from order_line where ol_quantity >= 5",
    # complex predicate: only the batch path vectorizes this scan
    "select w_id, sum(ol_amount), count(*) from order_line "
    "where ol_quantity > 2 or ol_amount > 50 group by w_id order by w_id",
    # join + aggregation over the replicated dimension
    "select i.i_name, sum(ol.ol_quantity) from order_line ol, item i "
    "where ol.i_id = i.i_id and ol.ol_amount > 20 "
    "group by i.i_name order by i.i_name limit 5",
    # full sort, no limit (batch sort kernel)
    "select o_key, o_ol_cnt from orders where o_ol_cnt > 0 order by "
    "o_entry_ts desc, o_key",
    # arithmetic projection + filter
    "select ol_key, ol_amount * 2 from order_line "
    "where ol_amount - ol_quantity > 10 order by ol_key",
    "explain analyze select d_id, sum(d_ytd) from district group by d_id "
    "order by d_id",
    # row-table probe x column-table build join under a group-by: the join
    # builds from order_line batches and probes wrapped item rows
    "select i.i_name, count(*), sum(ol.ol_amount) from order_line ol, item i "
    "where ol.i_id = i.i_id and ol.ol_quantity > 2 "
    "group by i.i_name order by i.i_name",
    # top-N over a column scan: the sort under LIMIT pulls batches
    "select ol_key, ol_amount from order_line where ol_amount > 10 "
    "order by ol_amount desc, ol_key limit 7",
    # top-N over join plus aggregate
    "select ol.i_id iid, count(*) n from order_line ol, item i "
    "where ol.i_id = i.i_id and ol.ol_quantity > 2 "
    "group by ol.i_id order by n desc, iid limit 5",
]

MUTATIONS = [
    "update district set d_ytd = d_ytd + 1 where d_id = 3",
    "insert into item values (990, 'late-item', 9.99)",
    "delete from orders where o_ol_cnt = 0",
]


def _run(fast: bool):
    cluster = MppCluster(num_dns=2)
    engine = SqlEngine(
        cluster,
        batch_enabled=fast,
        plan_cache_size=64 if fast else 0,
    )
    cluster.obs.slowlog.threshold_us = 0.0
    load_tpcc(cluster, num_warehouses=2,
              column_oriented=("orders", "order_line"))
    # drive some TPC-C-lite transactions so orders/order_line have data
    workload = TpccLiteWorkload(num_warehouses=2, multi_shard_fraction=0.1)
    session = cluster.session()
    for spec in (s for s, _ in zip(workload.stream(), range(40))):
        txn = session.begin(multi_shard=spec.multi_shard)
        spec.body(txn)
        txn.commit()
    engine.analyze()
    results = []
    # two passes: the second pass is where the plan cache serves hits, and
    # identity must hold there too
    for _ in range(2):
        for sql in REPORTING:
            results.append(engine.execute(sql))
        for sql in MUTATIONS[:1]:
            results.append(engine.execute(sql))
    for sql in MUTATIONS[1:]:
        results.append(engine.execute(sql))
    for sql in REPORTING:
        results.append(engine.execute(sql))
    return cluster, engine, results


def _activated(engine, sql):
    txn = engine.cluster.session().begin(multi_shard=True)
    try:
        physical = engine.plan_select(parse(sql), txn)
    finally:
        txn.commit()
    enable_batches(physical)
    return physical


def _query_metrics(cluster):
    """Metric snapshot minus access-path bookkeeping.

    ``htap.scans_*`` counts which storage path served a scan; the batch
    executor deliberately routes *more* scans through the column store
    (complex predicates included), so that counter legitimately grows.
    Everything query-visible — rows, times, waits — must still match.
    """
    _, flat = cluster.obs.metrics.snapshot()
    return {name: value for name, value in flat.items()
            if not name.startswith("htap.scans_")}


def _store_rows(engine):
    return [(r.key, r.step_text, r.estimated_rows, r.actual_rows, r.updates)
            for r in engine.plan_store.records()]


class TestBatchReplayIdentity:
    def test_fast_path_matches_seed_byte_for_byte(self):
        fast_cluster, fast_engine, fast_results = _run(fast=True)
        seed_cluster, seed_engine, seed_results = _run(fast=False)
        assert len(fast_results) == len(seed_results)
        for fast, seed in zip(fast_results, seed_results):
            assert fast.columns == seed.columns
            assert fast.rows == seed.rows
            if fast.profile is not None:
                assert (fast.profile.rows_table()
                        == seed.profile.rows_table())
                assert (fast.profile.elapsed_time_us
                        == seed.profile.elapsed_time_us)
        assert (fast_cluster.obs.waits.rows()
                == seed_cluster.obs.waits.rows())
        assert _query_metrics(fast_cluster) == _query_metrics(seed_cluster)
        # the batch path must have used the column store at least as much
        fast_flat = dict(fast_cluster.obs.metrics.snapshot()[1])
        seed_flat = dict(seed_cluster.obs.metrics.snapshot()[1])
        assert (fast_flat.get("htap.scans_composed", 0.0)
                + fast_flat.get("htap.scans_frozen", 0.0)
                >= seed_flat.get("htap.scans_composed", 0.0)
                + seed_flat.get("htap.scans_frozen", 0.0))
        assert ([e.as_row() for e in fast_cluster.obs.slowlog.entries()]
                == [e.as_row() for e in seed_cluster.obs.slowlog.entries()])
        # the learning loop saw identical plans and actuals: same captured
        # step keys, same observed cardinalities, same update counts
        assert _store_rows(fast_engine) == _store_rows(seed_engine)

    def test_fast_run_actually_batched_and_cached(self):
        # Guard the guard: the identity test is vacuous if the fast run
        # never exercised the fast path.
        _, engine, _ = _run(fast=True)
        assert engine.plan_cache.hits > 0
        assert engine.plan_cache.hit_rate > 0.3
        # a representative reporting plan activates batch mode on its scans
        scans = [op for op in walk_physical(_activated(engine, REPORTING[1]))
                 if isinstance(op, ops.PScan)]
        assert scans and all(op.batch_mode for op in scans)
        # the row-probe join batches over its row-only probe side
        joins = [op for op in walk_physical(_activated(engine, REPORTING[6]))
                 if isinstance(op, ops.PHashJoin)]
        assert joins and all(op.batch_mode and not op.left.batch_mode
                             and op.right.batch_mode for op in joins)
        # a top-N sort stays row-mode but sorts batches from below
        sorts = [op for op in walk_physical(_activated(engine, REPORTING[7]))
                 if isinstance(op, ops.PSort)]
        assert sorts and all(not op.batch_mode and op.child.batch_mode
                             for op in sorts)

    def test_seed_engine_never_builds_batches(self):
        _, engine, results = _run(fast=False)
        assert engine.plan_cache.probes == 0
        assert all(r.rows is not None for r in results)


# -- spill identity under a tight memory budget -----------------------------

SPILL_QUERIES = [
    # sort buffer over column batches
    "select id, v from s where v > 10 order by v desc, id",
    # top-N: row-mode sort over a batching child
    "select id, v from s where v > 10 order by v desc, id limit 5",
    # row-table probe x column-table build join under a group-by
    "select d.name, count(*), sum(s.v) from s, d "
    "where s.g = d.k and s.v > 100 group by d.name order by d.name",
    # top-N over join plus aggregate
    "select s.g grp, sum(s.v) total from d, s "
    "where d.k = s.g and d.name <> 'n3' "
    "group by s.g order by total desc, grp limit 3",
    # partial aggregation shipped as state batches: the partials release
    # their groups only after the final aggregate took the last batch
    "select g, count(*), sum(v) from s where v > 3 or id < 5 "
    "group by g order by g",
]


def _spill_run(batch: bool):
    config = WlmConfig(groups=[
        ResourceGroup("tight", slots=4, memory_per_query_bytes=20_000)])
    cluster = MppCluster(num_dns=2, wlm_config=config)
    engine = SqlEngine(cluster, batch_enabled=batch, plan_cache_size=0)
    engine.execute("create table s (id int primary key, g int, v int) "
                   "with (orientation = column)")
    engine.execute("create table d (k int primary key, name text)")
    engine.execute("insert into s values " + ", ".join(
        f"({i}, {i % 600}, {(i * 37) % 1000})" for i in range(3000)))
    engine.execute("insert into d values " + ", ".join(
        f"({k}, 'n{k % 5}')" for k in range(600)))
    engine.analyze()
    cluster.htap.tick()
    results = [engine.execute(sql, group="tight") for sql in SPILL_QUERIES]
    waits = engine.execute("select * from sys.wait_events").rows
    return results, waits


class TestBatchSpillIdentity:
    """Batch memory charging spills exactly where the row path does."""

    @pytest.fixture(scope="class")
    def runs(self):
        return _spill_run(batch=True), _spill_run(batch=False)

    @pytest.mark.parametrize("index", range(len(SPILL_QUERIES)))
    def test_spill_matches_row_path(self, runs, index):
        (batch_results, _), (row_results, _) = runs
        fast, seed = batch_results[index], row_results[index]
        assert fast.rows == seed.rows
        assert fast.profile.spilled_bytes == seed.profile.spilled_bytes
        assert fast.profile.elapsed_time_us == seed.profile.elapsed_time_us
        assert fast.profile.rows_table() == seed.profile.rows_table()

    def test_wait_events_match_row_path(self, runs):
        (_, batch_waits), (_, row_waits) = runs
        assert batch_waits == row_waits

    def test_budget_actually_spills(self, runs):
        # guard the guard: every shape above must spill
        (batch_results, _), _ = runs
        assert all(r.profile.spilled_bytes > 0 for r in batch_results)
