"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, drives the program
through its public API from one thread, and is closed-loop: a simulated
client issues its next operation only after the previous one returned.
One *episode* is one set-up plus a fixed amount of work, so simulated
results depend on the seed only, never on how fast the machine is.

A workload object exposes:

* ``setup(seed)`` -> state: build the cluster and load data (timed as
  set-up);
* ``run(state)`` -> :class:`Episode`: the timed region;
* ``check(state, episode)`` -> list of failures, run after the region;
* ``stats(state, episode)`` -> counts read from the program's public
  stats, for the traced run's per-layer metrics.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.mpp import MppCluster
from repro.common.errors import SerializationConflict
from repro.common.rng import make_rng
from repro.geo import (GeoCluster, GeoConfig, GeoMode, load_tpcc_geo,
                       warehouses_homed_at)
from repro.htap.manager import HtapConfig
from repro.sql.engine import SqlEngine
from repro.wlm import Priority, ResourceGroup, WlmConfig
from repro.workloads.tpcc_lite import TpccLiteWorkload, load_tpcc

from perfbench.oracle import Oracle, compare

_clock = time.perf_counter_ns


@dataclass
class Episode:
    """What one timed region did."""

    attempted: int = 0
    failed: int = 0
    #: Wall ns per call the client waited for (per submission on geo).
    op_ns: List[int] = field(default_factory=list)
    #: Simulated-time results; bit-identical for a given seed.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Digest of every simulated result and answer the episode produced.
    fingerprint: str = ""
    txns: int = 0
    queries: int = 0

    @property
    def completed(self) -> int:
        """Operations that completed: committed transactions plus queries."""
        return self.txns + self.queries


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sim(latencies_us: Sequence[float], makespan_us: float,
         **extra: float) -> Dict[str, float]:
    """Simulated-clock results of one episode."""
    ordered = sorted(latencies_us)
    p95 = ordered[min(len(ordered), max(1, round(0.95 * len(ordered)))) - 1]
    return {"sim_op_us_mean": sum(ordered) / len(ordered),
            "sim_op_us_p95": p95,
            "sim_ops_per_s": len(ordered) / (makespan_us / 1e6), **extra}


#: Public counters summed over a workload's clusters, read before and
#: after the timed region.
_COUNTERS = ("htap.scans_frozen", "htap.scans_composed", "htap.merges",
             "htap.cold_rebuilds")


def _counters(clusters: Sequence[MppCluster]) -> Dict[str, float]:
    totals = {"core.gtm_requests": 0.0}
    for cluster in clusters:
        flat = dict(cluster.obs.metrics.snapshot()[1])
        for name in _COUNTERS:
            totals[name] = totals.get(name, 0.0) + flat.get(name, 0.0)
        totals["core.gtm_requests"] += cluster.gtm.stats.total_requests
    return totals


def _counter_delta(clusters, before: Dict[str, float]) -> Dict[str, float]:
    after = _counters(clusters)
    return {name: after[name] - before.get(name, 0.0) for name in after}


def _query_stats(results) -> Dict[str, float]:
    profiles = [r.profile for r in results]
    return {
        "learnopt.captures": sum(r.capture.captured for r in results
                                 if r.capture is not None),
        "exec.operator_rows": sum(p.total_rows for p in profiles),
        "exec.output_rows": sum(p.output_rows for p in profiles),
        "net.rows": sum(op.net_rows for p in profiles for op in p.operators),
    }


# -- TPC-C-lite helpers shared by oltp and htap_mixed -------------------------

def _terminals(cluster: MppCluster, workload: TpccLiteWorkload, count: int):
    return [(cluster.session(track_costs=True),
             workload.stream(home_warehouse=i % workload.num_warehouses,
                             seed_offset=i))
            for i in range(count)]


def _tpcc_invariants(cluster: MppCluster) -> List[str]:
    """w_ytd = sum of its districts' d_ytd; o_ol_cnt lines per order."""
    problems = []
    txn = cluster.session().begin(multi_shard=True)
    try:
        w_ytd = {v["w_id"]: v["w_ytd"] for _k, v in txn.scan("warehouse")}
        d_ytd: Dict[int, float] = {}
        for _k, v in txn.scan("district"):
            d_ytd[v["w_id"]] = d_ytd.get(v["w_id"], 0.0) + v["d_ytd"]
        ol_cnt = {v["o_key"]: v["o_ol_cnt"] for _k, v in txn.scan("orders")}
        lines: Dict[int, int] = {}
        for _k, v in txn.scan("order_line"):
            lines[v["o_key"]] = lines.get(v["o_key"], 0) + 1
    finally:
        txn.commit()
    for w_id, ytd in sorted(w_ytd.items()):
        if abs(ytd - d_ytd.get(w_id, 0.0)) > 1e-6 * max(1.0, abs(ytd)):
            problems.append(f"warehouse {w_id}: w_ytd {ytd} != "
                            f"sum(d_ytd) {d_ytd.get(w_id, 0.0)}")
    for o_key, count in sorted(ol_cnt.items()):
        if lines.get(o_key, 0) != count:
            problems.append(f"order {o_key}: {lines.get(o_key, 0)} lines, "
                            f"o_ol_cnt {count}")
    if sum(lines.values()) != sum(ol_cnt.values()):
        problems.append("order_line rows without an order")
    return problems


def _max_version_chain(cluster: MppCluster) -> int:
    longest = 0
    txn = cluster.session().begin(multi_shard=True)
    try:
        keys = {table: [k for k, _v in txn.scan(table)]
                for table in cluster.catalog.tables()}
    finally:
        txn.commit()
    for dn in cluster.active_dns():
        for table, table_keys in keys.items():
            heap = dn.heap(table)
            for key in table_keys:
                longest = max(longest, len(heap.version_chain(key)))
    return longest


def _run_txn(session, spec, episode: Episode) -> Optional[float]:
    """One TPC-C-lite transaction; returns its simulated latency."""
    start_sim = session.now_us
    episode.attempted += 1
    t0 = _clock()
    txn = session.begin(multi_shard=spec.multi_shard)
    try:
        spec.body(txn)
        txn.commit()
    except SerializationConflict:
        txn.abort()
        episode.failed += 1
        return None
    episode.op_ns.append(_clock() - t0)
    episode.txns += 1
    return session.now_us - start_sim


class Oltp:
    """TPC-C-lite NewOrder/Payment through the transaction API.

    Chosen because it is the only workload where GTM-lite transactions,
    the cluster's routing and the row-store heap do all the work, with no
    SQL, executor or column path: exec and HTAP changes should not move
    it.  Per-transaction cost grows with run length (version chains on
    hot warehouse and district rows grow, nothing vacuums), so the run
    length is fixed.
    """

    name = "oltp"
    DNS = 4
    WAREHOUSES = 8
    TERMINALS = 8
    MULTI_SHARD = 0.2
    TXNS = 2000

    def setup(self, seed: int):
        cluster = MppCluster(num_dns=self.DNS)
        load_tpcc(cluster, num_warehouses=self.WAREHOUSES, seed=seed)
        workload = TpccLiteWorkload(num_warehouses=self.WAREHOUSES,
                                    multi_shard_fraction=self.MULTI_SHARD,
                                    seed=seed)
        return {"cluster": cluster,
                "terminals": _terminals(cluster, workload, self.TERMINALS),
                "before": _counters([cluster])}

    def run(self, state) -> Episode:
        cluster, terminals = state["cluster"], state["terminals"]
        episode = Episode()
        sim_lat = []
        ready = [(0.0, i) for i in range(len(terminals))]
        while episode.attempted < self.TXNS:
            _, i = heapq.heappop(ready)
            session, stream = terminals[i]
            latency = _run_txn(session, next(stream), episode)
            if latency is not None:
                sim_lat.append(latency)
            cluster.obs.advance_to(session.now_us)
            heapq.heappush(ready, (session.now_us, i))
        makespan = max(cluster.resources.max_busy_us(),
                       max(s.now_us for s, _ in terminals))
        episode.sim = _sim(sim_lat, makespan)
        episode.fingerprint = _digest(sim_lat, makespan)
        return episode

    def check(self, state, episode: Episode) -> List[str]:
        return _tpcc_invariants(state["cluster"])

    def stats(self, state, episode: Episode) -> Dict[str, float]:
        cluster = state["cluster"]
        stats = _counter_delta([cluster], state["before"])
        stats["storage.max_version_chain"] = _max_version_chain(cluster)
        return stats


# -- reporting -----------------------------------------------------------------

REGIONS = ("north", "south", "east", "west")
STATUSES = ("gold", "silver")

#: (template, ORDER BY keys as (output column, descending)).  Top-N
#: templates order on unique keys so a LIMIT cut is deterministic.
REPORT_TEMPLATES: Tuple[Tuple[str, Tuple[Tuple[int, bool], ...]], ...] = (
    ("select region, count(*), sum(amount) from sales "
     "where status = '{status}' group by region order by region",
     ((0, False),)),
    ("select count(*) from sales where region = '{region}' "
     "and status = '{status}'", ()),
    ("select region, sum(amount) from sales where amount > {amount} "
     "or status = '{status}' group by region order by region",
     ((0, False),)),
    ("select status, count(*) from sales where amount * 2 > {amount} "
     "and region <> '{region}' group by status order by status",
     ((0, False),)),
    ("select sale_id, amount from sales where region = '{region}' "
     "and amount > {amount} order by amount desc, sale_id limit 10",
     ((1, True), (0, False))),
    ("select c.segment, count(*), sum(s.amount) from sales s, customers c "
     "where s.cust_id = c.cust_id and s.region = '{region}' "
     "group by c.segment order by c.segment",
     ((0, False),)),
    ("select s.cust_id cid, sum(s.amount) total from sales s, customers c "
     "where s.cust_id = c.cust_id and c.segment = 'vip' "
     "and s.status = '{status}' and s.amount > {amount} "
     "group by s.cust_id order by total desc, cid limit 10",
     ((1, True), (0, False))),
)

SALES_COLUMNS = ("sale_id", "cust_id", "region", "status", "amount")
CUSTOMER_COLUMNS = ("cust_id", "segment")


def _instance(template_id: int, region: str, status: str,
              amount: float) -> Tuple[str, tuple]:
    template, order = REPORT_TEMPLATES[template_id]
    return template.format(region=region, status=status,
                           amount=amount), order


#: The canned reports: one fixed instance per template.
CANNED_REPORTS = [_instance(i, REGIONS[i % len(REGIONS)],
                            STATUSES[i % len(STATUSES)], 250)
                  for i in range(len(REPORT_TEMPLATES))]


class Reporting:
    """Canned and ad-hoc SQL reports over frozen column chunks.

    Chosen because the executor's row and batch streams dominate here and
    nothing writes: about 70% of queries repeat a canned instance (plan
    cache hits), the rest carry fresh literals and go through parse, bind,
    plan and learning-optimizer capture again.  OLTP changes should not
    move it.
    """

    name = "reporting"
    DNS = 2
    SALES = 20_000
    CUSTOMERS = 400
    QUERIES = 210
    CANNED_SHARE = 0.7

    def setup(self, seed: int):
        rng = make_rng(seed)
        cluster = MppCluster(num_dns=self.DNS)
        engine = SqlEngine(cluster)
        engine.execute(
            "create table sales (sale_id int primary key, cust_id int, "
            "region text, status text, amount double) "
            "with (orientation = column)")
        engine.execute(
            "create table customers (cust_id int primary key, segment text)")
        sales = []
        for i in range(self.SALES):
            region = REGIONS[i % len(REGIONS)]
            gold = rng.random() < (0.9 if region == "north" else 0.02)
            sales.append((i, rng.randrange(self.CUSTOMERS), region,
                          "gold" if gold else "silver",
                          round(rng.uniform(1, 500), 2)))
        customers = [(i, "vip" if i % 20 == 0 else "mass")
                     for i in range(self.CUSTOMERS)]
        txn = cluster.session().begin(multi_shard=True)
        for row in sales:
            txn.insert("sales", dict(zip(SALES_COLUMNS, row)))
        for row in customers:
            txn.insert("customers", dict(zip(CUSTOMER_COLUMNS, row)))
        txn.commit()
        engine.analyze()
        # Fold the load into frozen chunks: timed queries read the column
        # store as-is, the steady state of a read-only reporting database.
        cluster.htap.tick()
        # Every template appears equally often in both halves, so the
        # query mix, and with it the cost, is the same for every seed.
        canned = round(self.QUERIES * self.CANNED_SHARE)
        stream = [CANNED_REPORTS[i % len(CANNED_REPORTS)]
                  for i in range(canned)]
        stream += [_instance(i % len(REPORT_TEMPLATES), rng.choice(REGIONS),
                             rng.choice(STATUSES),
                             rng.randrange(20_000, 30_000) / 100)
                   for i in range(self.QUERIES - canned)]
        rng.shuffle(stream)
        return {"cluster": cluster, "engine": engine, "stream": stream,
                "sales": sales, "customers": customers,
                "before": _counters([cluster]),
                "hits0": engine.plan_cache.hits,
                "probes0": engine.plan_cache.probes}

    def run(self, state) -> Episode:
        engine = state["engine"]
        episode = Episode()
        results = []
        for sql, _order in state["stream"]:
            episode.attempted += 1
            t0 = _clock()
            result = engine.execute(sql)
            episode.op_ns.append(_clock() - t0)
            results.append(result)
        episode.queries = len(results)
        state["results"] = results
        sim_lat = [r.profile.elapsed_time_us + r.profile.queue_time_us
                   for r in results]
        episode.sim = _sim(sim_lat, sum(sim_lat))
        episode.fingerprint = _digest(sim_lat, [r.rows for r in results])
        return episode

    def check(self, state, episode: Episode) -> List[str]:
        oracle = Oracle()
        try:
            oracle.load("sales", SALES_COLUMNS, state["sales"])
            oracle.load("customers", CUSTOMER_COLUMNS, state["customers"])
            problems = []
            expected: Dict[str, List[tuple]] = {}
            for (sql, order), result in zip(state["stream"],
                                            state["results"]):
                if sql not in expected:
                    expected[sql] = oracle.query(sql)
                why = compare(result.rows, expected[sql], order)
                if why is not None:
                    problems.append(f"{sql}: {why}")
            return problems
        finally:
            oracle.close()

    def stats(self, state, episode: Episode) -> Dict[str, float]:
        engine = state["engine"]
        stats = _counter_delta([state["cluster"]], state["before"])
        stats.update(_query_stats(state["results"]))
        stats["storage.max_version_chain"] = _max_version_chain(
            state["cluster"])
        stats["sql.plan_cache_hits"] = engine.plan_cache.hits - state["hits0"]
        stats["sql.plan_cache_probes"] = (engine.plan_cache.probes
                                          - state["probes0"])
        return stats


# -- htap_mixed ----------------------------------------------------------------

HTAP_REPORTS = (
    ("select w_id, count(*), sum(ol_amount) from order_line "
     "group by w_id order by w_id", ((0, False),)),
    ("select w_id, sum(o_ol_cnt) from orders group by w_id order by w_id",
     ((0, False),)),
    ("select count(*) from order_line where ol_quantity > 5", ()),
    ("select d_id, count(*), sum(ol_amount) from orders, order_line "
     "where orders.o_key = order_line.o_key group by d_id order by d_id",
     ((0, False),)),
)
ORDERS_COLUMNS = ("o_key", "w_id", "d_id", "c_id", "o_ol_cnt", "o_entry_ts")
ORDER_LINE_COLUMNS = ("ol_key", "w_id", "o_key", "ol_number", "i_id",
                      "ol_quantity", "ol_amount")


class HtapMixed:
    """TPC-C-lite writes into column tables beside reporting scans.

    Chosen because it is the one workload where writes and reads share the
    HTAP layer: commits capture deltas, the merge daemon (paced on
    simulated time) folds them into frozen chunks, and every scan composes
    frozen chunks with the delta.  A compose or merge optimisation shows
    here, and so does any harm it does to the write side.
    """

    name = "htap_mixed"
    DNS = 2
    WAREHOUSES = 4
    TERMINALS = 4
    MULTI_SHARD = 0.1
    TXNS = 600
    SCAN_EVERY = 5
    MERGE_INTERVAL_US = 30_000.0
    COLUMN_TABLES = ("orders", "order_line")

    def setup(self, seed: int):
        config = WlmConfig(groups=[
            ResourceGroup("oltp", slots=16, priority=Priority.HIGH,
                          queue_limit=4096),
            ResourceGroup("olap", slots=2, priority=Priority.LOW,
                          queue_limit=4096),
        ])
        cluster = MppCluster(
            num_dns=self.DNS, wlm_config=config,
            htap_config=HtapConfig(merge_interval_us=self.MERGE_INTERVAL_US))
        engine = SqlEngine(cluster)
        load_tpcc(cluster, num_warehouses=self.WAREHOUSES, seed=seed,
                  column_oriented=self.COLUMN_TABLES)
        workload = TpccLiteWorkload(num_warehouses=self.WAREHOUSES,
                                    multi_shard_fraction=self.MULTI_SHARD,
                                    seed=seed)
        return {"cluster": cluster, "engine": engine,
                "terminals": _terminals(cluster, workload, self.TERMINALS),
                "before": _counters([cluster]),
                "hits0": engine.plan_cache.hits,
                "probes0": engine.plan_cache.probes}

    def run(self, state) -> Episode:
        cluster, engine = state["cluster"], state["engine"]
        terminals = state["terminals"]
        wlm, obs, htap = cluster.wlm, cluster.obs, cluster.htap
        episode = Episode()
        sim_lat, results = [], []
        worst_lag = 0.0
        ready = [(0.0, i) for i in range(len(terminals))]
        for t in range(self.TXNS):
            _, i = heapq.heappop(ready)
            session, stream = terminals[i]
            spec = next(stream)
            ticket = wlm.submit(group="oltp", now_us=session.now_us,
                                tag=spec.kind)
            latency = _run_txn(session, spec, episode)
            wlm.release(ticket, session.now_us)
            if latency is not None:
                sim_lat.append(latency)
            heapq.heappush(ready, (session.now_us, i))
            obs.advance_to(session.now_us)
            now_us = obs.clock.now_us
            htap.maybe_tick(now_us)
            worst_lag = max(worst_lag, htap.max_freshness_lag_us(now_us))
            if (t + 1) % self.SCAN_EVERY == 0:
                sql = HTAP_REPORTS[(t // self.SCAN_EVERY)
                                   % len(HTAP_REPORTS)][0]
                episode.attempted += 1
                t0 = _clock()
                result = engine.execute(sql, group="olap", arrival_us=now_us)
                episode.op_ns.append(_clock() - t0)
                episode.queries += 1
                sim_lat.append(result.profile.elapsed_time_us
                               + result.profile.queue_time_us)
                results.append(result)
        state["results"] = results
        makespan = max(cluster.resources.max_busy_us(), obs.clock.now_us,
                       max(s.now_us for s, _ in terminals))
        episode.sim = _sim(sim_lat, makespan, freshness_lag_us_max=worst_lag)
        episode.fingerprint = _digest(sim_lat, [r.rows for r in results],
                                      worst_lag)
        return episode

    def check(self, state, episode: Episode) -> List[str]:
        cluster, engine = state["cluster"], state["engine"]
        problems = _tpcc_invariants(cluster)
        if _counter_delta([cluster], state["before"])["htap.cold_rebuilds"]:
            problems.append("HTAP scans fell back to cold rebuilds")
        txn = cluster.session().begin(multi_shard=True)
        try:
            orders = [tuple(v[c] for c in ORDERS_COLUMNS)
                      for _k, v in txn.scan("orders")]
            lines = [tuple(v[c] for c in ORDER_LINE_COLUMNS)
                     for _k, v in txn.scan("order_line")]
        finally:
            txn.commit()
        oracle = Oracle()
        try:
            oracle.load("orders", ORDERS_COLUMNS, orders)
            oracle.load("order_line", ORDER_LINE_COLUMNS, lines)
            for sql, order in HTAP_REPORTS:
                got = engine.execute(sql, group="olap").rows
                why = compare(got, oracle.query(sql), order)
                if why is not None:
                    problems.append(f"{sql}: {why}")
        finally:
            oracle.close()
        return problems

    def stats(self, state, episode: Episode) -> Dict[str, float]:
        cluster, engine = state["cluster"], state["engine"]
        stats = _counter_delta([cluster], state["before"])
        stats.update(_query_stats(state["results"]))
        stats["sql.plan_cache_hits"] = engine.plan_cache.hits - state["hits0"]
        stats["sql.plan_cache_probes"] = (engine.plan_cache.probes
                                          - state["probes0"])
        stats["storage.max_version_chain"] = _max_version_chain(cluster)
        return stats


# -- geo -----------------------------------------------------------------------

class Geo:
    """Three regions committing TPC-C-lite through GeoGauss epochs.

    Chosen because it is the only workload that runs the geo layer's
    seal / ship / certify / apply path; without it that layer would go
    unmeasured.  Each region submits a batch of transactions per epoch
    step, then the epoch machine advances on simulated time.
    """

    name = "geo"
    REGIONS = 3
    DNS_PER_REGION = 2
    REPLICATION = 2
    WAREHOUSES = 6
    MULTI_SHARD = 0.2
    STEPS = 40
    TXNS_PER_STEP = 8
    STEP_US = 20_000.0
    MAX_RETRY_ROUNDS = 10

    def setup(self, seed: int):
        geo = GeoCluster(GeoConfig(
            num_regions=self.REGIONS, dns_per_region=self.DNS_PER_REGION,
            mode=GeoMode.GEOGAUSS, replication_factor=self.REPLICATION))
        load_tpcc_geo(geo, num_warehouses=self.WAREHOUSES, seed=seed)
        workload = TpccLiteWorkload(num_warehouses=self.WAREHOUSES,
                                    multi_shard_fraction=self.MULTI_SHARD,
                                    seed=seed)
        sessions = [geo.session(r) for r in range(self.REGIONS)]
        streams = [workload.stream(
            home_warehouse=warehouses_homed_at(geo, r, self.WAREHOUSES)[0],
            seed_offset=r) for r in range(self.REGIONS)]
        return {"geo": geo, "sessions": sessions, "streams": streams,
                "before": _counters(geo.regions),
                "wan0": geo.fabric.messages_sent}

    def run(self, state) -> Episode:
        geo, sessions, streams = (state["geo"], state["sessions"],
                                  state["streams"])
        episode = Episode()
        # (region, spec, first submit time, handle) per unsettled attempt.
        live: List[tuple] = []
        settled: List[tuple] = []
        state["aborted"] = 0

        def submit(region: int, spec, first_us: Optional[float]) -> None:
            episode.attempted += 1
            t0 = _clock()
            txn = sessions[region].begin()
            spec.body(txn)
            handle = txn.commit()
            episode.op_ns.append(_clock() - t0)
            live.append((region, spec, handle.submit_us
                         if first_us is None else first_us, handle))

        def retry_aborted() -> None:
            # A client whose transaction lost certification resubmits it;
            # its latency runs from the first submission to the final ack.
            attempts = live[:]
            live.clear()
            for region, spec, first_us, handle in attempts:
                if handle.status == "committed":
                    settled.append((first_us, handle))
                elif handle.status == "aborted":
                    state["aborted"] += 1
                    submit(region, spec, first_us)
                else:
                    live.append((region, spec, first_us, handle))

        now_us = 0.0
        for _ in range(self.STEPS):
            for region, stream in enumerate(streams):
                for _ in range(self.TXNS_PER_STEP):
                    submit(region, next(stream), None)
            now_us += self.STEP_US
            geo.step_to(now_us)
            for session in sessions:
                session.wait_until(now_us)
            retry_aborted()
        for _ in range(self.MAX_RETRY_ROUNDS):
            now_us = geo.drain()
            for session in sessions:
                session.wait_until(now_us)
            retry_aborted()
            if not live:
                break
        episode.failed = len(live)
        episode.txns = len(settled)
        state["handles"] = [handle for _, handle in settled] + [
            handle for *_, handle in live]
        sim_lat = [handle.ack_us - first_us for first_us, handle in settled]
        episode.sim = _sim(sim_lat, now_us)
        episode.fingerprint = _digest(sim_lat, state["aborted"], now_us)
        return episode

    def check(self, state, episode: Episode) -> List[str]:
        problems = []
        try:
            state["geo"].assert_converged()
        except AssertionError as exc:
            problems.append(str(exc))
        pending = sum(h.status == "pending" for h in state["handles"])
        if pending:
            problems.append(f"{pending} transactions left pending")
        if episode.failed:
            problems.append(f"{episode.failed} transactions never committed "
                            f"in {self.MAX_RETRY_ROUNDS} retry rounds")
        return problems

    def stats(self, state, episode: Episode) -> Dict[str, float]:
        geo = state["geo"]
        stats = _counter_delta(geo.regions, state["before"])
        stats["geo.wan_messages"] = geo.fabric.messages_sent - state["wan0"]
        stats["storage.max_version_chain"] = max(
            _max_version_chain(region) for region in geo.regions)
        stats["geo.certify_aborts"] = state["aborted"]
        stats["geo.epochs_certified"] = len({row[0]
                                             for row in geo.epoch_rows()})
        return stats


WORKLOADS = {w.name: w for w in (Oltp(), Reporting(), HtapMixed(), Geo())}
