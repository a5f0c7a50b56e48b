"""Where the tracer cuts the program into layers.

A layer is a ``repro.*`` package.  Each entry below names a function that
other layers (or the benchmark's client loop) call into; the tracer charges the
time spent inside it, minus wrapped children, to its layer.  The list was
derived by recording every cross-package call the four workloads make and
keeping the ones that carry work.  Left out, so that their time stays
with the layer that calls them: functions called only at set-up,
closures (which cannot be wrapped from outside), and leaf predicates
cheaper than the wrapper itself, such as snapshot visibility tests,
commit-log lookups and shard routing, which run tens of times per
transaction, and per-row expression evaluation, which stays in ``exec``.

Some entries carry more than a layer name:

* a ``probe`` adds amounts read from the call's arguments or result to
  named sums, for counts no public stat exposes (rows a column store
  encodes, delta rows a composed scan folds in);
* ``iter_args`` re-charges a generator passed *in* to the layer that
  passed it.  ``QueryProfiler.wrap`` takes an operator's row stream and
  returns an instrumented one; without it, every operator below the root
  would land in ``obs``;
* ``timed=False`` counts calls without timing them, for per-row hooks
  whose count matters but whose cost is below the wrapper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

LAYERS = ("sql", "optimizer", "learnopt", "exec", "wlm", "net", "txn",
          "core", "cluster", "storage", "htap", "obs", "geo", "workloads")


@dataclass(frozen=True)
class Boundary:
    layer: str
    #: ``"repro.package.module:Qualified.name"``.
    target: str
    probe: Optional[Callable] = None
    iter_args: bool = False
    #: ``False``: count calls only; the time stays with the caller.
    timed: bool = True


def _encoded_rows(args, store):
    yield "storage.colstore_rows_encoded", args[0].row_count


def _composed(args, result):
    table_store = args[0]
    frozen = table_store.frozen
    if result is not None and (frozen is None or result is not frozen.store):
        yield "htap.delta_rows_composed", len(table_store.delta.entries)


_PLAIN = {
    "sql": {
        "repro.sql.engine": ["SqlEngine.execute", "SqlEngine.analyze"],
    },
    "optimizer": {
        "repro.optimizer.planner": ["PhysicalPlanner.plan"],
    },
    "learnopt": {
        "repro.learnopt.feedback": ["FeedbackLoop.capture",
                                    "FeedbackLoop.lookup"],
        "repro.learnopt.store": ["step_key"],
    },
    "exec": {
        "repro.exec.operators": ["PhysicalOp.pretty", "walk_physical"],
        "repro.exec.batch": ["enable_batches"],
        "repro.exec.fragments": ["compile_predicates"],
    },
    "wlm": {
        "repro.wlm.governor": ["WlmGovernor.submit", "WlmGovernor.release",
                               "WlmGovernor.context", "WlmGovernor.cancel",
                               "WlmQueryContext.memory_for",
                               "attach_to_plan"],
        "repro.wlm.memory": ["OperatorMemory.finish"],
    },
    "net": {
        "repro.net.costing": ["CostContext.charge", "CostContext.charge_local",
                              "CostContext.wait_until", "row_width_bytes",
                              "exchange_cost_us"],
        "repro.net.fabric": ["Fabric.send", "Fabric.hop_us"],
    },
    "txn": {
        "repro.txn.manager": [
            "LocalTransactionManager.begin", "LocalTransactionManager.commit",
            "LocalTransactionManager.prepare",
            "LocalTransactionManager.record_write",
            "LocalTransactionManager.local_snapshot",
            "LocalTransactionManager.gxid_for",
            "LocalTransactionManager.prepared_xids",
            "LocalTransactionManager.write_set"],
        "repro.txn.status": ["StatusLog.begin", "StatusLog.set"],
        "repro.txn.xid": ["XidAllocator.allocate"],
    },
    "core": {
        "repro.core.gtm": ["GlobalTransactionManager.begin",
                           "GlobalTransactionManager.snapshot",
                           "GlobalTransactionManager.commit",
                           "GlobalTransactionManager.active_count",
                           "GlobalTransactionManager.snapshot_horizon"],
        "repro.core.merge": ["merge_snapshots"],
    },
    "cluster": {
        "repro.cluster.mpp": ["MppCluster.session", "Session.begin",
                              "Session.run_transaction"],
        "repro.cluster.txn": [
            "LocalTransaction.read", "LocalTransaction.insert",
            "LocalTransaction.update", "LocalTransaction.delete",
            "LocalTransaction.scan", "LocalTransaction.commit",
            "LocalTransaction.abort",
            "GlobalTransaction.read", "GlobalTransaction.insert",
            "GlobalTransaction.update", "GlobalTransaction.delete",
            "GlobalTransaction.scan", "GlobalTransaction.scan_shard",
            "GlobalTransaction.shard_column_store",
            "GlobalTransaction.commit", "GlobalTransaction.abort"],
    },
    "storage": {
        "repro.storage.table": ["TableSchema.coerce_row"],
        "repro.storage.heap": ["MvccHeap.insert", "MvccHeap.update",
                               "MvccHeap.delete", "MvccHeap.read",
                               "MvccHeap.scan", "MvccHeap.stamp_of"],
        "repro.storage.colstore": ["ColumnStore.append_rows",
                                   "ColumnStore.scan_chunks",
                                   "ColumnStore.scan_rows"],
        "repro.storage.types": ["type_of_literal"],
    },
    "htap": {
        "repro.htap.manager": ["HtapManager.maybe_tick", "HtapManager.tick",
                               "HtapManager.max_freshness_lag_us"],
        "repro.htap.store": ["HtapNodeState.capture_commit",
                             "HtapTableStore.merge"],
    },
    "obs": {
        "repro.obs": ["Observability.advance_to"],
        "repro.obs.metrics": ["Counter.inc", "Gauge.set", "Histogram.observe",
                              "MetricsRegistry.counter",
                              "MetricsRegistry.gauge",
                              "MetricsRegistry.histogram"],
        "repro.obs.tracing": ["Tracer.start_span", "Tracer.end_span",
                              "Tracer.activate", "Tracer.deactivate",
                              "Span.set_attribute"],
        "repro.obs.waits": ["ActivityRegistry.begin", "ActivityRegistry.finish",
                            "ActivityRegistry.set_state",
                            "ActivityRegistry.enter_wait",
                            "ActivityRegistry.leave_wait",
                            "WaitEventRecorder.record",
                            "WaitEventRecorder.flush_batches"],
        "repro.obs.profiler": ["QueryProfiler.attach", "QueryProfiler.profile",
                               "QueryProfile.elapsed_time_us"],
        "repro.obs.slowlog": ["SlowQueryLog.note"],
    },
    "geo": {
        "repro.geo.cluster": ["GeoSession.begin", "GeoSession.wait_until",
                              "GeoSession.run_transaction",
                              "GeoTransaction.read", "GeoTransaction.insert",
                              "GeoTransaction.update",
                              "GeoTransaction.delete",
                              "GeoTransaction.commit", "GeoCluster.step_to",
                              "GeoCluster.drain"],
    },
}

_SPECIAL = [
    Boundary("storage", "repro.storage.colstore:ColumnStore.flush",
             probe=_encoded_rows),
    Boundary("htap", "repro.htap.store:HtapTableStore.compose",
             probe=_composed),
    Boundary("obs", "repro.obs.profiler:QueryProfiler.wrap", iter_args=True),
    # The cancellation checkpoint and memory accounting run once per row
    # or batch of every governed operator: counted, but too cheap to time.
    Boundary("wlm", "repro.wlm.governor:WlmQueryContext.tick", timed=False),
    Boundary("wlm", "repro.wlm.governor:WlmQueryContext.tick_batch",
             timed=False),
    Boundary("wlm", "repro.wlm.memory:OperatorMemory.grow", timed=False),
]

#: Every physical operator's row and batch streams: the ``exec`` layer.
_OPERATOR_STREAMS = ("execute", "execute_batches", "batches")


def _operator_boundaries() -> List[Boundary]:
    from repro.exec import operators

    found = []
    for name, cls in sorted(vars(operators).items()):
        if isinstance(cls, type) and issubclass(cls, operators.PhysicalOp):
            for method in _OPERATOR_STREAMS:
                if method in cls.__dict__:
                    found.append(Boundary(
                        "exec", f"repro.exec.operators:{name}.{method}"))
    return found


def boundaries() -> List[Boundary]:
    """All boundaries; imports ``repro.exec.operators`` to list operators."""
    found = [Boundary(layer, f"{module}:{name}")
             for layer, modules in _PLAIN.items()
             for module, names in modules.items()
             for name in names]
    return found + _SPECIAL + _operator_boundaries()
