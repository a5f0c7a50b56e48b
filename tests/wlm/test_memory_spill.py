"""Memory budgets and spill-to-disk accounting."""

import pytest

from repro.cluster.mpp import MppCluster
from repro.sql.engine import SqlEngine
from repro.wlm import (
    MemoryBudget,
    ResourceGroup,
    SPILL_BYTE_US,
    WlmConfig,
)


class TestMemoryBudget:
    def test_grow_spills_when_budget_overflows(self):
        spills = []

        class Ctx:
            def note_spill(self, op, nbytes):
                spills.append(nbytes)

        from repro.wlm.memory import OperatorMemory

        budget = MemoryBudget(100)
        mem = OperatorMemory(Ctx(), object(), budget)
        mem.grow(60)
        assert spills == [] and budget.reserved_bytes == 60
        mem.grow(60)      # 120 > 100: spills until the budget fits
        assert spills and budget.reserved_bytes <= 100
        assert budget.peak_bytes == 120

    @pytest.mark.parametrize("cap", [0, 90, 1000, 4321])
    def test_grow_rows_equals_single_grows(self, cap):
        from repro.wlm.memory import OperatorMemory

        def replay(batched: bool):
            spills = []

            class Ctx:
                def note_spill(self, op, nbytes):
                    spills.append((op, nbytes))

            budget = MemoryBudget(cap)
            other = OperatorMemory(Ctx(), "other", budget)
            mem = OperatorMemory(Ctx(), "op", budget)
            other.grow(cap // 3)
            for n, entry in [(5, 70), (40, 33), (1, 500), (64, 90), (0, 7)]:
                if batched:
                    mem.grow_rows(n, entry)
                else:
                    for _ in range(n):
                        mem.grow(entry)
            return (spills, budget.reserved_bytes, budget.peak_bytes,
                    mem.held_bytes)

        assert replay(batched=True) == replay(batched=False)

    def test_finish_releases_residency(self):
        class Ctx:
            def note_spill(self, op, nbytes):
                pass

        from repro.wlm.memory import OperatorMemory

        budget = MemoryBudget(1000)
        mem = OperatorMemory(Ctx(), object(), budget)
        mem.grow(400)
        mem.finish()
        assert budget.reserved_bytes == 0
        assert mem.held_bytes == 0


def _spill_engine(memory_bytes=512):
    config = WlmConfig(groups=[
        ResourceGroup("tight", slots=4, memory_per_query_bytes=memory_bytes)])
    cluster = MppCluster(num_dns=2, wlm_config=config)
    engine = SqlEngine(cluster)
    engine.execute("create table t (id int, v int)")
    values = ", ".join(f"({i}, {i % 97})" for i in range(300))
    engine.execute(f"insert into t values {values}")
    return cluster, engine


class TestSpillThroughEngine:
    def test_hash_aggregate_over_budget_completes_via_spill(self):
        cluster, engine = _spill_engine()
        sql = "select v, count(*) from t group by v"
        governed = engine.execute(sql, group="tight")
        baseline = engine.execute(sql)     # default group: 64MiB, no spill
        assert sorted(governed.rows) == sorted(baseline.rows)
        assert governed.profile.spilled_bytes > 0
        assert baseline.profile.spilled_bytes == 0

    def test_spill_charges_wait_and_profile_time(self):
        cluster, engine = _spill_engine()
        result = engine.execute("select v, count(*) from t group by v",
                                group="tight")
        spilled = result.profile.spilled_bytes
        stats = cluster.obs.waits.stats("wlm_spill")
        assert stats.count > 0
        assert stats.total_us == pytest.approx(spilled * SPILL_BYTE_US)
        # The wait histogram mirrors the recorder.
        assert cluster.obs.metrics.value("wait.wlm_spill_us") == stats.count

    def test_spilled_bytes_surface_in_explain_analyze(self):
        _, engine = _spill_engine()
        result = engine.execute(
            "explain analyze select v, count(*) from t group by v",
            group="tight")
        assert "spilled_bytes" in result.columns
        idx = result.columns.index("spilled_bytes")
        assert sum(row[idx] for row in result.rows) > 0

    def test_fragmented_spill_charged_on_data_nodes(self):
        cluster, engine = _spill_engine()
        engine.execute("select v, count(*) from t group by v", group="tight")
        # Per-DN partial aggregates overflow their partitions: the wait is
        # attributed to dn sessions, not the coordinator.
        sessions = set(cluster.obs.waits.event_sessions("wlm_spill"))
        assert sessions and all(str(s).startswith("dn") for s in sessions)

    def test_sort_and_join_account_memory(self):
        cluster, engine = _spill_engine(memory_bytes=256)
        ordered = engine.execute("select v from t order by v", group="tight")
        assert ordered.rows == sorted(ordered.rows)
        assert ordered.profile.spilled_bytes > 0
        joined = engine.execute(
            "select a.id from t a join t b on a.v = b.v where a.id < 5",
            group="tight")
        assert joined.rowcount > 0
        assert joined.profile.spilled_bytes > 0

    def test_wlm_groups_view_accumulates_spill(self):
        _, engine = _spill_engine()
        engine.execute("select v, count(*) from t group by v", group="tight")
        rows = engine.execute(
            "select group_name, spills, spilled_bytes from sys.wlm_groups"
        ).as_dicts()
        by_name = {r["group_name"]: r for r in rows}
        assert by_name["tight"]["spilled_bytes"] > 0
        assert by_name["tight"]["spills"] > 0
        assert by_name["default"]["spilled_bytes"] == 0
