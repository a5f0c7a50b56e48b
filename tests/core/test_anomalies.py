"""Protocol tests for the paper's Anomaly 1 and Anomaly 2 (Sec. II-A).

These reproduce the exact interleavings from the paper and assert that:
* the naive local-snapshot reader exhibits each anomaly,
* the ablated modes exhibit exactly the anomaly their missing fix covers,
* full GTM-lite (Algorithm 1) and the classical baseline are consistent.
"""

import pytest

from repro.cluster import MppCluster, TxnMode
from repro.cluster import txn as txn_module
from repro.storage import Column, DataType, TableSchema
from repro.storage.table import shard_of_value


def make_cluster(mode: TxnMode, num_dns: int = 2) -> MppCluster:
    cluster = MppCluster(num_dns=num_dns, mode=mode)
    cluster.create_table(TableSchema(
        "t", [Column("k", DataType.INT), Column("v", DataType.INT)], "k",
    ))
    return cluster


def keys_on_distinct_nodes(num_dns: int):
    """One integer key per data node."""
    found = {}
    k = 0
    while len(found) < num_dns:
        shard = shard_of_value(k, num_dns)
        found.setdefault(shard, k)
        k += 1
    return [found[i] for i in range(num_dns)]


def seeded(mode: TxnMode):
    cluster = make_cluster(mode)
    ka, kb = keys_on_distinct_nodes(2)
    session = cluster.session()
    init = session.begin(multi_shard=True)
    init.insert("t", {"k": ka, "v": 0})
    init.insert("t", {"k": kb, "v": 0})
    init.commit()
    return cluster, session, ka, kb


class TestAnomaly2:
    """Fig. 2: T1 multi-shard write; T3 single-shard dependent write;
    T2 reader with old global snapshot + new local snapshot."""

    def _run(self, mode: TxnMode):
        cluster, session, ka, kb = seeded(mode)
        t1 = session.begin(multi_shard=True)
        t1.update("t", ka, {"v": 1})
        t1.update("t", kb, {"v": 1})
        t2 = session.begin(multi_shard=True)   # global snapshot: T1 active
        b_early = t2.read("t", kb)["v"]        # local snapshot on kb's DN now
        t1.commit()
        t3 = session.begin(multi_shard=False)  # dependent single-shard write
        t3.update("t", ka, {"v": 2})
        t3.commit()
        a_late = t2.read("t", ka)["v"]         # local snapshot on ka's DN late
        t2.commit()
        return a_late, b_early

    def test_gtm_lite_downgrade_gives_consistent_view(self):
        # T1 was active in T2's global snapshot, so neither T1's write nor
        # the dependent T3 write may be visible: the view is (0, 0).
        assert self._run(TxnMode.GTM_LITE) == (0, 0)

    def test_naive_merge_exhibits_the_anomaly(self):
        # The naive reader sees T3's dependent update on one node but not
        # T1's write on the other: a torn, causally impossible view.
        assert self._run(TxnMode.GTM_LITE_NAIVE) == (2, 0)

    def test_disabling_downgrade_reintroduces_the_anomaly(self):
        assert self._run(TxnMode.GTM_LITE_NO_DOWNGRADE) == (2, 0)

    def test_classical_baseline_is_consistent(self):
        assert self._run(TxnMode.CLASSICAL) == (0, 0)

    def test_downgrade_is_recorded_in_stats(self):
        cluster, session, ka, kb = seeded(TxnMode.GTM_LITE)
        t1 = session.begin(multi_shard=True)
        t1.update("t", ka, {"v": 1})
        t1.update("t", kb, {"v": 1})
        t2 = session.begin(multi_shard=True)
        t1.commit()
        t3 = session.begin(multi_shard=False)
        t3.update("t", ka, {"v": 2})
        t3.commit()
        t2.read("t", ka)
        assert cluster.stats.downgrades >= 2  # T1's local commit and T3

    def test_downgrade_survives_per_commit_lco_pruning(self, monkeypatch):
        # Every completed transaction prunes the LCOs up to the GTM's
        # snapshot horizon.  A reader whose global snapshot saw the writer
        # in flight pins that horizon, so the writer's entry and the
        # dependent single-shard commit after it must survive the prune
        # and still be downgraded when the reader attaches late.
        outcomes = []
        merge = txn_module.merge_snapshots

        def recording_merge(*args, **kwargs):
            outcome = merge(*args, **kwargs)
            outcomes.append(outcome)
            return outcome
        monkeypatch.setattr(txn_module, "merge_snapshots", recording_merge)

        cluster, session, ka, kb = seeded(TxnMode.GTM_LITE)
        dn0 = cluster.dns[shard_of_value(ka, 2)]
        w = session.begin(multi_shard=True)
        w.update("t", ka, {"v": 1})
        w.update("t", kb, {"v": 1})
        r = session.begin(multi_shard=True)    # global snapshot: W active
        r.read("t", kb)                        # attach the other DN early
        w_lxid = dn0.ltm.xid_map[w.gxid]
        w.commit()                             # W commits on DN0 (and DN1)
        l = session.begin(multi_shard=False)
        l.update("t", ka, {"v": 2})
        l.commit()                             # runs a prune on every DN
        # The prune dropped the seed's resolved entry and stopped at W.
        assert [e.local_xid for e in dn0.ltm.lco] == [w_lxid, l.xid]
        outcomes.clear()
        assert r.read("t", ka)["v"] == 0       # attaches DN0: pre-W value
        assert [o.downgraded for o in outcomes] == [{w_lxid, l.xid}]
        r.commit()
        # With no reader left open, the reader's own completion empties
        # every LCO.
        assert [len(dn.ltm.lco) for dn in cluster.dns] == [0, 0]


class TestAnomaly1:
    """Writer committed at the GTM but not yet confirmed on one DN."""

    def _run(self, mode: TxnMode):
        cluster, session, ka, kb = seeded(mode)
        dn_b = shard_of_value(kb, 2)
        t1 = session.begin(multi_shard=True)
        t1.update("t", ka, {"v": 7})
        t1.update("t", kb, {"v": 7})
        steps = t1.commit_stepwise()
        steps.prepare_all()
        steps.commit_at_gtm()
        # Deliver the commit confirmation to ka's node only.
        dn_a = shard_of_value(ka, 2)
        if mode is not TxnMode.CLASSICAL:
            steps.confirm_at(dn_a)
        t2 = session.begin(multi_shard=True)   # global snapshot: T1 committed
        a = t2.read("t", ka)["v"]
        b = t2.read("t", kb)["v"]
        steps.finish()
        t2.commit()
        return a, b

    def test_gtm_lite_upgrade_reveals_both_writes(self):
        assert self._run(TxnMode.GTM_LITE) == (7, 7)

    def test_disabling_upgrade_tears_the_write(self):
        assert self._run(TxnMode.GTM_LITE_NO_UPGRADE) == (7, 0)

    def test_naive_reader_tears_the_write(self):
        assert self._run(TxnMode.GTM_LITE_NAIVE) == (7, 0)

    def test_classical_baseline_is_consistent(self):
        # Classical confirms on the DNs before the GTM dequeues the writer,
        # so the reader sees either all or none; here, all.
        assert self._run(TxnMode.CLASSICAL) == (7, 7)

    def test_upgrade_is_recorded_in_stats(self):
        cluster, session, ka, kb = seeded(TxnMode.GTM_LITE)
        t1 = session.begin(multi_shard=True)
        t1.update("t", kb, {"v": 7})
        steps = t1.commit_stepwise()
        steps.prepare_all()
        steps.commit_at_gtm()
        t2 = session.begin(multi_shard=True)
        t2.read("t", kb)
        assert cluster.stats.upgrades >= 1
        steps.finish()


class TestWaitForCommitSafety:
    def test_upgraded_writer_cannot_abort(self):
        """After prepare + GTM commit, the local commit is inevitable —
        the status log refuses to abort a GTM-committed transaction."""
        cluster, session, ka, kb = seeded(TxnMode.GTM_LITE)
        t1 = session.begin(multi_shard=True)
        t1.update("t", ka, {"v": 1})
        t1.update("t", kb, {"v": 1})
        steps = t1.commit_stepwise()
        steps.prepare_all()
        steps.commit_at_gtm()
        with pytest.raises(Exception):
            t1.abort()  # gxid no longer active at the GTM
        steps.finish()
