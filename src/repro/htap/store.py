"""Per-table dual-format state: frozen column vectors + delta composition.

A :class:`HtapTableStore` is one table's HTAP state on one data node:

* ``frozen`` — a :class:`FrozenChunkSet`: the merged rows as one typed
  numpy data/validity vector per column plus an int64 arrival-stamp array,
  all in stamp order; the compressed
  :class:`~repro.storage.colstore.ColumnStore` whose sealed chunks use
  slices of those vectors as their decoded image; the merge-time snapshot
  (the *merged-past-xid watermark*) and the per-key positions needed to
  patch it;
* ``delta`` — the committed writes that arrived since that merge.

:func:`splice` is the one place delta entries meet the frozen image: it
takes the last entry per key, rewrites a same-stamp row in place, drops
deleted rows by mask, adds new (or re-created) keys and restores stamp
order with a stable argsort — all in column space, with no row coercion.

* :meth:`HtapTableStore.merge` splices the committed delta prefix and
  seals the result compressed (the seed merge splices a heap scan into an
  empty image);
* :meth:`HtapTableStore.compose` serves analytic reads: when the query's
  snapshot sees no delta entry, the frozen store is served **as is** —
  zero rebuild, the whole point of the subsystem; otherwise it splices the
  visible entries and wraps the vectors in an uncompressed store with the
  default chunking — exactly the store the legacy heap walk would have
  produced, so query results (including chunk-boundary-sensitive float
  aggregation) stay byte-identical;
* when the snapshot cannot be served soundly (classical mode, UPGRADE-d
  merged snapshots, readers with their own uncommitted writes, snapshots
  older than the watermark), ``compose`` returns ``None`` and the caller
  falls back to the heap walk, counting the reason.

Ordering invariant: frozen rows are kept sorted by the heap's arrival
stamp, and every composed result is sorted the same way, so column output
always reproduces the heap scan order byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import InvalidTransactionState
from repro.htap.delta import DeltaStore
from repro.storage.colstore import ColumnStore, ColumnVector
from repro.storage.table import TableSchema
from repro.txn.snapshot import Snapshot
from repro.txn.xid import INVALID_XID

#: ``(stamp, values)`` of a key's last write; ``values`` is ``None`` for a
#: delete.
Write = Tuple[int, Optional[Dict[str, object]]]


class FrozenChunkSet:
    """The output of one merge: typed vectors, their store, patching keys."""

    def __init__(self, schema: TableSchema, keys: np.ndarray,
                 stamps: np.ndarray, vectors: Dict[str, ColumnVector],
                 snapshot: Snapshot, merged_seq: int):
        #: Primary keys (object array) and arrival stamps (int64), in the
        #: stamp order every column vector shares.
        self.keys = keys
        self.stamps = stamps
        self.vectors = vectors
        self.store = ColumnStore.from_vectors(schema, vectors, compress=True)
        #: The merge-time snapshot: the watermark every served query
        #: snapshot must dominate.
        self.snapshot = snapshot
        #: First delta ``seq`` *not* folded into this chunk set.
        self.merged_seq = merged_seq
        self.pos_by_key: Dict[object, int] = {
            key: i for i, key in enumerate(keys.tolist())
        }

    @property
    def row_count(self) -> int:
        return len(self.stamps)


def splice(schema: TableSchema, frozen: Optional[FrozenChunkSet],
           finals: Dict[object, Write]
           ) -> Tuple[np.ndarray, np.ndarray, Dict[str, ColumnVector]]:
    """The frozen image (empty when ``None``) with ``finals`` applied.

    ``finals`` maps each written key to its last write.  A key absent
    from the image is added unless that write deletes it; a delete drops
    the key's row; a write with the row's own stamp rewrites it in place;
    any other stamp means the key's chain was dropped (vacuum) and
    re-created at a new heap position, so the old row goes and a new one
    is added.  Added rows are ordered among the kept ones by a stable
    argsort on stamps — the heap's scan order.  Returns read-only
    ``(keys, stamps, vectors)``.
    """
    if frozen is None:
        old_keys = np.empty(0, dtype=object)
        old_stamps = np.empty(0, dtype=np.int64)
        old_vectors = {col.name: ColumnVector.from_values([], col.data_type)
                       for col in schema.columns}
        pos_by_key: Dict[object, int] = {}
    else:
        old_keys, old_stamps = frozen.keys, frozen.stamps
        old_vectors, pos_by_key = frozen.vectors, frozen.pos_by_key
    keep = np.ones(len(old_stamps), dtype=bool)
    patch_pos: List[int] = []
    patched: List[Tuple[object, int, Dict[str, object]]] = []
    added: List[Tuple[object, int, Dict[str, object]]] = []
    for key, (stamp, values) in finals.items():
        pos = pos_by_key.get(key)
        if pos is not None:
            if values is not None and stamp == old_stamps[pos]:
                patch_pos.append(pos)
                patched.append((key, stamp, values))
                continue
            keep[pos] = False
        if values is not None:
            added.append((key, stamp, values))
    writes = patched + added
    n_patched = len(patched)
    patch_at = np.array(patch_pos, dtype=np.intp)
    kept = None
    if not keep.all():
        kept = np.flatnonzero(keep)
        patch_at = np.searchsorted(kept, patch_at)

    def place(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        out = np.concatenate([old if kept is None else old[kept],
                              new[n_patched:]])
        out[patch_at] = new[:n_patched]
        return out

    new_stamps = place(old_stamps, np.array(
        [stamp for _key, stamp, _values in writes], dtype=np.int64))
    order = np.argsort(new_stamps, kind="stable") if added else None

    def seal(out: np.ndarray) -> np.ndarray:
        if order is not None:
            out = out[order]
        out.flags.writeable = False
        return out

    vectors = {}
    for col in schema.columns:
        old = old_vectors[col.name]
        new = ColumnVector.from_values(
            [values[col.name] for _key, _stamp, values in writes],
            col.data_type)
        vectors[col.name] = ColumnVector(
            seal(place(old.data, new.data)),
            seal(place(old.validity, new.validity)))
    new_keys = place(old_keys, np.fromiter(
        (key for key, _stamp, _values in writes), dtype=object,
        count=len(writes)))
    return seal(new_keys), seal(new_stamps), vectors


class HtapTableStore:
    """One table's delta + frozen chunk state on one data node."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.delta = DeltaStore()
        self.frozen: Optional[FrozenChunkSet] = None
        self.merges = 0
        self.last_merge_us = 0.0
        self.max_lag_us = 0.0

    # -- write path (called from DataNode.commit) --------------------------

    def capture(self, dn, xid: int, op, now_us: float) -> None:
        """Record one committed redo op (``op`` is a ``RedoOp``)."""
        stamp = dn.heap(op.table).stamp_of(op.key)
        self.delta.append(xid, op.op, op.key, op.values, stamp, now_us)

    # -- merge -------------------------------------------------------------

    def merge(self, dn, now_us: float) -> Optional[Tuple[int, int, int]]:
        """Fold committed deltas into a fresh frozen chunk set.

        Returns ``(rows_read, rows_written, entries_applied)`` or ``None``
        when there was nothing to do.  The new chunk set is built aside and
        swapped in atomically at the end: a crash mid-merge (fault
        injection) leaves the old frozen state and the delta intact, so no
        row is ever lost or duplicated and a later merge simply redoes the
        work.
        """
        cutoff = len(self.delta.entries)
        if self.frozen is not None and cutoff == 0:
            return None
        merged_seq = self.delta.next_seq
        snapshot = dn.ltm.local_snapshot()
        entries = self.delta.entries[:cutoff]
        if self.frozen is None:
            # Seed merge: splice a full heap scan into an empty image
            # (table registration, or re-attachment after failover rebuilt
            # the node).  The heap already reflects every committed delta
            # entry.
            heap = dn.heap(self.schema.name)
            finals = {key: (heap.stamp_of(key), values)
                      for key, values in heap.scan(snapshot, dn.ltm.clog)}
            rows_read = len(finals)
        else:
            finals = {entry.key: (entry.stamp, entry.values)
                      for entry in entries}
            rows_read = self.frozen.row_count + cutoff
        for entry in entries:
            self.max_lag_us = max(self.max_lag_us,
                                  now_us - entry.commit_t_us)
        keys, stamps, vectors = splice(self.schema, self.frozen, finals)
        self.frozen = FrozenChunkSet(self.schema, keys, stamps, vectors,
                                     snapshot, merged_seq)
        self.delta.truncate(cutoff)
        self.merges += 1
        self.last_merge_us = now_us
        return rows_read, len(stamps), cutoff

    # -- read path ---------------------------------------------------------

    def compose(self, dn, snapshot, own_xid: int = INVALID_XID):
        """A ColumnStore for this table under ``snapshot``, or ``None``.

        ``None`` means the snapshot cannot be served from frozen + delta
        and the caller must walk the heap; the reason is counted.
        """
        reason = self._unservable_reason(dn, snapshot, own_xid)
        if reason is not None:
            dn._note(f"htap.fallback.{reason}")
            return None
        clog = dn.ltm.clog
        # Last *visible* entry per key wins.  Sound because same-key
        # commits are serialized (first-updater-wins) and GTM-lite's
        # dependency taint hides dependent commits together, so the
        # visible entries of a key always form a prefix of its stream.
        finals = {entry.key: (entry.stamp, entry.values)
                  for entry in self.delta.entries
                  if snapshot.xid_visible(entry.xid, clog, own_xid)}
        if not finals:
            dn._note("htap.scans_frozen")
            return self.frozen.store
        _keys, _stamps, vectors = splice(self.schema, self.frozen, finals)
        # Uncompressed, default chunking: the heap walk's exact shape, so
        # downstream vectorized aggregation sees the same chunk boundaries
        # and stays byte-identical.
        dn._note("htap.scans_composed")
        return ColumnStore.from_vectors(self.schema, vectors, compress=False)

    def _unservable_reason(self, dn, snapshot, own_xid: int) -> Optional[str]:
        if self.frozen is None:
            return "cold"
        if not isinstance(snapshot, Snapshot):
            # Classical central-snapshot mode ships its own snapshot type.
            return "classical"
        if getattr(snapshot, "forced_committed", None):
            # UPGRADE revealed a PREPARED write that no delta entry holds.
            return "upgraded"
        watermark = self.frozen.snapshot
        if snapshot.xmax < watermark.xmax:
            return "stale_snapshot"
        forced_active = getattr(snapshot, "forced_active", None) or frozenset()
        for xid in set(snapshot.active) | set(forced_active):
            if xid < watermark.xmax and xid not in watermark.active:
                # The merge may have folded a commit this reader must not
                # see (DOWNGRADE re-hid it).  Conservative: walk the heap.
                return "hidden_commit"
        if own_xid != INVALID_XID:
            try:
                write_set = dn.ltm.write_set(own_xid)
            except InvalidTransactionState:
                write_set = None
            if write_set is not None and any(
                    table == self.schema.name
                    for table, _key in write_set.frozen()):
                # The reader's own uncommitted writes live only in the heap.
                return "own_writes"
        return None

    # -- introspection -----------------------------------------------------

    def freshness_lag_us(self, now_us: float) -> float:
        """Sim time the oldest committed write has waited for its merge."""
        oldest = self.delta.oldest_commit_us()
        return max(0.0, now_us - oldest) if oldest is not None else 0.0


class HtapNodeState:
    """All HTAP table stores on one data node."""

    def __init__(self) -> None:
        self.tables: Dict[str, HtapTableStore] = {}

    def capture_commit(self, dn, xid: int, redo, now_us: float) -> None:
        """Feed one committed transaction's redo ops into the deltas."""
        for op in redo:
            store = self.tables.get(op.table)
            if store is not None:
                store.capture(dn, xid, op, now_us)
