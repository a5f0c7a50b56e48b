"""Plan fragments: the per-data-node pieces of a distributed plan.

FI-MPPDB cuts a physical plan at exchange boundaries (Sec. II, Fig. 1):
everything below an exchange runs on the data nodes against local storage,
everything above it on the coordinator.  This module holds the pieces that
make the cut explicit:

* :class:`Locus` — where a distributed subplan's rows live (the planner's
  distribution property, Greenplum would say "flow");
* :class:`ScanBinding` — what the engine hands the planner for one
  ``(table, data node)`` scan target: a row source, and for column-oriented
  tables a :class:`~repro.storage.colstore.ColumnStore` the vectorized
  kernels can chew through;
* predicate compilation from bound expression trees to the
  :data:`~repro.exec.vectorized.PredicateSpec` form the kernels accept;
* the vectorized fast paths used by ``PScan`` and ``PPartialAgg`` when a
  fragment lands on a column-oriented shard.

The operator classes themselves (``PFragment``, ``PExchange``,
``PPartialAgg``/``PFinalAgg``) live in :mod:`repro.exec.operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.vectorized import (PredicateSpec, group_bounds, scan_filter,
                                   selection_mask)
from repro.optimizer.expr import BoundBinary, BoundColumn, BoundConst, conjuncts
from repro.storage.types import DataType


# -- distribution property ------------------------------------------------

@dataclass(frozen=True)
class Locus:
    """Where a distributed subplan's output rows live.

    * ``singleton`` — one stream on the coordinator (already gathered);
    * ``replicated`` — a full copy on every data node, so any one node
      (or the coordinator-side gather-all source) can serve it;
    * ``hash`` — partitioned across data nodes by the cluster's versioned
      shard map (value → hash slot → owning DN;
      :mod:`repro.cluster.shardmap`).  ``key`` is the canonical upper-cased
      text of the partitioning column *in the current output schema*
      (``None`` when partitioned but on no surviving column), and
      ``key_type`` its data type — both feed co-location checks.  Two hash
      loci are co-located exactly when their keys share the same *slot
      assignment*: the slot function is type-sensitive (ints slot by
      modulo, everything else by repr-hash), and every slot has one owner
      in the map, so equal keys of equal type always land on the same DN —
      even mid-rebalance, because a slot's owner flips atomically for all
      tables at once.
    """

    kind: str                          # 'singleton' | 'replicated' | 'hash'
    key: Optional[str] = None
    key_type: Optional[DataType] = None

    @property
    def is_partitioned(self) -> bool:
        return self.kind == "hash"


SINGLETON = Locus("singleton")
REPLICATED = Locus("replicated")

#: A builder produces a fresh operator subtree for one execution site:
#: ``build(dn_index)`` for data node ``dn_index``, ``build(None)`` for the
#: gather-all (coordinator-side) instantiation used by broadcasts and by
#: plans that never fragment.
FragmentBuilder = Callable[[Optional[int]], object]


# -- engine -> planner scan contract --------------------------------------

@dataclass
class ScanBinding:
    """One scan target, as supplied by the engine to the planner.

    ``rows`` yields tuples in table-column order.  ``column_store`` is
    present for column-oriented tables scanned on a specific data node: it
    builds that shard's :class:`~repro.storage.colstore.ColumnStore`
    snapshot on demand.  ``table_schema`` carries nullability and type
    metadata the vectorized fast paths need.
    """

    rows: Callable[[], Iterable[tuple]]
    column_store: Optional[Callable[[], object]] = None
    table_schema: Optional[object] = None


# -- predicate compilation ------------------------------------------------

_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_predicates(predicate, schema) -> Optional[List[PredicateSpec]]:
    """Compile a bound predicate to vector specs, or ``None`` if it uses
    anything beyond ANDed ``column <op> constant`` comparisons."""
    if predicate is None:
        return []
    specs: List[PredicateSpec] = []
    for factor in conjuncts(predicate):
        if not isinstance(factor, BoundBinary):
            return None
        op, left, right = factor.op, factor.left, factor.right
        if isinstance(left, BoundConst) and isinstance(right, BoundColumn):
            left, right, op = right, left, _MIRROR.get(op)
        if op not in _MIRROR:
            return None
        if not (isinstance(left, BoundColumn) and isinstance(right, BoundConst)):
            return None
        if right.value is None or not (0 <= left.index < len(schema)):
            return None
        specs.append((schema[left.index].name, op, right.value))
    return specs


# -- vectorized fast paths ------------------------------------------------

def _unbox(value):
    return value.item() if hasattr(value, "item") else value


def vector_scan_rows(scan) -> Iterator[tuple]:
    """Run a ``PScan`` through the vector kernels, yielding row tuples.

    Uses :func:`selection_mask` directly (rather than ``scan_filter``) so
    validity masks survive and NULLs materialize as ``None``, exactly like
    the row-at-a-time path.
    """
    store = scan.vector_store()
    names = [c.name for c in scan.schema]
    preds = scan.vector_preds
    needed = list(dict.fromkeys(names + [p[0] for p in preds]))
    for chunk in store.scan_chunks(needed):
        mask = selection_mask(chunk, preds)
        if not mask.any():
            continue
        cols = [(chunk[name].data[mask], chunk[name].validity[mask])
                for name in names]
        for i in range(int(mask.sum())):
            yield tuple(
                _unbox(data[i]) if valid[i] else None for data, valid in cols
            )


def vector_partial_states(agg, mem=None,
                          entry_bytes: int = 0) -> Optional[Iterator[tuple]]:
    """Vectorized ``PPartialAgg`` over a column-oriented shard scan.

    Memory-governed queries charge each new group's state to ``mem``
    (``agg``'s tracker, which spills on the DN the fragment runs on),
    exactly like the row-at-a-time path; the caller releases it.
    Applicable when the child is a vector-capable scan, grouping is on at
    most one plain column, and every referenced column is non-nullable (the
    ``scan_filter`` kernel drops validity masks, so NULL-bearing columns
    fall back to the row path).  Returns ``None`` when not applicable.
    """
    scan = agg.child
    store_fn = getattr(scan, "vector_store", None)
    preds = getattr(scan, "vector_preds", None)
    tschema = getattr(scan, "table_schema", None)
    if store_fn is None or preds is None or tschema is None:
        return None
    schema = scan.schema
    group_names: List[str] = []
    for g in agg.group_exprs:
        if not isinstance(g, BoundColumn) or not (0 <= g.index < len(schema)):
            return None
        group_names.append(schema[g.index].name)
    if len(group_names) > 1:
        return None
    agg_names: List[Optional[str]] = []
    for spec in agg.aggs:
        if spec.distinct or spec.func not in ("count", "sum", "avg", "min", "max"):
            return None
        if spec.arg is None:
            agg_names.append(None)
            continue
        arg = spec.arg
        if not isinstance(arg, BoundColumn) or not (0 <= arg.index < len(schema)):
            return None
        agg_names.append(schema[arg.index].name)
    touched = (list(zip(agg_names, agg.aggs))
               + [(n, None) for n in group_names]
               + [(p[0], None) for p in preds])
    for name, spec in touched:
        if name is None:
            continue
        col = tschema.column(name)
        if col.nullable and name != tschema.primary_key:
            return None
        if spec is not None and spec.func != "count" and not col.data_type.is_numeric:
            return None
    return _vector_partial_iter(scan, store_fn(), group_names, agg_names,
                                agg.aggs, preds, mem, entry_bytes)


def _vector_partial_iter(scan, store, group_names, agg_names, specs,
                         preds, mem, entry_bytes: int) -> Iterator[tuple]:
    import numpy as np

    needed = list(dict.fromkeys(
        group_names + [n for n in agg_names if n is not None]))
    if not needed:
        needed = [scan.table_schema.primary_key]   # COUNT(*)-only: row counts
    states: Dict[tuple, List[list]] = {}
    order: List[tuple] = []

    def cells_for(key: tuple) -> List[list]:
        cells = states.get(key)
        if cells is None:
            cells = states[key] = [[0, 0.0, None, None] for _ in specs]
            order.append(key)
            if mem is not None:
                mem.grow(entry_bytes)
        return cells

    def update(cells: List[list], count: int, values: Dict[str, object]) -> None:
        for cell, name, spec in zip(cells, agg_names, specs):
            if name is None:                       # COUNT(*)
                cell[0] += count
                continue
            vals = values[name]
            cell[0] += int(len(vals))
            if spec.func in ("sum", "avg"):
                cell[1] += float(np.sum(vals))
            elif spec.func == "min":
                low = _unbox(vals.min())
                if cell[2] is None or low < cell[2]:
                    cell[2] = low
            elif spec.func == "max":
                high = _unbox(vals.max())
                if cell[3] is None or high > cell[3]:
                    cell[3] = high

    rows_in = 0
    for batch in scan_filter(store, needed, preds):
        n = int(len(batch[needed[0]]))
        rows_in += n
        if group_names:
            gvals = batch[group_names[0]]
            uniq, order_idx, bounds = group_bounds(gvals)
            for i, gv in enumerate(uniq):
                member = order_idx[bounds[i]:bounds[i + 1]]
                update(cells_for((_unbox(gv),)), int(len(member)),
                       {name: batch[name][member] for name in needed})
        else:
            update(cells_for(()), n, batch)
    # The fast path bypasses the scan's own execute(); account its rows
    # so profiling and learning feedback still see the fragment's scan
    # volume.
    scan.actual_rows += rows_in
    if not order and not group_names:
        cells_for(())                           # global agg over zero rows
    for key in order:
        yield key + tuple(tuple(cell) for cell in states[key])
