"""Columnar batch execution: numpy column batches as the executor currency.

The row executor in :mod:`repro.exec.operators` is a classic volcano
pipeline — every operator yields Python tuples.  This module makes column
batches (positionally schema-aligned :class:`~repro.storage.colstore.
ColumnVector` lists) the unit of exchange instead: scans emit whole filtered
chunks, filters and projections evaluate compiled numpy expressions over
them, hash joins build and probe with compiled key expressions, sorts run
stable ``np.lexsort`` passes, and the per-DN fragment path ships
partial-aggregate states as object batches across exchanges.  Rows
materialize only at the client boundary (or wherever a row-only operator
sits above a batched one).  These kernels are the only column path: a
row-mode scan over a column store runs the same scan kernel and bridges
its rows, and a row-mode partial aggregate over a batching child runs the
same accumulation kernel.

Two invariants keep batch execution *replay-identical* to the row path:

* **Row counts** — ``PhysicalOp._count_batches`` adds ``batch.n`` per batch,
  so ``actual_rows`` (and with it every simulated profile time, which is a
  pure function of row counts) matches the row path exactly.  A ``LIMIT``
  stops pulling mid-stream, so the streaming chain directly under it stays
  row-at-a-time down to the first blocking operator (sort, aggregation).
  That operator stays row-mode too — it counts only the rows the LIMIT
  pulls — but it drains its whole input on both paths, so everything below
  it batches again (a row-mode sort over a batching child still sorts with
  the batch kernel).
* **Values** — kernels either reuse the row path's own math (partial
  aggregation states) or perform the same elementwise operation the row
  expression interpreter would (comparisons, arithmetic on the same
  operands), and the row bridge unboxes numpy scalars back to the Python
  values the row path yields.

Memory charging is batch-grain but spill-exact: batch operators reserve
through ``OperatorMemory.grow_rows``, which spills exactly where the row
path's per-entry ``grow`` calls would, and release their reservation only
when the consumer pulls past their last batch — the row path's release
point.

``enable_batches`` is the activation pass: it walks a physical plan, marks
operators whose subtree can batch, and pre-compiles their expressions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.errors import ExecutionError
from repro.optimizer.expr import (
    BoundBinary,
    BoundColumn,
    BoundConst,
    BoundExpr,
    BoundInList,
    BoundIsNull,
    BoundUnary,
)
from repro.storage.colstore import ColumnVector

#: Rows per materialized batch for operators that re-chunk their output
#: (sorts, partial-aggregate state shipping, the row->batch boundary).
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """One column batch: vectors positionally aligned with the op schema."""

    __slots__ = ("columns", "n")

    def __init__(self, columns: List[ColumnVector], n: int):
        self.columns = columns
        self.n = n

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch([ColumnVector(c.data[idx], c.validity[idx])
                      for c in self.columns], int(len(idx)))

    def select(self, mask: np.ndarray) -> "Batch":
        return Batch([ColumnVector(c.data[mask], c.validity[mask])
                      for c in self.columns], int(mask.sum()))


def rows_from_batches(batches: Iterable[Batch]) -> Iterator[tuple]:
    """The batch->row bridge: the only place values unbox.

    NULL lanes materialize as ``None`` and numpy scalars unbox to Python
    values — the bridge output is byte-identical to what the row path
    yields.  Columns unbox in bulk (``ndarray.tolist`` converts at C speed
    and yields the same Python values per element as ``.item()``).
    """
    for batch in batches:
        cols = [_py_values(c) for c in batch.columns]
        if len(cols) == 1:
            for v in cols[0]:
                yield (v,)
        else:
            yield from zip(*cols)


def batches_from_rows(rows: Iterable[tuple], width: int,
                      batch_size: int) -> Iterator[Batch]:
    """Wrap a row stream into object-dtype batches.

    Values are stored as the exact Python objects the row produced (state
    tuples included), so bridging back to rows reproduces them bit for bit.
    """
    buf: List[tuple] = []
    for row in rows:
        buf.append(row)
        if len(buf) >= batch_size:
            yield Batch(_object_columns(buf, width), len(buf))
            buf = []
    if buf:
        yield Batch(_object_columns(buf, width), len(buf))


def _object_columns(rows: List[tuple], width: int) -> List[ColumnVector]:
    cols = []
    for j in range(width):
        data = np.empty(len(rows), dtype=object)
        validity = np.empty(len(rows), dtype=bool)
        for i, row in enumerate(rows):
            value = row[j]
            data[i] = value
            validity[i] = value is not None
        cols.append(ColumnVector(data, validity))
    return cols


def concat_batches(batches: List[Batch], width: int) -> Batch:
    if len(batches) == 1:
        return batches[0]
    columns = [
        ColumnVector(np.concatenate([b.columns[j].data for b in batches]),
                     np.concatenate([b.columns[j].validity for b in batches]))
        for j in range(width)
    ]
    return Batch(columns, sum(b.n for b in batches))


# -- compiled batch expressions -------------------------------------------
#
# ``compile_expr`` turns a bound expression into a ``Batch -> ColumnVector``
# function, or returns None when the expression uses something the batch
# interpreter cannot reproduce exactly (LIKE, CASE, scalar calls, string
# concat, division by a non-constant) — the operator then stays on the row
# path.  NULL handling mirrors the row interpreter's semantics operator for
# operator (including its short-circuit AND, where a NULL left side yields
# NULL regardless of the right side).

BatchFn = Callable[[Batch], ColumnVector]

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
}


def _truth(vec: ColumnVector) -> np.ndarray:
    """Lanes that are valid and truthy (SQL predicate acceptance)."""
    data = vec.data
    if data.dtype != np.bool_:
        data = data.astype(bool)
    return data & vec.validity


def truth_mask(vec: ColumnVector) -> np.ndarray:
    """Filter mask for a predicate result: NULL and false lanes drop."""
    return _truth(vec)


def _const_vector(value: object, n: int) -> ColumnVector:
    if value is None:
        return ColumnVector(np.zeros(n, dtype=np.int64),
                            np.zeros(n, dtype=bool))
    if isinstance(value, bool):
        dtype = np.bool_
    elif isinstance(value, int):
        dtype = np.int64
    elif isinstance(value, float):
        dtype = np.float64
    else:
        dtype = object
    return ColumnVector(np.full(n, value, dtype=dtype),
                        np.ones(n, dtype=bool))


def _lanewise(fn, left: ColumnVector, right: ColumnVector, n: int,
              out_dtype=None) -> ColumnVector:
    """Apply ``fn`` on lanes where both sides are valid.

    Invalid lanes are never handed to ``fn`` (object columns may carry
    ``None`` there, which would blow up ``<`` or ``+``); their output lanes
    hold a dtype sentinel and validity False — NULL in, NULL out.
    """
    both = left.validity & right.validity
    if both.all():
        try:
            data = fn(left.data, right.data)
        except TypeError:
            raise ExecutionError("cannot compare incompatible batch lanes"
                                 ) from None
        data = np.asarray(data)
        return ColumnVector(data, both)
    if not both.any():
        dtype = out_dtype if out_dtype is not None else np.int64
        return ColumnVector(np.zeros(n, dtype=dtype), both)
    try:
        sub = np.asarray(fn(left.data[both], right.data[both]))
    except TypeError:
        raise ExecutionError("cannot compare incompatible batch lanes"
                             ) from None
    data = np.zeros(n, dtype=sub.dtype if out_dtype is None else out_dtype)
    data[both] = sub
    return ColumnVector(data, both)


def compile_expr(expr: BoundExpr) -> Optional[BatchFn]:
    if isinstance(expr, BoundColumn):
        index = expr.index

        return lambda batch: batch.columns[index]
    if isinstance(expr, BoundConst):
        value = expr.value

        return lambda batch: _const_vector(value, batch.n)
    if isinstance(expr, BoundIsNull):
        fn = compile_expr(expr.operand)
        if fn is None:
            return None
        negated = expr.negated

        def is_null(batch: Batch) -> ColumnVector:
            vec = fn(batch)
            data = vec.validity.copy() if negated else ~vec.validity
            return ColumnVector(data, np.ones(batch.n, dtype=bool))

        return is_null
    if isinstance(expr, BoundUnary):
        fn = compile_expr(expr.operand)
        if fn is None:
            return None
        if expr.op == "not":
            def negate(batch: Batch) -> ColumnVector:
                vec = fn(batch)
                return ColumnVector(~_truth(vec), vec.validity)

            return negate
        if expr.op == "-":
            def minus(batch: Batch) -> ColumnVector:
                vec = fn(batch)
                if vec.data.dtype == object:
                    data = np.array(
                        [-v if valid else 0 for v, valid
                         in zip(vec.data, vec.validity)], dtype=object)
                else:
                    data = -vec.data
                return ColumnVector(data, vec.validity)

            return minus
        return None
    if isinstance(expr, BoundInList):
        return _compile_in_list(expr)
    if isinstance(expr, BoundBinary):
        return _compile_binary(expr)
    return None


def _compile_in_list(expr: BoundInList) -> Optional[BatchFn]:
    needle_fn = compile_expr(expr.needle)
    item_fns = [compile_expr(item) for item in expr.items]
    if needle_fn is None or any(fn is None for fn in item_fns):
        return None
    negated = expr.negated

    def in_list(batch: Batch) -> ColumnVector:
        needle = needle_fn(batch)
        found = np.zeros(batch.n, dtype=bool)
        for fn in item_fns:
            item = fn(batch)
            # Row semantics: a NULL item simply never matches (== is False).
            eq = _lanewise(lambda a, b: a == b, needle, item, batch.n)
            found |= eq.data.astype(bool) & eq.validity
        return ColumnVector(~found if negated else found, needle.validity)

    return in_list


def _compile_binary(expr: BoundBinary) -> Optional[BatchFn]:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    if left_fn is None or right_fn is None:
        return None
    if op == "and":
        def and_(batch: Batch) -> ColumnVector:
            left, right = left_fn(batch), right_fn(batch)
            lt, rt = _truth(left), _truth(right)
            # Row interpreter: NULL left short-circuits to NULL; a false
            # left yields False; otherwise the right side decides.
            validity = left.validity & (~lt | right.validity)
            return ColumnVector(lt & rt, validity)

        return and_
    if op == "or":
        def or_(batch: Batch) -> ColumnVector:
            left, right = left_fn(batch), right_fn(batch)
            lt, rt = _truth(left), _truth(right)
            data = lt | rt
            validity = data | (left.validity & right.validity)
            return ColumnVector(data, validity)

        return or_
    if op in _CMP:
        cmp = _CMP[op]

        def compare(batch: Batch) -> ColumnVector:
            vec = _lanewise(cmp, left_fn(batch), right_fn(batch), batch.n,
                            out_dtype=np.bool_)
            if vec.data.dtype != np.bool_:
                vec = ColumnVector(vec.data.astype(bool), vec.validity)
            return vec

        return compare
    if op == "/":
        # Only a non-zero constant divisor is compiled: the row interpreter
        # raises per offending row, a semantics a whole-batch kernel cannot
        # reproduce for arbitrary divisors.
        if not isinstance(expr.right, BoundConst) or expr.right.value in (None, 0):
            return None

        def divide(batch: Batch) -> ColumnVector:
            return _lanewise(lambda a, b: a / b, left_fn(batch),
                             right_fn(batch), batch.n, out_dtype=np.float64)

        return divide
    if op in _ARITH:
        arith = _ARITH[op]

        def arithmetic(batch: Batch) -> ColumnVector:
            return _lanewise(arith, left_fn(batch), right_fn(batch), batch.n)

        return arithmetic
    return None


# -- group coding ---------------------------------------------------------

def _py_values(vec: ColumnVector) -> list:
    """Lane values as the row path sees them: Python objects, NULL as None."""
    values = vec.data.tolist()
    if not vec.validity.all():
        values = [v if ok else None
                  for v, ok in zip(values, vec.validity.tolist())]
    return values


def group_codes(vecs: List[ColumnVector],
                n: int) -> Tuple[List[tuple], np.ndarray]:
    """Dense codes for the key tuples of ``n`` lanes, numbered first-seen.

    Returns ``(keys, codes)``: lane ``i`` belongs to group ``codes[i]``,
    whose key tuple (NULL lanes as ``None``) is ``keys[codes[i]]``.  Codes
    count up in the order of each key's first lane, which is the order the
    row path's dict creates groups in.  One typed column codes through
    ``np.unique``; object columns (strings, row-sourced join sides) and
    composite keys code through a dict over their Python values — the row
    path's own equality and hashing, never a numpy ordering of Python
    objects.
    """
    if len(vecs) == 1 and vecs[0].data.dtype != object:
        return _unique_codes(vecs[0], n)
    index: dict = {}
    codes = [index.setdefault(key, len(index))
             for key in zip(*[_py_values(v) for v in vecs])]
    return list(index), np.asarray(codes, dtype=np.int64)


def _unique_codes(vec: ColumnVector,
                  n: int) -> Tuple[List[tuple], np.ndarray]:
    validity = vec.validity
    if validity.all():
        uniq, codes = np.unique(vec.data, return_inverse=True)
        keys = [(v,) for v in uniq.tolist()]
    elif not validity.any():
        return [(None,)], np.zeros(n, dtype=np.int64)
    else:
        valid_idx = np.flatnonzero(validity)
        uniq, inverse = np.unique(vec.data[valid_idx], return_inverse=True)
        keys = [(v,) for v in uniq.tolist()] + [(None,)]
        codes = np.full(n, len(uniq), dtype=np.int64)
        codes[valid_idx] = inverse
    # renumber by first lane so codes count up in first-seen order
    first = np.full(len(keys), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n))
    rank = np.argsort(first, kind="stable")
    remap = np.empty(len(keys), dtype=np.int64)
    remap[rank] = np.arange(len(keys))
    return [keys[c] for c in rank.tolist()], remap[codes]


def _members(codes: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Lane indices of each code, in ascending lane order."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(n_groups + 1)).tolist()
    return [order[bounds[c]:bounds[c + 1]] for c in range(n_groups)]


# -- partial aggregation --------------------------------------------------

def partial_states_from_batches(
        agg, mem=None, entry_bytes: int = 0) -> Optional[Iterator[tuple]]:
    """Batch-native ``PPartialAgg``: group and accumulate over column lanes.

    The row loop does per-row Python accumulation, and this kernel
    reproduces that math bit for bit:

    * sums accumulate with ``sum(values, start)`` — the same left-to-right
      float additions, in the same row order, as ``cell[1] += value``;
    * groups are created in first-seen row order (the NULL group
      included), so state rows emit in exactly the row path's order;
    * counts skip NULL arguments, min/max compare the same values.

    New groups are charged to ``mem`` per batch.  Returns ``None`` when the
    child does not batch or an expression or aggregate is out of scope
    (DISTINCT, uncompilable arguments) — the caller falls back to the
    row-path loop.
    """
    if not agg.child.batch_mode:
        return None
    group_fns = [compile_expr(g) for g in agg.group_exprs]
    if any(fn is None for fn in group_fns):
        return None
    arg_fns: List[Optional[BatchFn]] = []      # None: COUNT(*)
    for spec in agg.aggs:
        if spec.distinct or spec.func not in ("count", "sum", "avg",
                                              "min", "max"):
            return None
        if spec.arg is None:
            arg_fns.append(None)
            continue
        fn = compile_expr(spec.arg)
        if fn is None:
            return None
        arg_fns.append(fn)
    return _partial_states_iter(agg, group_fns, arg_fns, mem, entry_bytes)


def _partial_states_iter(agg, group_fns, arg_fns, mem,
                         entry_bytes: int) -> Iterator[tuple]:
    specs = agg.aggs
    states: dict = {}
    for batch in agg.child.batches():
        if not batch.n:
            continue
        arg_vecs = [None if fn is None else fn(batch) for fn in arg_fns]
        if group_fns:
            keys, codes = group_codes([fn(batch) for fn in group_fns],
                                      batch.n)
            members = _members(codes, len(keys))
        else:
            keys, members = [()], [np.arange(batch.n)]
        created = len(states)
        for key, member in zip(keys, members):
            cells = states.get(key)
            if cells is None:
                cells = states[key] = [[0, 0.0, None, None] for _ in specs]
            _feed(specs, cells, member, arg_vecs)
        if mem is not None:
            mem.grow_rows(len(states) - created, entry_bytes)
    if not states and not group_fns:
        yield tuple((0, 0.0, None, None) for _ in specs)
        return
    for key, cells in states.items():
        yield key + tuple(tuple(cell) for cell in cells)


def _feed(specs, cells: List[list], member: np.ndarray,
          arg_vecs: List[Optional[ColumnVector]]) -> None:
    for spec, cell, vec in zip(specs, cells, arg_vecs):
        if vec is None:                            # COUNT(*)
            cell[0] += len(member)
            continue
        mvalid = vec.validity[member]
        sub = member if mvalid.all() else member[mvalid]
        if not len(sub):
            continue
        cell[0] += len(sub)
        func = spec.func
        if func == "count":
            continue
        values = vec.data[sub].tolist()
        if func in ("sum", "avg"):
            # left-to-right adds from the running total: identical float
            # rounding to the row path's per-row `+=`
            cell[1] = sum(values, cell[1])
        elif func == "min":
            low = min(values)
            if cell[2] is None or low < cell[2]:
                cell[2] = low
        elif func == "max":
            high = max(values)
            if cell[3] is None or high > cell[3]:
                cell[3] = high


# -- sort kernel ----------------------------------------------------------

def _sort_codes(data: np.ndarray, validity: np.ndarray) -> np.ndarray:
    """Dense ordinal codes for one sort key (NULL lanes neutralized).

    Invalid lanes get the first valid lane's value before coding so object
    columns never compare ``None`` against real values; the null flag pass
    separates them anyway, exactly like the row path's ``(is_null, value)``
    composite key.
    """
    if validity.all():
        return np.unique(data, return_inverse=True)[1].astype(np.int64)
    if not validity.any():
        return np.zeros(len(data), dtype=np.int64)
    filled = data.copy()
    filled[~validity] = data[np.flatnonzero(validity)[0]]
    return np.unique(filled, return_inverse=True)[1].astype(np.int64)


def sort_indices(keys: List[Tuple[ColumnVector, bool]], n: int) -> np.ndarray:
    """Row order for a stable multi-key sort, matching the row path.

    Applies keys last-to-first with one stable ``lexsort`` per key —
    ascending sorts NULLs last, descending first, ties keep input order —
    which is exactly the successive stable ``list.sort`` passes the row
    executor runs.
    """
    order = np.arange(n)
    for vec, descending in reversed(keys):
        data = vec.data[order]
        validity = vec.validity[order]
        codes = _sort_codes(data, validity)
        null_flag = (~validity).astype(np.int64)
        if descending:
            perm = np.lexsort((-codes, 1 - null_flag))
        else:
            perm = np.lexsort((codes, null_flag))
        order = order[perm]
    return order


def sorted_batches(sort_op, collected: List[Batch]) -> Iterator[Batch]:
    """Sort buffered batches and re-emit them in ``batch_size`` slices."""
    if not collected:
        return
    width = len(sort_op.schema)
    big = concat_batches(collected, width)
    keys = [(fn(big), descending)
            for fn, descending in sort_op._batch_keys]
    order = sort_indices(keys, big.n)
    step = max(1, int(sort_op.batch_size))
    for start in range(0, big.n, step):
        yield big.take(order[start:start + step])


# -- hash join ------------------------------------------------------------

def _input_batches(op, batch_size: int) -> Iterator[Batch]:
    """``op``'s counted batches, or its row stream wrapped into batches."""
    if op.batch_mode:
        return op.batches()
    return batches_from_rows(op.execute(), len(op.schema), batch_size)


def _all_valid(vecs: List[ColumnVector], n: int) -> np.ndarray:
    valid = np.ones(n, dtype=bool)
    for vec in vecs:
        valid &= vec.validity
    return valid


def hash_join_batches(join, mem, entry_bytes: int) -> Iterator[Batch]:
    """Inner equi-join over column batches, in the row path's exact order.

    The build (right) side is buffered batch by batch — each batch's rows
    with non-NULL keys are charged as they arrive, like the row path's
    per-row build — then indexed once: one index array per key, in
    build-insertion order.  Each probe (left) batch looks its lanes' keys
    up and emits ``left.take(li) ++ right.take(ri)`` in lane-major,
    build-insertion order, which is the row path's probe-loop order.  NULL
    keys never match on either side.  A side that cannot batch is wrapped
    with ``batches_from_rows``.
    """
    build_parts: List[Batch] = []
    key_parts: List[Batch] = []
    for batch in _input_batches(join.right, join.batch_size):
        vecs = [fn(batch) for fn in join._batch_right_keys]
        if mem is not None:
            mem.grow_rows(int(_all_valid(vecs, batch.n).sum()), entry_bytes)
        build_parts.append(batch)
        key_parts.append(Batch(vecs, batch.n))
    table: dict = {}
    if build_parts:
        build = concat_batches(build_parts, len(join.right.schema))
        keys = concat_batches(key_parts, len(key_parts[0].columns))
        table = _build_index(keys.columns, build.n)
    left_fns = join._batch_left_keys
    for batch in _input_batches(join.left, join.batch_size):
        if not table:
            continue                    # still drain the probe side
        lanes: List[int] = []
        hits: List[np.ndarray] = []
        for i, key in enumerate(zip(*[_py_values(fn(batch))
                                      for fn in left_fns])):
            match = table.get(key)
            if match is not None:
                lanes.append(i)
                hits.append(match)
        if not hits:
            continue
        li = np.repeat(np.asarray(lanes, dtype=np.int64),
                       [len(h) for h in hits])
        ri = np.concatenate(hits)
        yield Batch(batch.take(li).columns + build.take(ri).columns, len(li))


def _build_index(key_vecs: List[ColumnVector], n: int) -> dict:
    """Key tuple -> build row indices, skipping rows with a NULL key."""
    rows = np.flatnonzero(_all_valid(key_vecs, n))
    if len(rows) < n:
        key_vecs = [ColumnVector(v.data[rows], v.validity[rows])
                    for v in key_vecs]
    keys, codes = group_codes(key_vecs, len(rows))
    return {key: rows[member]
            for key, member in zip(keys, _members(codes, len(keys)))}


# -- activation pass ------------------------------------------------------

def enable_batches(root, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
    """Mark every operator whose subtree can run in batch mode.

    Top-down: a ``LIMIT`` stops pulling mid-stream, so the streaming chain
    under it stays row-mode (a batched operator there would count rows the
    row path never produced) down to and including the first blocking
    operator.  A sort or aggregation drains its whole input on both paths,
    so its children batch again.  Every other operator fully drains its
    children, which makes batch->row bridges count-exact.  Compiled batch
    expressions are cached on the operators, so a plan activated once (and
    then held in the plan cache) never recompiles.
    """
    from repro.exec import operators as ops

    _activate(root, batch_size, True, ops)


def _activate(op, batch_size: int, allow: bool, ops) -> None:
    if isinstance(op, ops.PLimit):
        below = False
    elif isinstance(op, _blocking(ops)):
        below = True
    else:
        below = allow
    for child in op.children():
        _activate(child, batch_size, below, ops)
    op.batch_size = batch_size
    # compiled even where batching is not allowed: a row-mode sort under a
    # LIMIT still sorts a batching child with the batch kernel
    can = _can_batch(op, ops)
    op.batch_mode = allow and can


def _blocking(ops) -> tuple:
    """Operators that drain their whole input before emitting a row."""
    return (ops.PSort, ops.PPartialAgg, ops.PFinalAgg, ops.PHashAggregate)


def _holds_memory(op, ops) -> bool:
    """Whether anything in ``op``'s subtree reserves query memory."""
    return any(isinstance(o, _blocking(ops) + (ops.PHashJoin,))
               for o in ops.walk_physical(op))


def _can_batch(op, ops) -> bool:
    if isinstance(op, ops.PScan):
        if op.vector_store is None:
            return False
        if op.vector_preds is not None:
            return True
        if op.predicate is None:
            return False
        pred_fn = compile_expr(op.predicate)
        if pred_fn is None:
            return False
        op._batch_pred = pred_fn
        return True
    if isinstance(op, ops.PFilter):
        if not op.child.batch_mode:
            return False
        pred_fn = compile_expr(op.predicate)
        if pred_fn is None:
            return False
        op._batch_pred = pred_fn
        return True
    if isinstance(op, ops.PProject):
        if not op.child.batch_mode:
            return False
        fns = [compile_expr(e) for e in op.exprs]
        if any(fn is None for fn in fns):
            return False
        op._batch_exprs = fns
        return True
    if isinstance(op, ops.PSort):
        op._batch_keys = None
        if not op.child.batch_mode:
            return False
        keys = [(compile_expr(e), d) for e, d in op.keys]
        if any(fn is None for fn, _ in keys):
            return False
        op._batch_keys = keys
        return True
    if isinstance(op, ops.PHashJoin):
        # Inner equi-joins without residuals: the output order is
        # lane-major/build-order either way.  Outer joins and residuals
        # interleave pad rows mid-stream and stay on the row path.  A side
        # that cannot batch is wrapped into batches, which reads ahead of
        # the join's consumer; nothing under it may hold memory, or its
        # release would land before the consumer's charges for the last
        # rows instead of after them.
        if op.kind != "inner" or op.residual is not None:
            return False
        sides = (op.left, op.right)
        if not any(side.batch_mode for side in sides):
            return False
        if any(not side.batch_mode and _holds_memory(side, ops)
               for side in sides):
            return False
        left = [compile_expr(k) for k in op.left_keys]
        right = [compile_expr(k) for k in op.right_keys]
        if any(fn is None for fn in left + right):
            return False
        op._batch_left_keys, op._batch_right_keys = left, right
        return True
    if isinstance(op, ops.PPartialAgg):
        # Reuses its own batch/row aggregation math and ships the state
        # rows as object batches, so exchange serialization is batched.
        return True
    if isinstance(op, (ops.PFragment,)):
        return op.child.batch_mode
    if isinstance(op, (ops.PExchange, ops.PUnionAll)):
        return all(child.batch_mode for child in op.children())
    return False
