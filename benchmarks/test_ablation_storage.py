"""Ablation — hybrid row-column storage and compression.

FI-MPPDB "supports both row and columnar storage formats" with "data
compression" and a "vectorized execution engine".  This ablation measures,
on a scan-heavy reporting aggregate:

* wall-clock speedup of vectorized column scans over row-at-a-time
  execution (the vectorization claim),
* compression ratio of the lightweight codecs on realistic columns
  (the compression claim), and that compression does not change results.
"""

import time

import numpy as np
import pytest

from repro.common.rng import ZipfGenerator, make_rng
from repro.exec.fragments import scan_filter_vectors
from repro.storage.colstore import ColumnStore
from repro.storage.table import Column, TableSchema
from repro.storage.types import DataType

ROWS = 60_000


def build_stores():
    schema = TableSchema(
        "events",
        [Column("id", DataType.INT), Column("ts", DataType.TIMESTAMP),
         Column("region", DataType.TEXT), Column("status", DataType.TEXT),
         Column("amount", DataType.DOUBLE)],
        "id",
    )
    rng = make_rng(41)
    zipf = ZipfGenerator(make_rng(42), n=6, theta=1.1)
    regions = ["north", "south", "east", "west", "apac", "emea"]
    rows = []
    for i in range(ROWS):
        rows.append({
            "id": i,
            "ts": 1_600_000_000_000 + i * 1000 + rng.randint(0, 99),
            "region": regions[zipf.next()],
            "status": "ok" if rng.random() < 0.97 else "error",
            "amount": round(rng.uniform(0, 500), 2),
        })
    compressed = ColumnStore(schema, compress=True)
    compressed.append_rows(rows)
    compressed.flush()
    plain = ColumnStore(schema, compress=False)
    plain.append_rows(rows)
    plain.flush()
    return compressed, plain, rows


PREDICATES = [("region", "=", "north"), ("amount", ">=", 100.0)]


def vector_sum(store, column, predicates):
    """SUM(column) over the column store's filtered numpy batches."""
    count, total = 0, 0.0
    for batch in scan_filter_vectors(store, [column], predicates):
        vec = batch[column]
        values = vec.data[vec.validity]
        count += len(values)
        total += float(np.sum(values))
    return total if count else None


def row_sum(rows, column, predicates):
    """Row-at-a-time reference: each row dict runs through the predicates
    one comparison at a time (a NULL operand filters the row), and non-NULL
    values are summed."""
    buffer = []
    for row in rows:
        keep = True
        for pred_col, op, literal in predicates:
            value = row.get(pred_col)
            if value is None:
                keep = False
                break
            if op == "=":
                keep = value == literal
            elif op == "<>":
                keep = value != literal
            elif op == "<":
                keep = value < literal
            elif op == "<=":
                keep = value <= literal
            elif op == ">":
                keep = value > literal
            elif op == ">=":
                keep = value >= literal
            else:
                raise ValueError(f"unsupported op {op!r}")
            if not keep:
                break
        if keep and row.get(column) is not None:
            buffer.append(row[column])
    if not buffer:
        return None
    return float(np.sum(np.asarray(buffer, dtype=np.float64)))


def run_ablation():
    compressed, plain, rows = build_stores()

    t0 = time.perf_counter()
    vector_result = vector_sum(plain, "amount", PREDICATES)
    vector_s = time.perf_counter() - t0

    # The row engine reads through the same storage (scan_rows decodes and
    # materializes row dicts, like a row-store executor pipeline would).
    t0 = time.perf_counter()
    row_result = row_sum(plain.scan_rows(), "amount", PREDICATES)
    row_s = time.perf_counter() - t0

    compressed_result = vector_sum(compressed, "amount", PREDICATES)

    return {
        "vector_s": vector_s,
        "row_s": row_s,
        "speedup": row_s / vector_s,
        "vector_result": vector_result,
        "row_result": row_result,
        "compressed_result": compressed_result,
        "compressed_units": compressed.compressed_footprint(),
        "plain_units": plain.compressed_footprint(),
    }


def render(r):
    lines = [
        f"rows scanned:            {ROWS}",
        f"row-at-a-time agg:       {r['row_s'] * 1000:8.1f} ms",
        f"vectorized agg:          {r['vector_s'] * 1000:8.1f} ms",
        f"vectorization speedup:   {r['speedup']:8.1f}x",
        f"plain footprint:         {r['plain_units']:8d} units",
        f"compressed footprint:    {r['compressed_units']:8d} units",
        f"compression ratio:       {r['plain_units'] / r['compressed_units']:8.1f}x",
    ]
    return "\n".join(lines)


def test_ablation_storage(benchmark, artifact):
    result = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    artifact("ablation_storage", render(result))
    assert result["vector_result"] == pytest.approx(result["row_result"])
    assert result["compressed_result"] == pytest.approx(result["row_result"])
    assert result["speedup"] > 3.0, "vectorized scans must clearly win"
    ratio = result["plain_units"] / result["compressed_units"]
    assert ratio > 1.5, f"compression ratio only {ratio:.2f}"
