"""Independent answers from stdlib ``sqlite3`` and the comparison rules.

Rows are compared as multisets: floats match within a relative 1e-9,
because the engine and SQLite add doubles in different orders.  Order is
checked separately, on the ORDER BY keys only, with NULLS LAST, so a
query whose keys tie may return tied rows in any order.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Iterable, List, Optional, Sequence, Tuple

#: ``(output column index, descending)`` per ORDER BY key.
OrderKeys = Sequence[Tuple[int, bool]]


class Oracle:
    """An in-memory SQLite database holding copies of the engine's rows."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")

    def load(self, table: str, columns: Sequence[str],
             rows: Iterable[Sequence[object]]) -> None:
        cols = ", ".join(columns)
        marks = ", ".join("?" for _ in columns)
        self._db.execute(f"create table {table} ({cols})")
        self._db.executemany(
            f"insert into {table} ({cols}) values ({marks})", rows)

    def query(self, sql: str) -> List[tuple]:
        return self._db.execute(sql).fetchall()

    def close(self) -> None:
        self._db.close()


def _same_value(a: object, b: object) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _sort_key(row: Sequence[object]) -> tuple:
    return tuple((0, round(v, 6)) if isinstance(v, float)
                 else (1, "") if v is None
                 else (0, v) if isinstance(v, int)
                 else (2, str(v)) for v in row)


def _precedes(x: object, y: object, desc: bool) -> int:
    """-1: ``x`` sorts first, 1: ``y`` does, 0: tie.  NULLS LAST."""
    if x == y:
        return 0
    if x is None:
        return 1
    if y is None:
        return -1
    if desc:
        return -1 if x > y else 1
    return -1 if x < y else 1


def _ordered(rows: Sequence[Sequence[object]], keys: OrderKeys) -> bool:
    for left, right in zip(rows, rows[1:]):
        for index, desc in keys:
            step = _precedes(left[index], right[index], desc)
            if step < 0:
                break
            if step > 0:
                return False
    return True


def compare(got: Sequence[Sequence[object]],
            expected: Sequence[Sequence[object]],
            order: Optional[OrderKeys] = None) -> Optional[str]:
    """``None`` when ``got`` matches ``expected``, else why not."""
    if len(got) != len(expected):
        return f"{len(got)} rows, expected {len(expected)}"
    for a, b in zip(sorted(got, key=_sort_key),
                    sorted(expected, key=_sort_key)):
        if len(a) != len(b) or not all(map(_same_value, a, b)):
            return f"row {tuple(a)!r} != expected {tuple(b)!r}"
    if order and not _ordered(got, order):
        return "rows out of ORDER BY order"
    return None
