"""Tests for the benchmark's answer comparison against sqlite3."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.oracle import Oracle, compare  # noqa: E402


def test_rows_match_as_a_multiset_with_float_tolerance():
    got = [("b", 2, 0.1 + 0.2), ("a", 1, 1.0)]
    expected = [("a", 1, 1.0), ("b", 2, 0.3)]
    assert compare(got, expected) is None
    assert compare(got, expected[:1]) == "2 rows, expected 1"
    assert "expected" in compare([("a", 1, 1.5)], [("a", 1, 1.0)])


def test_order_is_checked_on_the_order_by_keys_only():
    desc_then_asc = ((1, True), (0, False))
    assert compare([(2, 9.0), (1, 5.0), (3, 5.0)],
                   [(1, 5.0), (2, 9.0), (3, 5.0)], desc_then_asc) is None
    assert compare([(1, 5.0), (2, 9.0)], [(1, 5.0), (2, 9.0)],
                   desc_then_asc) == "rows out of ORDER BY order"
    # Ties on every key may come back in any order.
    assert compare([("x", 1), ("y", 1)], [("y", 1), ("x", 1)],
                   ((1, False),)) is None


def test_nulls_sort_last_in_both_directions():
    for desc in (False, True):
        rows = [(1,), (None,)]
        assert compare(rows, rows, ((0, desc),)) is None
        assert compare(rows[::-1], rows, ((0, desc),)) is not None


def test_oracle_answers_from_loaded_rows():
    oracle = Oracle()
    try:
        oracle.load("t", ("k", "v"), [(1, "a"), (2, "b"), (3, "a")])
        assert oracle.query(
            "select v, count(*) from t group by v order by v") == [
                ("a", 2), ("b", 1)]
    finally:
        oracle.close()
