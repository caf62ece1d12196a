"""Small tests of the benchmark's oracle and input generators.

    python3 perfbench/check_oracle.py
    python3 -m pytest perfbench/check_oracle.py

The file name keeps these out of the repository's default test run; they
test the benchmark, not the program.
"""

from __future__ import annotations

import os
import statistics
import sys
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import oracle  # noqa: E402


def _loop_stats(columns, by, measure):
    """The textbook per-group loop the vectorised oracle must match."""
    groups: dict[tuple, list[float]] = {}
    for i in range(len(columns[measure])):
        key = tuple(oracle.plain(columns[a][i]) for a in by)
        groups.setdefault(key, []).append(float(columns[measure][i]))
    out = {}
    for key, xs in groups.items():
        std = statistics.stdev(xs) if len(xs) > 1 else 0.0
        out[key] = (len(xs), sum(xs), sum(xs) / len(xs), std)
    return out


def test_group_stats_matches_loop():
    rng = np.random.default_rng(0)
    cols = {"a": np.array(["x", "y", "z"])[rng.integers(0, 3, 500)],
            "b": rng.integers(0, 4, 500),
            "m": rng.integers(0, 100, 500).astype(float)}
    got = oracle.group_stats(cols, ("a", "b"), "m")
    want = _loop_stats(cols, ("a", "b"), "m")
    oracle.check_view_groups("loop", got, want, rtol=1e-12)
    filtered = oracle.group_stats(cols, ("b",), "m", {"a": "y"})
    assert sum(v[0] for v in filtered.values()) == int((cols["a"] == "y")
                                                      .sum())


def test_two_pass_std_at_large_offset():
    # The case the program's sumsq store gets wrong: |mean| >> std.
    rng = np.random.default_rng(1)
    x = 1e9 + np.round(rng.normal(0.0, 30.0, 1000))
    got = oracle.grouped(np.zeros(1000, dtype=np.int64), 1, x)[0][3]
    exact = [Fraction(v) for v in x]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    assert abs(got - float(var) ** 0.5) <= 1e-9 * float(var) ** 0.5


def test_single_row_groups_have_zero_std():
    stats = oracle.grouped(np.array([0, 1, 1]), 2, np.array([5.0, 1.0, 3.0]))
    assert stats[0] == (1, 5.0, 5.0, 0.0)
    assert stats[1][3] == statistics.stdev([1.0, 3.0])


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except oracle.OracleMismatch:
        return True
    return False


def test_checks_catch_wrong_answers():
    want = {("a",): (2, 3.0, 1.5, 0.7071067811865476)}
    assert _raises(oracle.check_view_groups, "n", {("a",): (3, 3.0, 1.0,
                                                            0.0)}, want)
    assert _raises(oracle.check_view_groups, "std",
                   {("a",): (2, 3.0, 1.5, 0.8)}, want)
    assert _raises(oracle.check_view_groups, "keys", {}, want)
    oracle.check_view_groups("same", dict(want), want)
    good = [{"score": 1.0, "margin_gain": 4.0},
            {"score": 2.0, "margin_gain": 3.0}]
    oracle.check_ranking("good", 5.0, good)
    assert _raises(oracle.check_ranking, "order", 5.0, good[::-1])
    assert _raises(oracle.check_ranking, "margin", 6.0, good)
    oracle.check_first("first", "geo", {"village": "v1"}, "geo",
                       {"village": "v1"})
    assert _raises(oracle.check_first, "other", "time", {"year": 1},
                   "geo", {"village": "v1"})
    assert oracle.penalty("too_low", 3.0) == -3.0
    assert oracle.penalty("should_be", 3.0, 5.0) == 2.0


def test_drought_plants_are_deterministic_and_sized():
    a = inputs.drought_table(40_000, seed=7)
    b = inputs.drought_table(40_000, seed=7)
    assert a.plants == b.plants
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])
    p, cols = a.plants, a.columns
    village = cols["village"] == p.dup_village
    leaf = village & (cols["year"] == p.dup_year)
    assert leaf.sum() >= inputs.DUP_LEAF_COPIES
    assert village.sum() >= inputs.DUP_LEAF_COPIES + inputs.DUP_VILLAGE_COPIES
    drifted = cols[inputs.MEASURE][cols["village"] == p.drift_village]
    assert len(drifted) and drifted.min() >= inputs.DRIFT
    hole = (cols["district"] == p.miss_district) & \
        (cols["year"] == p.miss_year)
    other = (cols["district"] == p.miss_district) & \
        (cols["year"] != p.miss_year)
    per_year = other.sum() / (inputs.N_YEARS - 1)
    assert hole.sum() < 0.5 * per_year
    assert inputs.drought_table(40_000, seed=8).plants != p


def test_ingest_batches_avoid_planted_districts():
    table = inputs.drought_table(40_000, seed=3)
    p = table.plants
    for batch in inputs.ingest_batches(table, 3, 50, seed=3):
        assert len(batch) == 50
        assert not {r[0] for r in batch} & {p.dup_district,
                                            p.drift_district,
                                            p.miss_district}


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
