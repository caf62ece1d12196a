"""An oracle computed outside the program: NumPy over the generated rows.

Group statistics use the two-pass formula (mean first, then the sum of
squared deviations), not the running ``(count, sum, sumsq)`` store the
program keeps, so a precision fault in that store shows up as a
mismatch. Every check raises :class:`OracleMismatch` with a message that
names the operation and the group.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


class OracleMismatch(AssertionError):
    """The program's answer disagrees with the oracle."""


def plain(value):
    """A NumPy scalar as the matching Python scalar."""
    return value.item() if isinstance(value, np.generic) else value


def key_of(values) -> tuple:
    return tuple(plain(v) for v in values)


def group_stats(columns: Mapping[str, np.ndarray], by: Sequence[str],
                measure: str, filters: Mapping | None = None
                ) -> dict[tuple, tuple[int, float, float, float]]:
    """``{key: (count, sum, mean, std)}`` with a two-pass sample std.

    ``std`` is 0 for groups of one row (the program's convention).
    """
    mask = np.ones(len(columns[measure]), dtype=bool)
    for attr, value in (filters or {}).items():
        mask &= columns[attr] == value
    x = np.asarray(columns[measure], dtype=float)[mask]
    if not by:
        gids = np.zeros(len(x), dtype=np.int64)
        keys: list[tuple] = [()] if len(x) else []
    else:
        uniques, codes = [], []
        for attr in by:
            u, c = np.unique(np.asarray(columns[attr])[mask],
                             return_inverse=True)
            uniques.append(u)
            codes.append(c.astype(np.int64))
        combined = np.zeros(len(x), dtype=np.int64)
        for u, c in zip(uniques, codes):
            combined = combined * len(u) + c
        present, gids = np.unique(combined, return_inverse=True)
        keys = []
        for code in present:
            parts = []
            for u in reversed(uniques):
                code, r = divmod(int(code), len(u))
                parts.append(u[r])
            keys.append(key_of(reversed(parts)))
    stats = grouped(gids, len(keys), x)
    return {k: stats[i] for i, k in enumerate(keys)}


def grouped(gids: np.ndarray, n_groups: int, x: np.ndarray
            ) -> list[tuple[int, float, float, float]]:
    """Two-pass ``(count, sum, mean, std)`` per group id."""
    x = np.asarray(x, dtype=float)
    count = np.bincount(gids, minlength=n_groups).astype(float)
    total = np.bincount(gids, weights=x, minlength=n_groups)
    mean = total / np.maximum(count, 1.0)
    dev = x - mean[gids]
    m2 = np.bincount(gids, weights=dev * dev, minlength=n_groups)
    var = np.where(count > 1, m2 / np.maximum(count - 1.0, 1.0), 0.0)
    std = np.sqrt(var)
    return [(int(count[i]), float(total[i]), float(mean[i]), float(std[i]))
            for i in range(n_groups)]


def statistic(stats: tuple[int, float, float, float], name: str) -> float:
    count, total, mean, std = stats
    return {"count": float(count), "sum": total, "mean": mean,
            "std": std, "var": std * std}[name]


def penalty(direction: str, value: float, target: float | None = None
            ) -> float:
    """``f_comp`` of the complaint directions (§2.1)."""
    if direction == "too_high":
        return value
    if direction == "too_low":
        return -value
    return abs(value - float(target))


def close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


def check_view_groups(label: str, got: Mapping[tuple, tuple],
                      want: Mapping[tuple, tuple], rtol: float = 1e-9
                      ) -> None:
    """``got``/``want`` map keys to ``(count, sum, mean, std)``.

    Counts must match exactly; sums too (the measures are integers, so
    every partial sum is exact); mean and std within ``rtol``.
    """
    if set(got) != set(want):
        extra = sorted(set(got) - set(want))[:3]
        missing = sorted(set(want) - set(got))[:3]
        raise OracleMismatch(f"{label}: group keys differ (extra {extra}, "
                             f"missing {missing})")
    for key, w in want.items():
        g = got[key]
        if g[0] != w[0] or g[1] != w[1]:
            raise OracleMismatch(f"{label}: group {key} count/sum {g[:2]} "
                                 f"!= NumPy {w[:2]}")
        for i, name in ((2, "mean"), (3, "std")):
            if not close(g[i], w[i], rtol):
                raise OracleMismatch(f"{label}: group {key} {name} {g[i]!r}"
                                     f" != NumPy {w[i]!r}")


def check_ranking(label: str, base_penalty: float,
                  groups: Sequence[Mapping]) -> None:
    """Method properties of one hierarchy's ranked groups.

    ``groups`` carry ``score`` and ``margin_gain``; scores must be
    non-decreasing and every margin must equal base − score.
    """
    scores = [g["score"] for g in groups]
    if any(b < a for a, b in zip(scores, scores[1:])):
        raise OracleMismatch(f"{label}: scores decrease: {scores}")
    for g in groups:
        if g["margin_gain"] != base_penalty - g["score"]:
            raise OracleMismatch(
                f"{label}: margin {g['margin_gain']!r} != base "
                f"{base_penalty!r} - score {g['score']!r}")


def check_first(label: str, hierarchy: str, group: Mapping,
                want_hierarchy: str, want: Mapping) -> None:
    """The planted group must be the recommendation's first answer."""
    coords = {k: plain(v) for k, v in group.items()}
    if hierarchy != want_hierarchy or any(coords.get(a) != v
                                          for a, v in want.items()):
        raise OracleMismatch(f"{label}: ranked {hierarchy} {coords} first, "
                             f"planted {want_hierarchy} {want}")
