"""Seeded input generators for the benchmark workloads.

Everything the program sees is built here from ``--seed``: the program
receives only columns of rows. The drought tables carry planted errors
of the three §5.2.1 kinds (duplicated, drifted and missing rows) in
groups picked from the seed, and each plant is sized so that Reptile
must rank it first at the level named in :class:`Plants`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIERARCHIES = {"geo": ["district", "village"], "time": ["year"]}
DIMENSIONS = ("district", "village", "year")
MEASURE = "severity"
N_DISTRICTS = 64
N_YEARS = 25
FIRST_YEAR = 1980

#: Duplicated plant: every row of the village repeated this many extra
#: times, plus this many copies of one of its rows in the planted year.
DUP_VILLAGE_COPIES = 6
DUP_LEAF_COPIES = 150
#: Drifted plant: added to every measure of one village.
DRIFT = 300.0
#: Missing plant: share of one district-year's rows that are dropped.
MISSING_SHARE = 0.7


@dataclass(frozen=True)
class Plants:
    """Ground truth of the planted errors (dimension values)."""

    dup_district: str      # count too high here → geo first, dup_village
    dup_village: str       # count too high here → time first, dup_year
    dup_year: int
    drift_district: str    # mean too high here → geo first, drift_village
    drift_village: str
    miss_district: str     # count too low here → time first, miss_year
    miss_year: int


@dataclass
class Table:
    """Columns of one generated table plus its ground truth."""

    columns: dict[str, np.ndarray]
    plants: Plants | None = None


def villages_per_district(n_rows: int) -> int:
    """Village count scales with rows (about 25 rows per village)."""
    return max(50, n_rows // (N_DISTRICTS * N_YEARS))


def district_name(i: int) -> str:
    return f"d{i:02d}"


def village_name(i: int) -> str:
    return f"v{i:06d}"


def drought_table(n_rows: int, seed: int) -> Table:
    """Drought-shaped rows (district → village, year) with planted errors.

    Measures are integers in [0, 100) stored as floats, so every sum is
    exact and a round trip through append and retract is bitwise.
    """
    rng = np.random.default_rng(seed)
    vpd = villages_per_district(n_rows)
    d = rng.integers(0, N_DISTRICTS, n_rows)
    v = d * vpd + rng.integers(0, vpd, n_rows)
    y = FIRST_YEAR + rng.integers(0, N_YEARS, n_rows)
    m = rng.integers(0, 100, n_rows).astype(float)

    dup_d, drift_d, miss_d = (int(x) for x in
                              rng.choice(N_DISTRICTS, 3, replace=False))
    # Villages picked through their rows, so neither is empty.
    dup_v = int(rng.choice(v[d == dup_d]))
    drift_v = int(rng.choice(v[d == drift_d]))
    dup_y = FIRST_YEAR + int(rng.integers(0, N_YEARS))
    miss_y = FIRST_YEAR + int(rng.integers(0, N_YEARS))

    # Drift: every measure of one village shifted up.
    m[v == drift_v] += DRIFT
    # Missing: most rows of one district-year dropped.
    hole = (d == miss_d) & (y == miss_y)
    keep = ~hole | (rng.random(n_rows) >= MISSING_SHARE)
    d, v, y, m = d[keep], v[keep], y[keep], m[keep]
    # Duplicates: the village's rows repeated, one year's far more often.
    rows = np.flatnonzero(v == dup_v)
    idx = np.concatenate([np.arange(len(d)),
                          np.repeat(rows, DUP_VILLAGE_COPIES),
                          np.full(DUP_LEAF_COPIES, rows[0])])
    d, v, y, m = d[idx], v[idx], y[idx], m[idx]
    y[len(d) - DUP_LEAF_COPIES:] = dup_y

    districts = np.array([district_name(i) for i in range(N_DISTRICTS)])
    villages = np.array([village_name(i) for i in range(N_DISTRICTS * vpd)])
    columns = {"district": districts[d], "village": villages[v],
               "year": y.astype(np.int64), MEASURE: m}
    plants = Plants(district_name(dup_d), village_name(dup_v), dup_y,
                    district_name(drift_d), village_name(drift_v),
                    district_name(miss_d), miss_y)
    return Table(columns, plants)


def ingest_batches(table: Table, n_batches: int, batch_rows: int,
                   seed: int) -> list[list[tuple]]:
    """Row batches to append: existing (district, village) paths, fresh
    measures. Planted districts are left alone so the planted answers
    hold at every data version."""
    rng = np.random.default_rng([seed, 1])
    p = table.plants
    planted = {p.dup_district, p.drift_district, p.miss_district}
    cols = table.columns
    eligible = np.flatnonzero(~np.isin(cols["district"], list(planted)))
    batches = []
    for _ in range(n_batches):
        pick = rng.choice(eligible, batch_rows, replace=False)
        years = FIRST_YEAR + rng.integers(0, N_YEARS, batch_rows)
        values = rng.integers(0, 100, batch_rows).astype(float)
        batches.append([(str(cols["district"][i]), str(cols["village"][i]),
                         int(yr), float(val))
                        for i, yr, val in zip(pick, years, values)])
    return batches


def probe_table(n_rows: int, offset: float) -> Table:
    """Fixed probe table (seed-independent): 8 districts × 10 villages ×
    10 years, N(50, 30) measures shifted by ``offset``."""
    rng = np.random.default_rng(20220612)
    d = rng.integers(0, 8, n_rows)
    v = d * 10 + rng.integers(0, 10, n_rows)
    y = FIRST_YEAR + rng.integers(0, 10, n_rows)
    m = offset + np.round(rng.normal(50.0, 30.0, n_rows))
    return Table({"district": np.array([district_name(i) for i in d]),
                  "village": np.array([village_name(i) for i in v]),
                  "year": y.astype(np.int64), MEASURE: m})


# -- Figure 10 tables (§5.1.4) ----------------------------------------

ABSENTEE_ROWS = 179_000
ABSENTEE_CARDS = {"county": 100, "party": 6, "week": 53, "gender": 3}
ABSENTEE_DRILLS = ("county", "party", "week", "gender")
COMPAS_ROWS = 60_843
COMPAS_DAYS = 704
COMPAS_HIERARCHIES = {"time": ["year", "month", "day"], "age": ["age_range"],
                      "race": ["race"], "charge": ["charge_degree"]}
COMPAS_DRILLS = ("time", "time", "time", "age", "race", "charge")


def absentee_table(seed: int) -> Table:
    """NC-absentee-shaped rows: four one-attribute hierarchies."""
    rng = np.random.default_rng([seed, 2])
    cols: dict[str, np.ndarray] = {}
    for attr, card in ABSENTEE_CARDS.items():
        names = np.array([f"{attr}{i:03d}" for i in range(card)])
        cols[attr] = names[rng.integers(0, card, ABSENTEE_ROWS)]
    cols["ballots"] = rng.exponential(1.0, ABSENTEE_ROWS)
    return Table(cols)


def compas_table(seed: int) -> Table:
    """COMPAS-shaped rows: year → month → day, age range, race, charge."""
    rng = np.random.default_rng([seed, 3])
    day = np.arange(COMPAS_DAYS)
    month_no = day // 30
    year = 2013 + month_no // 12
    ym = [f"y{y}-m{m % 12 + 1:02d}" for y, m in zip(year, month_no)]
    idx = rng.integers(0, COMPAS_DAYS, COMPAS_ROWS)
    cols = {
        "year": np.array([f"y{y}" for y in year])[idx],
        "month": np.array(ym)[idx],
        "day": np.array([f"{s}-d{i % 30 + 1:02d}"
                         for s, i in zip(ym, day)])[idx],
        "age_range": np.array(["age<25", "age25-45", "age>45"])[
            rng.integers(0, 3, COMPAS_ROWS)],
        "race": np.array([f"race{i}" for i in range(6)])[
            rng.integers(0, 6, COMPAS_ROWS)],
        "charge_degree": np.array(["F", "M", "O"])[
            rng.integers(0, 3, COMPAS_ROWS)],
        "score": rng.uniform(0.0, 10.0, COMPAS_ROWS),
    }
    return Table(cols)
