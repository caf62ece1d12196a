"""The four benchmark workloads.

Each is a closed loop driven from one process: an operation is sent only
after the previous answer came back. A run repeats whole *rounds* of a
fixed schedule until ``--seconds`` are spent, so every operation kind is
interleaved from the start of the run to its end and the share of failed
operations is the same in every run. Every answer is checked against the
NumPy oracle or a property of the method; the check runs outside the
timed region.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from repro import (Complaint, ExplanationService, HierarchicalDataset,
                   Relation, Reptile, ReptileConfig, Schema, dimension,
                   measure)
from repro.factorized.factorizer import Factorizer
from repro.factorized.forder import AttributeOrder
from repro.model import DenseDesign, MultilevelModel, pipeline
from repro.model.matlab_style import MatlabStyleEM
from repro.relational import shutdown_worker_pools
from repro.serving import ServerApp

import inputs
import oracle
from hostspeed import HostSpeed

clock = time.perf_counter

ANALYST_ROWS = 1_000_000
SERVE_ROWS = 200_000
SERVE_SESSIONS = 3
INGEST_ROWS = 200
PROBE_NAN_ROWS = 2_000
PROBE_OFFSET_ROWS = 50_000
PROBE_OFFSET = 1e9
EM_ITERATIONS = 20
#: Levels up to this many rows are also fitted by the Matlab-style EM.
MATLAB_CHECK_ROWS = 6_000
#: Fewest rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3

DROUGHT_SCHEMA = Schema([dimension(a) for a in inputs.DIMENSIONS]
                        + [measure(inputs.MEASURE)])


class Run:
    """Samples per operation class, rounds and operation counts."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.speed = HostSpeed()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.excluded = 0.0  # checks and probes, kept out of timings
        self.timed_s = 0.0
        self.peak_rss_mb = 0.0

    def op(self, cls: str | None, fn, *args, **kwargs):
        """One timed operation; its latency joins class ``cls``."""
        if self.speed.due():
            self.untimed(self.speed.sample)
        self.attempted += 1
        with self.recorder.op(cls or "untimed"):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
        if cls is not None:
            self.samples[cls].append(dt)
        self.completed += 1
        return result

    def untimed(self, fn, *args):
        """Work kept out of every timing: oracle checks, clean-up."""
        t0 = clock()
        result = fn(*args)
        self.excluded += clock() - t0
        return result

    def probe(self, fn) -> None:
        """A named fault probe: attempted, failed unless it passes, and
        timed by no metric."""
        t0 = clock()
        self.attempted += 1
        if not fn():
            self.failed += 1
        self.excluded += clock() - t0

    def loop(self, seconds: float, one_round) -> None:
        start = clock()
        while True:
            excluded0 = self.excluded
            t0 = clock()
            one_round(len(self.rounds))
            self.rounds.append(clock() - t0 - (self.excluded - excluded0))
            if len(self.rounds) == MIN_ROUNDS:
                # Taken at the same point of the schedule in every run,
                # so the figure does not grow with the rounds a fast host
                # fits into the run.
                self.peak_rss_mb = self.untimed(peak_rss_mb)
            elapsed = clock() - start
            if len(self.rounds) >= MIN_ROUNDS and \
                    elapsed + statistics.median(self.rounds) / 2 >= seconds:
                break
        self.timed_s = clock() - start - self.excluded


def drought_dataset(columns) -> HierarchicalDataset:
    return HierarchicalDataset.build(Relation(DROUGHT_SCHEMA, dict(columns)),
                                     inputs.HIERARCHIES, inputs.MEASURE)


def view_groups(view) -> dict[tuple, tuple]:
    """A program view as ``{key: (count, sum, mean, std)}``."""
    out = {}
    for key, state in view.groups.items():
        out[oracle.key_of(key)] = (int(state.count), float(state.total),
                                   float(state.mean), float(state.std))
    return out


def payload_groups(payload) -> dict[tuple, tuple]:
    """A ``/view`` payload as ``{key: (count, sum, mean, std)}``."""
    out = {}
    for g in payload["groups"]:
        n, total, sumsq = g["count"], g["sum"], g["sumsq"]
        var = (sumsq - total * total / n) / (n - 1) if n > 1 else 0.0
        out[tuple(g["key"])] = (n, total, total / n, max(var, 0.0) ** 0.5)
    return out


def rec_dict(recommendation) -> dict:
    """An in-process recommendation in the HTTP payload's shape."""
    return {"best_hierarchy": recommendation.best_hierarchy,
            "hierarchies": {
                name: {"base_penalty": rec.base_penalty,
                       "groups": [{"score": g.score,
                                   "margin_gain": g.margin_gain,
                                   "coordinates": g.coordinates}
                                  for g in rec.groups]}
                for name, rec in recommendation.per_hierarchy.items()}}


def check_rec(label: str, rec: dict, want_base: float,
              planted: tuple[str, dict] | None) -> None:
    """Base penalty against NumPy, ranking properties, planted first."""
    for name, h in rec["hierarchies"].items():
        if not h["groups"]:
            continue
        oracle.check_ranking(f"{label}/{name}", h["base_penalty"],
                             h["groups"])
        if not oracle.close(h["base_penalty"], want_base, 1e-9):
            raise oracle.OracleMismatch(
                f"{label}/{name}: base penalty {h['base_penalty']!r} != "
                f"NumPy {want_base!r}")
    if planted is not None:
        best = rec["best_hierarchy"]
        oracle.check_first(label, best,
                           rec["hierarchies"][best]["groups"][0]
                           ["coordinates"], *planted)


class DroughtTruth:
    """NumPy answers for the drought walks, computed once per run."""

    def __init__(self, table: inputs.Table):
        cols, p = table.columns, table.plants
        m = inputs.MEASURE
        self.plants = p
        self.districts = oracle.group_stats(cols, ("district",), m)
        self.dup_leaf = oracle.group_stats(
            cols, ("district", "village"), m,
            {"district": p.dup_district, "village": p.dup_village})

    def count(self, stats: dict, key: tuple) -> float:
        return oracle.statistic(stats[key], "count")

    def check_view(self, view) -> None:
        oracle.check_view_groups("view", view_groups(view), self.districts)


# -- analyst-drill / analyst-sharded ---------------------------------------

def analyst(run: Run, seed: int, seconds: float, sharded: bool) -> dict:
    table = inputs.drought_table(ANALYST_ROWS, seed)
    truth = DroughtTruth(table)
    p = truth.plants
    workers = min(2, os.cpu_count() or 1)
    config = ReptileConfig(shards=2 * workers, workers=workers) \
        if sharded else ReptileConfig()
    state: dict = {}

    def load():
        engine = Reptile(drought_dataset(table.columns), config=config)
        state["engine"] = engine
        return engine

    # The cold answer alternates between two complaints of one cost class
    # (one modelled statistic, the same candidate views):
    # (complaint, NumPy f_comp, planted first).
    firsts = [
        (Complaint.too_high({"district": p.drift_district}, "mean"),
         oracle.statistic(truth.districts[(p.drift_district,)], "mean"),
         ("geo", {"village": p.drift_village})),
        (Complaint.too_low({"district": p.miss_district}, "count"),
         -truth.count(truth.districts, (p.miss_district,)),
         ("time", {"year": p.miss_year})),
    ]

    def walk(engine) -> None:
        """Toward the duplicated rows: view, complain, recommend, drill
        district → village, complain, recommend (time → year), view."""
        s = engine.session(group_by=("district",))
        view = run.op("view", s.view)
        run.untimed(truth.check_view, view)
        key = {"district": p.dup_district}
        rec = run.op("recommend_mid", s.recommend,
                     Complaint.too_high(key, "count"))
        run.untimed(check_rec, "walk/mid", rec_dict(rec),
                    truth.count(truth.districts, (p.dup_district,)),
                    ("geo", {"village": p.dup_village}))
        run.op("drill", s.drill, "geo", key)
        leaf = dict(key, village=p.dup_village)
        rec = run.op("recommend_leaf", s.recommend,
                     Complaint.too_high(leaf, "count"))
        run.untimed(check_rec, "walk/leaf", rec_dict(rec),
                    truth.count(truth.dup_leaf, tuple(leaf.values())),
                    ("time", {"year": p.dup_year}))
        # Back to the district overview before the next complaint.
        view = run.op("view", engine.session(group_by=("district",)).view)
        run.untimed(truth.check_view, view)

    def one_round(r: int) -> None:
        state.pop("engine", None)
        run.untimed(gc.collect)
        engine = run.op("setup", load)
        complaint, want, planted = firsts[r % 2]
        rec = run.op("first", engine.recommend, complaint,
                     group_by=("district",))
        run.untimed(check_rec, "first", rec_dict(rec), want, planted)
        walk(engine)
        if sharded:
            state["sharders"].append(engine.sharder)

    state["sharders"] = []
    try:
        run.loop(seconds, one_round)
        extra = {"sharders": state["sharders"]}
    finally:
        state.clear()
        shutdown_worker_pools()
    return extra


# -- serve-ingest ----------------------------------------------------------

class CacheTally:
    """Serving-cache counters summed over every service of a run."""

    def __init__(self):
        self.hits = self.lookups = 0

    def add(self, service: ExplanationService) -> None:
        stats = service.cache.stats
        self.hits += stats.hits
        self.lookups += stats.lookups


def serve_ingest(run: Run, seed: int, seconds: float) -> dict:
    table = inputs.drought_table(SERVE_ROWS, seed)
    truth = DroughtTruth(table)
    p = table.plants
    cols = table.columns
    m = inputs.MEASURE
    base = truth.districts
    batches = inputs.ingest_batches(table, 64, INGEST_ROWS, seed)
    district_index = {k[0]: i for i, k in enumerate(sorted(base))}
    base_codes = np.array([district_index[d] for d in cols["district"]])

    def current_districts(batch: list[tuple]) -> dict:
        codes = np.concatenate([base_codes, [district_index[r[0]]
                                             for r in batch]])
        x = np.concatenate([cols[m], [r[3] for r in batch]])
        stats = oracle.grouped(codes.astype(np.int64), len(district_index), x)
        return {(d,): stats[i] for d, i in district_index.items()}

    tally = CacheTally()
    svc = ExplanationService()
    app = ServerApp(svc)
    svc.register("main", drought_dataset(cols))
    dup_spec = {"aggregate": "count", "direction": "too_high",
                "coordinates": {"district": p.dup_district},
                "group_by": ["district"]}
    status, _, baseline = app.dispatch("POST", "/datasets/main/recommend",
                                       dup_spec)
    expect_ok("baseline", status, baseline)

    probe_off = inputs.probe_table(PROBE_OFFSET_ROWS, PROBE_OFFSET)
    svc.register("probe-offset", drought_dataset(probe_off.columns))
    off_truth = oracle.group_stats(probe_off.columns, ("district",), m)
    nan_rows = inputs.probe_table(PROBE_NAN_ROWS, 0.0).columns

    def probe_nan() -> bool:
        # A NaN measure is accepted with a 200; every recommend on the
        # dataset then fails inside the SVD (ROADMAP item 1).
        probe_svc = ExplanationService()
        probe_app = ServerApp(probe_svc)
        probe_svc.register("nan", drought_dataset(nan_rows))
        status, _, body = probe_app.dispatch(
            "POST", "/datasets/nan/ingest",
            {"rows": [["d00", "v000000", 1980, float("nan")]]})
        if status != 200:
            return True  # rejected up front: a typed outcome
        status, _, body = probe_app.dispatch(
            "POST", "/datasets/nan/recommend",
            {"aggregate": "mean", "direction": "too_high",
             "coordinates": {"district": "d00"}, "group_by": ["district"]})
        return status == 200

    def probe_offset() -> bool:
        # Measures near 1e9: sumsq - total²/n loses the std (ROADMAP
        # item 1). The std complaint's base penalty is the reported std.
        status, _, body = app.dispatch(
            "POST", "/datasets/probe-offset/recommend",
            {"aggregate": "std", "direction": "too_high",
             "coordinates": {"district": "d00"}, "group_by": ["district"]})
        if status != 200:
            return False
        want = off_truth[("d00",)][3]
        return all(oracle.close(h["base_penalty"], want, 1e-6)
                   for h in body["hierarchies"].values())

    def dispatch(cls, method, path, body=None):
        status, _, payload = run.op(cls, app.dispatch, method, path, body)
        run.untimed(expect_ok, f"{method} {path}", status, payload)
        return payload

    prev: list[tuple] = []

    def one_round(r: int) -> None:
        nonlocal prev
        # A cold service: load the rows, answer one complaint.
        cold = ExplanationService()
        cold_app = ServerApp(cold)
        run.op("setup", lambda: cold.register("cold", drought_dataset(cols)))
        status, _, body = run.op("first", cold_app.dispatch, "POST",
                                 "/datasets/cold/recommend", dup_spec)
        run.untimed(expect_ok, "first", status, body)
        run.untimed(check_rec, "first", body, oracle.statistic(
            base[(p.dup_district,)], "count"),
            ("geo", {"village": p.dup_village}))
        tally.add(cold)
        del cold, cold_app

        batch = batches[r % len(batches)]
        dispatch("ingest", "POST", "/datasets/main/ingest",
                 {"rows": [list(row) for row in batch],
                  "retract": [list(row) for row in prev]})
        prev = batch
        now = run.untimed(current_districts, batch)
        key = {"district": p.dup_district}
        leaf = dict(key, village=p.dup_village)
        for i in range(SERVE_SESSIONS):
            fresh = i == 0  # the first pass after the ingest refits
            sid = dispatch("open", "POST", "/datasets/main/sessions",
                           {"group_by": ["district"]})["session_id"]
            view = dispatch("view", "GET", f"/sessions/{sid}/view")
            run.untimed(oracle.check_view_groups, "view after ingest",
                        payload_groups(view), now)
            rec = dispatch("after_ingest_mid" if fresh else "cached_mid",
                           "POST", f"/sessions/{sid}/recommend",
                           {"aggregate": "count", "direction": "too_high",
                            "coordinates": key})
            run.untimed(check_rec, "session/mid", rec, oracle.statistic(
                now[(p.dup_district,)], "count"),
                ("geo", {"village": p.dup_village}))
            dispatch("drill", "POST", f"/sessions/{sid}/drill",
                     {"hierarchy": "geo", "coordinates": key})
            rec = dispatch("after_ingest_leaf" if fresh else "cached_leaf",
                           "POST", f"/sessions/{sid}/recommend",
                           {"aggregate": "count", "direction": "too_high",
                            "coordinates": leaf})
            run.untimed(check_rec, "session/leaf", rec, truth.count(
                truth.dup_leaf, (p.dup_district, p.dup_village)),
                ("time", {"year": p.dup_year}))
            dispatch("close", "DELETE", f"/sessions/{sid}")
        rec = dispatch("cached_mid", "POST", "/datasets/main/recommend",
                       {"aggregate": "count", "direction": "too_low",
                        "coordinates": {"district": p.miss_district},
                        "group_by": ["district"]})
        run.untimed(check_rec, "oneshot/missing", rec, oracle.penalty(
            "too_low", oracle.statistic(now[(p.miss_district,)], "count")),
            ("time", {"year": p.miss_year}))
        rec = dispatch("after_ingest_mid", "POST", "/datasets/main/recommend",
                       {"aggregate": "mean", "direction": "too_high",
                        "coordinates": {"district": p.drift_district},
                        "group_by": ["district"]})
        run.untimed(check_rec, "oneshot/drift", rec, oracle.statistic(
            now[(p.drift_district,)], "mean"),
            ("geo", {"village": p.drift_village}))
        run.probe(probe_nan)
        run.probe(probe_offset)

    run.loop(seconds, one_round)
    # Round trip: retracting the last batch restores the first answer.
    status, _, body = app.dispatch("POST", "/datasets/main/ingest",
                                   {"retract": [list(row) for row in prev]})
    expect_ok("final retract", status, body)
    status, _, again = app.dispatch("POST", "/datasets/main/recommend",
                                    dup_spec)
    expect_ok("round trip", status, again)
    if strip_version(again) != strip_version(baseline):
        raise oracle.OracleMismatch(
            "append-then-retract did not restore the original answer")
    tally.add(svc)
    return {"cache": tally}


def strip_version(payload: dict) -> dict:
    return {k: v for k, v in payload.items()
            if k not in ("data_version", "batched")}


def expect_ok(label: str, status: int, payload) -> None:
    if not 200 <= status < 300:
        raise oracle.OracleMismatch(f"{label}: HTTP {status}: "
                                    f"{payload.get('error')}")


# -- paper-train -----------------------------------------------------------

def paper_train(run: Run, seed: int, seconds: float) -> dict:
    from repro.relational import Cube
    specs = [
        ("absentee", inputs.absentee_table(seed),
         {a: [a] for a in inputs.ABSENTEE_CARDS}, "ballots",
         inputs.ABSENTEE_DRILLS),
        ("compas", inputs.compas_table(seed), inputs.COMPAS_HIERARCHIES,
         "score", inputs.COMPAS_DRILLS),
    ]
    schemas = {name: Schema([dimension(a) for a in t.columns if a != mname]
                            + [measure(mname)])
               for name, t, _, mname, _ in specs}
    checked: set[tuple] = set()

    def load(name, table, hierarchies, mname):
        dataset = HierarchicalDataset.build(
            Relation(schemas[name], dict(table.columns)), hierarchies, mname)
        return dataset, Cube(dataset)

    def sequence(name, table, mname, dataset, cube, drills) -> float:
        """One Fig. 10 invocation sequence (§5.1.4); returns the wall
        time of its first invocation."""
        depths = {h.name: 0 for h in dataset.dimensions}
        committed: list[str] = []
        first = 0.0
        for step, chosen in enumerate(drills):
            t0, excluded0 = clock(), run.excluded
            for cand in [h.name for h in dataset.dimensions
                         if depths[h.name] < len(dataset.dimensions[h.name])]:
                cand_depths = dict(depths, **{cand: depths[cand] + 1})
                seen = list(dict.fromkeys(committed + [cand]))
                order = AttributeOrder.from_dataset(
                    dataset, hierarchy_order=[n for n in seen if n != cand]
                    + [cand], depths=cand_depths)
                view = run.op("view", cube.view, order.attributes)
                trained = run.op("train", pipeline.train_factorized,
                                 order, view, "count",
                                 n_iterations=EM_ITERATIONS)
                if (name, step, cand) not in checked:
                    checked.add((name, step, cand))
                    run.untimed(check_training, f"{name}/{step}/{cand}",
                                table, mname, order, view, trained)
            if step == 0:
                first = clock() - t0 - (run.excluded - excluded0)
            depths[chosen] += 1
            committed.append(chosen)
        return first

    def one_round(r: int) -> None:
        t0 = clock()
        loaded = [run.op(None, load, name, table, hierarchies, mname)
                  for name, table, hierarchies, mname, _ in specs]
        run.samples["setup"].append(clock() - t0)
        t0, excluded0 = clock(), run.excluded
        for (name, table, _, mname, drills), (dataset, cube) in zip(specs,
                                                                  loaded):
            first = sequence(name, table, mname, dataset, cube, drills)
            if name == "absentee":
                run.samples["first"].append(first)
        run.samples["train_sequence"].append(
            clock() - t0 - (run.excluded - excluded0))

    run.loop(seconds, one_round)
    return {}


def check_training(label, table, mname, order, view, trained) -> None:
    """The training view's counts against NumPy; on small levels the
    factorised fit against the Matlab-style EM over the materialised
    matrix, the paper's baseline (§5.1.4)."""
    want = oracle.group_stats(table.columns, tuple(view.group_attrs), mname)
    got = view_groups(view)
    if set(got) != set(want) or any(got[k][0] != want[k][0] for k in want):
        raise oracle.OracleMismatch(f"{label}: training view counts differ "
                                    f"from NumPy")
    if trained.y.sum() != len(table.columns[mname]):
        raise oracle.OracleMismatch(f"{label}: y does not sum to the rows")
    if order.n_rows > MATLAB_CHECK_ROWS:
        return
    x = trained.matrix.materialize()
    sizes = Factorizer(order).cluster_sizes().astype(int)
    ref = MatlabStyleEM(n_iterations=EM_ITERATIONS).fit(x, trained.y, sizes)
    # β is not identified when feature columns are collinear, so the
    # fitted values and σ² are compared, not the coefficients.
    want = MultilevelModel.predict(DenseDesign(x, sizes), ref)
    scale = max(1.0, float(np.abs(want).max()))
    if not np.allclose(trained.predictions(), want, rtol=0,
                       atol=1e-6 * scale) \
            or not oracle.close(trained.fit.sigma2, ref.sigma2, 1e-6):
        raise oracle.OracleMismatch(f"{label}: factorised EM differs from "
                                    f"the Matlab-style EM")


# -- memory ----------------------------------------------------------------

def _status_kb(pid: int | str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child (shard workers).

    Each process's own high-water mark is summed, which bounds their
    joint peak from above. Without /proc, falls back to getrusage.
    """
    own = _status_kb("self", "VmHWM")
    if not own:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    me = str(os.getpid())
    total = own
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            total += _status_kb(entry, "VmHWM")
    return total / 1024
