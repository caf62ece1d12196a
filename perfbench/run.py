"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload analyst-drill --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``analyst-drill``, ``analyst-sharded``, ``serve-ingest`` and
``paper-train`` (see README.md next to this file). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of the traced run with ``--trace 1``. The line
before it carries the per-class latencies of the run (``detail``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

# One BLAS thread, set before NumPy loads: with two OpenBLAS threads a
# leaf recommend burned 1.6x its wall time in CPU on a 2-vCPU host and
# ran no faster, and the extra threads only add noise. Shard worker
# processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("analyst-drill", "analyst-sharded", "serve-ingest",
             "paper-train")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "view_p50_ms": "ms",
              "peak_rss_mb": "MB"}

STAGES = ("features", "gram", "sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run) -> dict:
    """Timings at nominal host speed (see hostspeed.py); RSS as read."""
    slow = run.speed.factor()
    values = {
        "setup_s": statistics.median(run.samples["setup"]) / slow,
        "ops_per_s": run.completed / run.timed_s * slow,
        "view_p50_ms": 1e3 * statistics.median(run.samples["view"]) / slow,
        "peak_rss_mb": run.peak_rss_mb,
    }
    return {k: metric(values[k], END_TO_END[k]) for k in END_TO_END}


def detail(run) -> dict:
    """Per-class latencies: median, p90 where 40+ samples, count."""
    out = {}
    for cls, values in sorted(run.samples.items()) + [("round", run.rounds)]:
        values = sorted(values)
        row = {"p50_ms": 1e3 * statistics.median(values), "n": len(values)}
        if len(values) >= 40:
            row["p90_ms"] = 1e3 * values[int(0.9 * len(values))]
        out[cls] = row
    out["host_slowness"] = {"median": run.speed.factor(),
                            "n": len(run.speed.samples)}
    return out


def per_layer(recorder, run, extra: dict, kernels_before: dict,
              kernels_after: dict, per_call_s: float) -> dict:
    import tracing
    spans = tracing.within_ops(recorder.spans)
    rounds = len(run.rounds)

    def total(name: str) -> float:
        return sum(s[2] - s[1] for s in tracing.top_level(spans, name))

    def calls(name: str) -> int:
        return len(tracing.top_level(spans, name))

    def counted(name: str) -> int:
        return sum(s[5] for s in tracing.top_level(spans, name))

    per_round = {
        "relational.load_s": total("relational.load"),
        "relational.view_s": total("relational.view"),
        "relational.view_calls": calls("relational.view"),
        "relational.view_groups": counted("relational.view"),
        "relational.delta_s": total("relational.delta"),
        "relational.delta_rows": counted("relational.delta"),
        "shard.start_s": total("shard.start"),
        "kernels.group_codes_s": total("kernels.group_codes"),
        "kernels.rank1_sweep_s": total("kernels.rank1_sweep"),
        "model.design_s": total("model.design"),
        "model.design_rows": counted("model.design"),
        "model.fit_s": total("model.fit"),
        "model.fit_calls": calls("model.fit"),
        "model.fit_rows": counted("model.fit"),
        "model.features_s": total("model.features"),
        "factorized.matrix_s": total("factorized.matrix"),
        "factorized.design_ops_s": total("factorized.design_op"),
        "factorized.design_ops_calls": calls("factorized.design_op"),
        "core.align_s": total("core.align"),
        "core.sweep_s": total("core.sweep"),
        "core.sweep_groups": counted("core.sweep"),
        "core.recommend_self_s": tracing.self_time(spans, "core.recommend"),
        "serving.dispatch_self_s": tracing.self_time(spans,
                                                   "serving.dispatch"),
        "serving.ingest_self_s": tracing.self_time(spans, "serving.ingest",
                                                 minus="relational.delta"),
        "serving.cache_lookups": extra["cache"].lookups
        if "cache" in extra else 0,
        "trace.spans": len(spans),
    }
    for stage in STAGES:
        per_round[f"shard.stage_s.{stage}"] = total(f"shard.stage.{stage}")
    values = {k: v / rounds for k, v in per_round.items()}

    sharders = extra.get("sharders", [])
    for stage in STAGES:
        busy = wall = 0.0
        for sharder in sharders:
            rec = sharder.timings.get(stage)
            if rec:
                busy += sum(rec["busy_s"])
                wall += max(len(set(rec["pids"])), 1) * rec["wall_s"]
        values[f"shard.utilization.{stage}"] = busy / wall if wall else 0.0
    pools = {id(s.pool): s.pool for s in sharders if s.pool is not None}
    values["shard.retries"] = sum(p.stats()["retried_tasks"]
                                  for p in pools.values())
    values["shard.respawns"] = sum(p.stats()["respawns"]
                                   for p in pools.values())

    fused = fallback = 0
    for name, after in kernels_after["counters"].items():
        before = kernels_before["counters"].get(name, {})
        fused += after["fused"] - before.get("fused", 0)
        fallback += after["fallback"] - before.get("fallback", 0)
    values["kernels.fused_ratio"] = fused / (fused + fallback) \
        if fused + fallback else 0.0
    cache = extra.get("cache")
    values["serving.cache_hit_ratio"] = cache.hits / cache.lookups \
        if cache is not None and cache.lookups else 0.0
    op_wall = sum(s[2] - s[1] for s in spans if s[0].startswith("op."))
    values["trace.overhead_share"] = len(spans) * per_call_s / op_wall \
        if op_wall else 0.0
    values["trace.coverage"] = tracing.coverage(spans)
    return {k: metric(v, LAYER_UNITS[k]) for k, v in sorted(values.items())}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/round"
    if name.endswith(("_ratio", "_share", "coverage")) or \
            ".utilization." in name:
        return "ratio"
    if name in ("shard.retries", "shard.respawns"):
        return "count"
    return "count/round"


LAYER_NAMES = (
    "relational.load_s", "relational.view_s", "relational.view_calls",
    "relational.view_groups", "relational.delta_s", "relational.delta_rows",
    "shard.start_s", *(f"shard.stage_s.{s}" for s in STAGES),
    *(f"shard.utilization.{s}" for s in STAGES), "shard.retries",
    "shard.respawns", "kernels.group_codes_s", "kernels.rank1_sweep_s",
    "kernels.fused_ratio", "model.design_s", "model.design_rows",
    "model.fit_s", "model.fit_calls", "model.fit_rows", "model.features_s",
    "factorized.matrix_s", "factorized.design_ops_s",
    "factorized.design_ops_calls", "core.align_s", "core.sweep_s",
    "core.sweep_groups", "core.recommend_self_s", "serving.dispatch_self_s",
    "serving.ingest_self_s", "serving.cache_hit_ratio",
    "serving.cache_lookups", "trace.overhead_share", "trace.coverage",
    "trace.spans")
LAYER_UNITS = {name: _layer_unit(name) for name in LAYER_NAMES}


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    The shard pools' workers are joined by ``shutdown_worker_pools``.
    Shared-memory segments also start the multiprocessing resource
    tracker, which otherwise outlives this process until it notices the
    closed pipe; it is stopped and reaped here, after the last segment
    is unlinked.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    if "repro.relational.shard" in sys.modules:
        sys.modules["repro.relational.shard"].shutdown_worker_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # A terminated run still unwinds through stop_children().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(args)
    finally:
        stop_children()


def measure(args) -> int:
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    import oracle
    import tracing
    import workloads
    from repro import kernels

    recorder = tracing.Recorder() if args.trace else tracing.NullRecorder()
    restore = tracing.install(recorder) if args.trace else None
    run = workloads.Run(recorder)
    kernels_before = kernels.kernel_stats()
    try:
        if args.workload == "analyst-drill":
            extra = workloads.analyst(run, args.seed, args.seconds, False)
        elif args.workload == "analyst-sharded":
            extra = workloads.analyst(run, args.seed, args.seconds, True)
        elif args.workload == "serve-ingest":
            extra = workloads.serve_ingest(run, args.seed, args.seconds)
        else:
            extra = workloads.paper_train(run, args.seed, args.seconds)
    except oracle.OracleMismatch as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        if restore is not None:
            restore()

    print(json.dumps({"detail": detail(run)}))
    if args.trace:
        metrics = per_layer(recorder, run, extra, kernels_before,
                            kernels.kernel_stats(), tracing.per_call_cost())
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        recorder.dump(os.path.join(
            out, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(run)
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
