"""Steadiness check: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py --runs 10 [--other PATH] [--workload W]

Set A runs in this checkout, set B in ``--other`` (another checkout of
the repository, for example the parent commit) or, by default, in this
checkout again. Run ``i`` of each set uses seed ``--seed + i``; the two
sets alternate which goes first, so drift on the host lands on both.
For every end-to-end metric the command prints each set's median and
quartiles, the spread (interquartile range over median) of each set and
the shift of B's median against A's in the metric's worse direction,
then whether the sets agree: every spread but ``setup_s``'s within the
metric's bound, every shift within it, and the same share of failed
operations. Exits 1 when they do not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(checkout: str, command: list[str], workload: str, seed: int,
            seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(args)} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--other", default=ROOT,
                        help="checkout for set B (default: this one)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    checkouts = {"A": ROOT, "B": os.path.abspath(args.other)}
    ok = True
    for workload in workloads:
        results: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                results[side].append(one_run(
                    checkouts[side], spec["command"], workload,
                    args.seed + i, spec["run_seconds"]))
        print(f"\n{workload}: {args.runs} runs per set")
        print(f"  {'metric':<20} {'set':<3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'shift':>7} {'bound':>6}  agree")
        for name, m in bounds.items():
            meds = {}
            spreads = {}
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in results[side]]
                q1, q2, q3 = quartiles(values)
                meds[side] = q2
                spreads[side] = (q3 - q1) / q2 if q2 else float("inf")
                print(f"  {name:<20} {side:<3} {q1:12.5g} {q2:12.5g} "
                      f"{q3:12.5g} {spreads[side]:7.3f}")
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (meds["B"] - meds["A"]) / meds["A"]
            agree = shift <= m["bound"] and (
                name == "setup_s" or max(spreads.values()) <= m["bound"])
            ok &= agree
            print(f"  {'':<20} {'':<3} {'':>12} {'':>12} {'':>12} "
                  f"{'':>7} {shift:7.3f} {m['bound']:6.3f}  "
                  f"{'yes' if agree else 'NO'}")
        shares = {side: {r["failed"] / r["attempted"] for r in results[side]}
                  for side in ("A", "B")}
        same = len(shares["A"] | shares["B"]) == 1
        ok &= same
        print(f"  failed share: A {sorted(shares['A'])} B "
              f"{sorted(shares['B'])}  {'same' if same else 'DIFFERENT'}")
        correct = all(r["correct"] for side in results
                      for r in results[side])
        ok &= correct
        if not correct:
            print("  some runs reported wrong answers")
    print("\nsets agree" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
