"""Run the benchmark several times and summarise it, for one checkout or
for a parent/change pair.

    python3 perfbench/compare.py --workload battery --runs 10 PARENT [CHANGE]

PARENT and CHANGE are checkout roots, each holding the same copy of
perfbench/.  Run i uses seed i (``--first-seed`` shifts them) in every
checkout, and the checkouts alternate which runs first.  Prints, per
metric and checkout, the median, the quartiles of
``statistics.quantiles(n=4)`` and the spread (q3 - q1) / median; with two
checkouts also the change/parent median ratio and the share of pairs the
change won (ties count for neither side).  The last line is the same
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: run failed ({done.returncode}): {done.stderr.strip()[-1000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {root} seed {seed}: {result['failed']} of {result['attempted']} "
              "outputs wrong", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("checkouts", nargs="+", type=Path)
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one checkout, or a parent and a change")
    roots = [p.resolve() for p in args.checkouts]
    with open(roots[0] / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs: list[list[dict]] = [[] for _ in roots]
    for i in range(args.runs):
        order = list(range(len(roots)))
        if i % 2:
            order.reverse()
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.first_seed + i,
                                       bench["run_seconds"], args.trace))
    out = {"workload": args.workload, "runs": args.runs, "checkouts": [str(r) for r in roots],
           "metrics": {}}
    for m in declared:
        name = m["name"]
        sides = [[r["metrics"][name]["value"] for r in side] for side in runs]
        entry = {"unit": m["unit"], "sides": [summary(v) for v in sides]}
        if len(sides) == 2:
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for p, c in zip(*sides) if sign * (c - p) < 0)
            entry["ratio"] = entry["sides"][1]["median"] / entry["sides"][0]["median"]
            entry["change_wins"] = wins / args.runs
        bound = m.get("bound")
        if bound is not None:
            entry["bound"] = bound
        out["metrics"][name] = entry
        cols = "  ".join(f"median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                         f"spread {s['spread']:.4f}" for s in entry["sides"])
        extra = (f"  ratio {entry['ratio']:.4f} wins {entry['change_wins']:.2f}"
                 if "ratio" in entry else "")
        limit = f"  (bound {bound})" if bound is not None else ""
        print(f"{name:36s} {m['unit']:>9s}  {cols}{extra}{limit}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
