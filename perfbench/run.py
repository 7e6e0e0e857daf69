"""rctm benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 40 --trace 0

Run from the root of a checkout (the directory holding ``src/rctm``).
Each repeat runs in a fresh single-threaded Python process
(``worker.py``), one at a time, until the next one would end after
``--seconds``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json (medians over repeats); with ``--trace 1`` untraced and
traced repeats alternate and the metrics are the per-layer ones.  Every
repeat's outputs are checked against the pinned reference.

``wall_s`` and ``setup_s`` are seconds at the reference speed: each
repeat's measured times scaled by a fixed loop timed before, between and
after the workload's steps (``calibrate.py``), so that the host's speed
drifting between runs cancels.  The measured medians are in the full
report under ``unscaled``.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full report: provenance, keys,
every repeat and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("battery", "cli_stream", "sweeps")
THREAD_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# a run must end within 180 s; no repeat may start later than this
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(root: Path, seed: int) -> dict:
    """What ran where: code identity, machine and settings (all read-only)."""
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # information only, not a gated metric
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "thread_pinning": THREAD_PINNING,
        "seed": seed,
        "pool_seed": inputs.pool_seed(seed),
    }


def run_repeat(root: Path, args, traced: bool, deadline: float) -> dict:
    env = {**os.environ, **THREAD_PINNING, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--root", str(root)]
    if traced:
        cmd.append("--traced")
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        done = subprocess.run([*cmd, "--t0", repr(t0)], env=env, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {args.workload} repeat did not end within {timeout:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _median(repeats, key):
    return statistics.median(r[key] for r in repeats)


def _scaled_setup_median(repeats):
    """Median set-up time at the reference speed (see calibrate.py)."""
    return statistics.median(r["setup_s"] * r["scale"] for r in repeats)


def measure(root: Path, args) -> list[dict]:
    """Repeats until the next one would end after --seconds (at least one;
    in a traced run, pairs of an untraced and a traced repeat)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    modes = (False, True) if args.trace else (False,)
    repeats = []
    while True:
        for traced in modes:
            repeats.append(run_repeat(root, args, traced, deadline))
        elapsed = time.monotonic() - start
        per_round = elapsed * len(modes) / len(repeats)
        if elapsed + per_round > min(args.seconds, RUN_BUDGET_S - 10.0):
            return repeats


def metrics(repeats: list[dict], declared: list[dict], trace: bool) -> dict:
    plain = [r for r in repeats if not r["traced"]]
    if trace:
        traced = [r for r in repeats if r["traced"] and "layer" in r]
        if not traced:
            raise BenchError("no traced repeat completed")
        values = {name: statistics.median(r["layer"][name] for r in traced)
                  for name in traced[0]["layer"]}
        values["trace.overhead_pct"] = 100.0 * (_median(traced, "scaled_wall_s")
                                                 / _median(plain, "scaled_wall_s") - 1.0)
    else:
        values = {"wall_s": _median(plain, "scaled_wall_s"),
                  "setup_s": _scaled_setup_median(plain),
                  "peak_rss_mib": _median(plain, "peak_rss_mib")}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test size")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "rctm" / "__init__.py").is_file():
        print(f"error: {root} holds no src/rctm; run from the root of an rctm checkout",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "provenance": provenance(root, args.seed),
              "keys": inputs.keys_hex(inputs.workload_keys(args.seed))}
    try:
        repeats = measure(root, args)
        result_metrics = metrics(repeats, declared, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    report["provenance"]["versions"] = repeats[0]["versions"]
    report["repeats"] = [{k: v for k, v in r.items() if k not in ("spans", "versions")}
                         for r in repeats]
    report["error_rate"] = failed / attempted
    plain = [r for r in repeats if not r["traced"]]
    report["unscaled"] = {"wall_s": _median(plain, "wall_s"), "setup_s": _median(plain, "setup_s"),
                          "scale": _median(plain, "scale")}
    traced = [r for r in repeats if r["traced"]]
    if traced:
        trace_file = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps({"spans": traced[-1]["spans"],
                                          "fields": ["name", "start_s", "end_s", "parent", "units"]}))
        report["trace_file"] = str(trace_file.relative_to(root))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
