"""One repeat of one workload, in a fresh process started by ``run.py``.

Times set-up (process start through ``import rctm``, the first key and the
first orbit sample), then the workload with the reference loop
(``calibrate.py``) timed before, after and between its steps, then checks
its outputs against the pinned reference outside the clock.  A traced
repeat also records spans and derives the per-layer metrics; it times the
loop only before and after the workload, so that the loop stays out of
the spans.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


def reference_path(size: str, seed: int) -> Path:
    return HERE / "reference" / f"{size}-seed{inputs.pool_seed(seed)}.json"


def _traced_run(rctm, tracing, workload, keys, size, workdir):
    """Run a workload under a fresh tracer; returns (raw, tracer)."""
    tracer = tracing.Tracer()
    replaced = tracing.instrument(rctm, tracer)
    try:
        tracer.open("bench.workload")
        try:
            raw = workload.run(rctm, keys, size, workdir)
        finally:
            tracer.close()
    finally:
        tracing.restore(replaced)
    return raw, tracer


def _probe(rctm, tracing, workloads, name, keys, workdir):
    """Per-layer metrics of a scaled-down traced run of workload ``name``."""
    workload = workloads.WORKLOADS[name]
    raw, tracer = _traced_run(rctm, tracing, workload, keys, workloads.SIZES["probe"], workdir)
    if workload.uses_workdir:
        tracer.counts["cli.bytes_written"] = workloads.bytes_written(workdir)
    return tracing.layer_metrics(tracer)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--root", required=True, help="checkout holding src/rctm")
    args = ap.parse_args(argv)

    keys = inputs.workload_keys(args.seed)
    import rctm
    import workloads
    sample = workloads.setup_sample(rctm, rctm.make_key(*keys[args.workload]))
    setup_s = time.monotonic() - args.t0

    src = (Path(args.root) / "src").resolve()
    if src not in Path(rctm.__file__).resolve().parents:
        print(f"error: imported rctm from {rctm.__file__}, not from {src}", file=sys.stderr)
        return 1
    import numpy
    import scipy
    import rctm.cli  # noqa: F401  (the cli_stream workload calls rctm.cli.main)
    import calibrate
    import tracing
    import verify

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    with open(reference_path(args.size, args.seed)) as fh:
        reference = json.load(fh)[args.workload]
    workdir = Path(args.root) / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    out = {
        "workload": args.workload, "traced": args.traced, "setup_s": setup_s,
        "versions": {"rctm": rctm.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
    }
    calibration = [calibrate.measure()]
    try:
        tracer = None
        t = time.perf_counter()
        try:
            if args.traced:
                raw, tracer = _traced_run(rctm, tracing, workload, keys, size, str(workdir))
            else:
                raw = workload.run(rctm, keys, size, str(workdir),
                                   between=lambda: calibration.append(calibrate.measure()))
        finally:
            elapsed = time.perf_counter() - t
            out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            calibration.append(calibrate.measure())
            out["calibration"] = calibration
            out["scale"] = calibrate.scale(calibration)
            # a workload that raised has no step times: time it whole
            out["wall_s"] = elapsed
            out["scaled_wall_s"] = elapsed * out["scale"]
        steps = raw["steps"]
        out["steps"] = steps
        out["wall_s"] = sum(steps.values())
        out["scaled_wall_s"] = calibrate.scaled_time(list(steps.values()), calibration)
        outputs = workload.outputs(rctm, raw, size, str(workdir))
        outputs["setup.sample"] = sample
        out["attempted"], failed = verify.compare(reference, outputs)
        if tracer is not None:
            if workload.uses_workdir:
                tracer.counts["cli.bytes_written"] = workloads.bytes_written(workdir)
            out.update(_layer_report(rctm, tracing, workloads, tracer, keys, workdir))
    except Exception:
        out["error"] = traceback.format_exc()
        out["attempted"], failed = len(reference), list(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["failed"] = len(failed)
    out["failed_ops"] = failed[:20]
    print(json.dumps(out))
    return 0


def _layer_report(rctm, tracing, workloads, tracer, keys, workdir) -> dict:
    """Per-layer metrics of the traced repeat, probes for layers it missed,
    the self-time accounting and the spans themselves."""
    metrics = tracing.layer_metrics(tracer)
    source = {name: "workload" for name, v in metrics.items() if v is not None}
    probes = {}
    for name in [n for n, v in metrics.items() if v is None]:
        probe = tracing.probe_workload(name)
        if probe is None:
            continue
        if probe not in probes:
            probe_dir = workdir / f"probe-{probe}"
            probe_dir.mkdir()
            probes[probe] = _probe(rctm, tracing, workloads, probe, keys, str(probe_dir))
        if probes[probe].get(name) is not None:
            metrics[name] = probes[probe][name]
            source[name] = f"probe:{probe}"
    root = tracer.spans[0]
    start = root[1]
    return {
        "traced_wall_s": root[2] - root[1],
        "layer": {k: v for k, v in metrics.items() if v is not None},
        "layer_source": source,
        "self_s": tracer.layer_self(),
        "spans": [[s[0], s[1] - start, s[2] - start, s[3], s[4]] for s in tracer.spans],
    }


if __name__ == "__main__":
    sys.exit(main())
