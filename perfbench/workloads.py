"""The benchmark workloads and the outputs each one is checked on.

A workload's ``run`` makes only public rctm calls and is the timed part of
a repeat; it times each step and calls ``between()`` outside the clock
from one step to the next (the worker times its reference loop there).
Its ``outputs`` turns what ``run`` returned into named
operations (a stream digest, a battery row, an ENT report, a sweep
aggregate, a CLI exit code plus the file it wrote); each is compared with
the pinned reference after the clock has stopped.

Why these three workloads:

- ``battery``: the paper's headline run (criterion 1).  The scalar orbit
  (core) and the nine NIST tests share its time, so it shows the shift
  between them when either gets faster.
- ``cli_stream``: the only workload through the CLI, prbg packing and
  quantization, ENT and file writes; it runs no NIST, so a NIST change
  should not move it.
- ``sweeps``: the batched orbit (``iterate_batch``) with no scalar stream
  and no NIST, in a wide-short shape (1000 keys x 1100 steps) and a
  narrow-long one (100 keys x 10^5 steps) dominated by per-step overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from inputs import ENTROPY_INCREMENT, SWEEP_DELTA


@dataclass(frozen=True)
class Size:
    streams: int
    stream_bits: int
    cli_bits: int
    cli_bytes: int
    pairs: int
    pair_length: int
    sequences: int
    sequence_length: int
    grid_points: int
    grid_iterations: int


SIZES = {
    "full": Size(streams=20, stream_bits=10**6, cli_bits=8 * 10**6, cli_bytes=10**6,
                 pairs=1000, pair_length=1000, sequences=100, sequence_length=10**5,
                 grid_points=500, grid_iterations=10**4),
    # traced runs time the layers a workload does not call on these; the
    # batched shapes keep their key counts, so per-sample costs compare
    "probe": Size(streams=1, stream_bits=10**6, cli_bits=10**6, cli_bytes=10**6,
                  pairs=1000, pair_length=100, sequences=100, sequence_length=10**4,
                  grid_points=500, grid_iterations=10**3),
    "tiny": Size(streams=2, stream_bits=10**4, cli_bits=10**4, cli_bytes=10**4,
                 pairs=20, pair_length=100, sequences=5, sequence_length=1000,
                 grid_points=10, grid_iterations=500),
}

BATTERY_BURN_IN = 1000
SWEEP_BURN_IN = 100
SETUP_BURN_IN = 1000
BATCH_CHECK_KEYS = 16
BATCH_CHECK_STEPS = 1100
# NIST statistics that are integer counts and must match exactly
INTEGER_STATISTICS = {"runs", "cusum_forward", "cusum_reverse"}


def _sha256(data) -> str:
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def _file_sha256(path: str) -> str | None:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _number(x):
    x = float(x)
    return x if math.isfinite(x) else None


def setup_sample(rctm, key) -> str:
    """The first orbit sample a repeat takes during set-up, as a hex literal."""
    return float(rctm.iterate(key, 1, burn_in=SETUP_BURN_IN).values[0]).hex()


def _outcome(row) -> dict:
    stat = row.statistic
    if row.test in INTEGER_STATISTICS and math.isfinite(stat):
        stat = int(stat)
    else:
        stat = _number(stat)
    return {"test": row.test, "statistic": stat, "p_value": _number(row.p_value),
            "passed": bool(row.passed)}


def _nothing():
    pass


def run_battery(rctm, keys, size, workdir, between=_nothing):
    steps = {}
    t = time.perf_counter()
    key = rctm.make_key(*keys["battery"])
    streams = rctm.segmented_streams(key, size.streams, size.stream_bits,
                                     burn_in=BATTERY_BURN_IN)
    steps["generate"] = time.perf_counter() - t
    between()
    t = time.perf_counter()
    report = rctm.nist_battery(streams)
    steps["nist"] = time.perf_counter() - t
    return {"streams": streams, "report": report, "steps": steps}


def battery_outputs(rctm, raw, size, workdir) -> dict:
    """Every stream digest and battery row (verdicts included), plus the
    per-stream p-values of the first and last stream."""
    streams = raw["streams"]
    out = {f"stream{i:02d}.sha256": _sha256(s.bits) for i, s in enumerate(streams)}
    for row in raw["report"].entries:
        out[f"row.{row.test}"] = asdict(row)
    out["battery.passed"] = bool(raw["report"].passed)
    for i in sorted({0, len(streams) - 1}):
        out[f"stream{i:02d}.outcomes"] = [_outcome(r) for r in rctm.nist.stream_outcomes(streams[i])]
    return out


def _cli_argv(keys, size) -> list[list[str]]:
    mu, x0 = (v.hex() for v in keys["cli_stream"])
    key = ["--mu", mu, "--x0", x0]
    return [
        ["generate", *key, "--bits", str(size.cli_bits), "--format", "raw", "--meta",
         "-o", "generate.bin"],
        ["export", *key, "--bits", str(size.cli_bits), "--format", "ascii-bits",
         "-o", "export"],
        ["test-ent", *key, "--bytes", str(size.cli_bytes), "-o", "ent.json"],
    ]


def run_cli_stream(rctm, keys, size, workdir, between=_nothing):
    """Three CLI commands in-process, writing relative paths in workdir."""
    codes, steps = {}, {}
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for i, argv in enumerate(_cli_argv(keys, size)):
            if i:
                between()
            t = time.perf_counter()
            codes[argv[0]] = rctm.cli.main(argv)
            steps[argv[0]] = time.perf_counter() - t
    finally:
        os.chdir(home)
    return {"codes": codes, "steps": steps}


def cli_outputs(rctm, raw, size, workdir) -> dict:
    codes = raw["codes"]

    def path(name):
        return os.path.join(workdir, name)

    return {
        "generate": {"exit": codes.get("generate"), "sha256": _file_sha256(path("generate.bin"))},
        "generate.meta": _load_json(path("generate.bin.meta.json")),
        "export": {"exit": codes.get("export"), "sha256": _file_sha256(path("export_000.txt"))},
        "export.manifest": _load_json(path("export_manifest.json")),
        "test-ent": {"exit": codes.get("test-ent"), "report": _load_json(path("ent.json"))},
    }


def bytes_written(workdir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(workdir) if e.is_file())


def _grid(keys, size) -> list[float]:
    return sorted(keys["grid_mu"][:size.grid_points])


def run_sweeps(rctm, keys, size, workdir, between=_nothing):
    steps = {}
    mu, x0 = keys["sweeps"]
    t = time.perf_counter()
    base = rctm.make_key(mu, x0)
    corr = rctm.correlation_sweep(base, delta=SWEEP_DELTA, pairs=size.pairs,
                                  length=size.pair_length, vary="mu", burn_in=SWEEP_BURN_IN)
    steps["correlation"] = time.perf_counter() - t
    between()
    t = time.perf_counter()
    entropy = rctm.entropy_sweep(base, sequences=size.sequences, length=size.sequence_length,
                                 seed_increment=ENTROPY_INCREMENT)
    steps["entropy"] = time.perf_counter() - t
    between()
    t = time.perf_counter()
    grid = rctm.lyapunov_grid(_grid(keys, size), x0, n=size.grid_iterations,
                              burn_in=SWEEP_BURN_IN)
    steps["lyapunov"] = time.perf_counter() - t
    return {"correlation": corr, "entropy": entropy, "lyapunov": grid, "steps": steps}


def sweeps_outputs(rctm, raw, size, workdir) -> dict:
    """Sweep aggregates, the skipped offsets, and the exact orbit of a few
    entropy-sweep keys through ``iterate_batch``."""
    corr, entropy = raw["correlation"], raw["entropy"]
    out = {f"correlation.{name}": agg for name, agg in corr.aggregates().items()}
    skipped = [int(k) for k in corr.skipped_offsets]
    out["correlation.offsets"] = {"pairs": int(corr.pairs), "skipped": len(skipped),
                                  "skipped_sha256": _sha256(np.asarray(skipped, dtype="<i8"))}
    out["entropy.mean"] = float(entropy.mean_entropy)
    out["entropy.values"] = [float(v) for v in entropy.entropies]
    out["lyapunov.exponents"] = [float(e.exponent) for e in raw["lyapunov"]]
    mu, x0 = corr.base_key.mu, corr.base_key.x0
    keys = [rctm.make_key(mu, x0 + k * ENTROPY_INCREMENT)
            for k in range(min(BATCH_CHECK_KEYS, size.sequences))]
    out["batch.sha256"] = _sha256(rctm.iterate_batch(keys, BATCH_CHECK_STEPS))
    return out


@dataclass(frozen=True)
class Workload:
    run: Callable
    outputs: Callable
    uses_workdir: bool = False


WORKLOADS = {
    "battery": Workload(run_battery, battery_outputs),
    "cli_stream": Workload(run_cli_stream, cli_outputs, uses_workdir=True),
    "sweeps": Workload(run_sweeps, sweeps_outputs),
}
