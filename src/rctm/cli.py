"""Command-line front end: key entry, stream generation, test batteries,
analysis sweeps and dataset/report export.

Exit codes: 0 on success, 1 on invalid parameters or unwritable output,
2 when a test battery runs but misses its acceptance thresholds.  All file
output is byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, core, dynamics, nist
from .core import MapKey, make_key
from .ent import ent_battery
from .prbg import DEGENERATE_TAIL, orbit_stream, packed_chunks, segmented_streams

# ENT gate values, calibrated for the standard 10^6-byte battery run
ENT_THRESHOLDS = {
    "min_entropy": 7.999,
    "mean_tolerance": 0.3,
    "max_serial_correlation": 0.005,
    "max_pi_error_pct": 0.5,
    "chi_square_percentile_range": (1.0, 99.0),
}


# The tuning options of `sweep` and `analyze-dynamics` default to None, "not given".
# Per --kind or --what, each table maps the options it reads to the library parameter
# they fill (None: read by the command).  An option left out takes that parameter's
# default; one given to a kind that does not read it is refused before any output, and
# a value the parameter it fills refuses is refused under the option's name.
_PERTURBATION = {"delta": "delta", "vary": "vary", "length": "length", "burn_in": "burn_in"}
SWEEP_READS = {
    "correlation": {**_PERTURBATION, "pairs": "pairs", "pairs_csv": None},
    "differential": {**_PERTURBATION, "pairs": "pairs", "pairs_csv": None},
    "sensitivity": {**_PERTURBATION, "sequences": "sequences"},
    "entropy": {"delta": "seed_increment", "sequences": "sequences", "length": "length",
                "burn_in": "burn_in"},
}
DYNAMICS_READS = {
    "bifurcation": {"burn_in": "settle", "iterations": "keep"},
    "lyapunov": {"burn_in": "burn_in", "iterations": "n"},
    "coverage": {"iterations": "n", "bins": "bins"},
}
# the mu grid of analyze-dynamics, which a single --mu replaces
GRID_READS = {
    "grid": {"mu_min": "mu_min", "mu_max": "mu_max", "grid_points": "grid_points"},
    "single": {},
}


def _given(args, table: dict, kind: str, owner: str) -> dict:
    """Keyword arguments from the options of ``table`` given on the command
    line; one that ``kind`` does not read is refused, naming ``owner``."""
    reads = table[kind]
    kwargs = {}
    for dest in dict.fromkeys(d for options in table.values() for d in options):
        value = getattr(args, dest)
        if value is None:
            continue
        if dest not in reads:
            raise ValueError(f"--{dest.replace('_', '-')} is not read by {owner}")
        if reads[dest]:
            kwargs[reads[dest]] = value
    return kwargs


@contextlib.contextmanager
def _under_options(reads: dict, kwargs: dict):
    """Re-raise a library refusal, "<param> must be <condition>", under the
    option of ``reads`` that filled ``param`` in ``kwargs``."""
    try:
        yield
    except ValueError as exc:
        param, _, rest = str(exc).partition(" must be ")
        given = {p: dest for dest, p in reads.items() if p in kwargs}
        if param not in given:
            raise
        raise ValueError(f"--{given[param].replace('_', '-')} must be {rest}") from exc


def _used(func, kwargs: dict, name: str):
    """The value ``func`` runs with for parameter ``name``: given, or its default."""
    return kwargs.get(name, inspect.signature(func).parameters[name].default)


def _parse_float(text: str) -> float:
    """Decimal or C99 hex float literal (e.g. 0x1p-48) to binary64."""
    try:
        return float(text)
    except ValueError:
        return float.fromhex(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # keep reports strict-JSON parseable
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _key_meta(key: MapKey) -> dict:
    return {
        "mu": key.mu,
        "mu_hex": float(key.mu).hex(),
        "x0": key.x0,
        "x0_hex": float(key.x0).hex(),
        "n1": key.n1,
        "n2": key.n2,
        "key_fingerprint": key.fingerprint(),
    }


def _health(degenerate: bool) -> dict:
    """The stream-health fields of a report; warns on stderr about a degenerate tail."""
    if degenerate:
        print(f"warning: degenerate orbit, last {DEGENERATE_TAIL} samples identical "
              "(stream written anyway)", file=sys.stderr)
    return {"degenerate_tail": degenerate}


def _write_bits(paths: list[str], bits_per_file: int, pieces, fmt: str) -> bool:
    """Write the pieces of ``packed_chunks`` as they arrive, one segment to
    each path in turn, and return the stream's degenerate flag: raw as they
    are, so each file holds ``pack_bytes`` of its bits; ascii-bits unpacked to
    '0'/'1' characters, with a trailing newline."""
    pieces = itertools.chain([next(pieces)], pieces)  # checks the counts before any file is opened
    for path in paths:
        with open(path, "wb") as fh:
            left = bits_per_file
            while left:
                piece, degenerate = next(pieces)
                bits = min(left, 8 * piece.size)
                left -= bits
                fh.write(piece if fmt == "raw" else np.unpackbits(piece, count=bits) + ord("0"))
            if fmt == "ascii-bits":
                fh.write(b"\n")
    return degenerate


def _pad_bits(bits: int, fmt: str) -> int:
    """Zero bits that fill the last raw byte; ascii-bits pads nothing."""
    return (-bits) % 8 if fmt == "raw" else 0


def _check_bits(count: int, option: str, floor: int = 1) -> None:
    """Refuse a count option below floor under the option's name, before any
    library call or product of it."""
    if count < floor:
        raise ValueError(f"{option} must be >= {floor}, got {count}")


def cmd_generate(args) -> int:
    _check_bits(args.bits, "--bits")
    _check_bits(args.burn_in, "--burn-in", 0)
    key = make_key(args.mu, args.x0)
    pieces = packed_chunks(key, 1, args.bits, args.burn_in)
    health = _health(_write_bits([args.output], args.bits, pieces, args.format))
    if args.meta:
        meta = {
            "command": "generate",
            **_key_meta(key),
            "bits": args.bits,
            "burn_in": args.burn_in,
            "format": args.format,
            "pad_bits": _pad_bits(args.bits, args.format),
            **health,
            "kernel": core.KERNEL,
        }
        _write_json(args.output + ".meta.json", meta)
    return 0


def cmd_export(args) -> int:
    _check_bits(args.bits, "--bits")
    _check_bits(args.segments, "--segments")
    _check_bits(args.burn_in, "--burn-in", 0)
    key = make_key(args.mu, args.x0)
    ext = "txt" if args.format == "ascii-bits" else "bin"
    paths = [f"{args.output}_{i:03d}.{ext}" for i in range(args.segments)]
    pieces = packed_chunks(key, args.segments, args.bits, args.burn_in)
    health = _health(_write_bits(paths, args.bits, pieces, args.format))
    pad = _pad_bits(args.bits, args.format)
    manifest = {
        "command": "export",
        **_key_meta(key),
        "segments": args.segments,
        "bits_per_segment": args.bits,
        "burn_in": args.burn_in,
        "format": args.format,
        "files": [{"file": path, "segment": i, "bits": args.bits, "pad_bits": pad}
                  for i, path in enumerate(paths)],
        **health,
        "kernel": core.KERNEL,
    }
    _write_json(f"{args.output}_manifest.json", manifest)
    return 0


def _mu_grid(mu_min: float = 2.001, mu_max: float = 99.999,
             grid_points: int = 200) -> list[float]:
    _check_bits(grid_points, "--grid-points")
    for option, value in (("--mu-min", mu_min), ("--mu-max", mu_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value!r}")
    return [float(v) for v in np.linspace(mu_min, mu_max, grid_points)]


def cmd_analyze_dynamics(args) -> int:
    kwargs = _given(args, DYNAMICS_READS, args.what, f"--what {args.what}")
    spec = _given(args, GRID_READS, "grid" if args.mu is None else "single",
                  f"--what {args.what} with --mu")
    grid = _mu_grid(**spec) if args.mu is None else [args.mu]
    keys, skipped = dynamics.grid_keys(grid, args.x0)
    supported = [key.mu for key in keys]
    with _under_options(DYNAMICS_READS[args.what], kwargs):
        if args.what == "bifurcation":
            result = dynamics.bifurcation_sample(supported, args.x0, **kwargs)
            header, rows = ["mu", "x"], list(zip(result.mu.tolist(), result.x.tolist()))
            doc = {"what": "bifurcation", "x0": args.x0, "burn_in": result.settle,
                   "iterations": result.keep, "skipped_mu": skipped,
                   "points": [list(row) for row in rows]}
        elif args.what == "lyapunov":
            estimates = dynamics.lyapunov_grid(supported, args.x0, **kwargs)
            header, rows = ["mu", "lambda"], [(e.mu, e.exponent) for e in estimates]
            doc = {"what": "lyapunov", "x0": args.x0,
                   "iterations": _used(dynamics.lyapunov_grid, kwargs, "n"),
                   "burn_in": _used(dynamics.lyapunov_grid, kwargs, "burn_in"),
                   "skipped_mu": skipped,
                   "estimates": [{"mu": e.mu, "lambda": e.exponent,
                                  "n_samples": e.n_samples} for e in estimates]}
        else:
            header, rows = ["mu", "coverage"], dynamics.phase_coverage(supported, args.x0, **kwargs)
            doc = {"what": "coverage", "x0": args.x0,
                   "iterations": _used(dynamics.phase_coverage, kwargs, "n"),
                   "bins": _used(dynamics.phase_coverage, kwargs, "bins"), "skipped_mu": skipped,
                   "points": [{"mu": mu, "coverage": cov} for mu, cov in rows]}
    if skipped:
        print(f"skipped unsupported mu values: {skipped}", file=sys.stderr)
    if args.format == "csv":
        _write_csv(args.output, header, ((repr(mu), repr(v)) for mu, v in rows))
    else:
        _write_json(args.output, doc)
    return 0


def cmd_test_nist(args) -> int:
    _check_bits(args.bits, "--bits", nist.SUBSET_MIN_BITS)
    _check_bits(args.streams, "--streams")
    _check_bits(args.burn_in, "--burn-in", 0)
    key = make_key(args.mu, args.x0)
    streams = segmented_streams(key, args.streams, args.bits, burn_in=args.burn_in)
    report = nist.nist_battery(streams)
    payload = {
        "battery": report.battery,
        "alpha": nist.ALPHA,
        "stream_meta": {**report.stream_meta, "burn_in": args.burn_in,
                        **_health(streams[0].degenerate)},
        "entries": [asdict(e) for e in report.entries],
        "passed": report.passed,
        "kernel": core.KERNEL,
    }
    _write_json(args.output, payload)
    if not report.passed:
        print("nist battery below minimum pass proportion", file=sys.stderr)
        return 2
    return 0


def _ent_checks(report) -> dict[str, bool]:
    lo, hi = ENT_THRESHOLDS["chi_square_percentile_range"]
    return {
        "entropy": report.entropy_bits_per_byte >= ENT_THRESHOLDS["min_entropy"],
        "arithmetic_mean": abs(report.arithmetic_mean - 127.5) <= ENT_THRESHOLDS["mean_tolerance"],
        "serial_correlation": (math.isfinite(report.serial_correlation)
                               and abs(report.serial_correlation) <= ENT_THRESHOLDS["max_serial_correlation"]),
        "monte_carlo_pi": (math.isfinite(report.monte_carlo_pi_error_pct)
                           and report.monte_carlo_pi_error_pct <= ENT_THRESHOLDS["max_pi_error_pct"]),
        "chi_square": lo <= report.chi_square_percentile <= hi,
    }


def cmd_test_ent(args) -> int:
    _check_bits(args.bytes, "--bytes")
    _check_bits(args.burn_in, "--burn-in", 0)
    key = make_key(args.mu, args.x0)
    data, degenerate = orbit_stream(key, args.bytes, args.burn_in)
    report = ent_battery(data)
    checks = _ent_checks(report)
    payload = {
        "battery": "ent",
        "stream_meta": {**_key_meta(key), "bytes": args.bytes, "burn_in": args.burn_in,
                        **_health(degenerate)},
        "report": asdict(report),
        "thresholds": _jsonable(ENT_THRESHOLDS),
        "checks": checks,
        "passed": all(checks.values()),
        "kernel": core.KERNEL,
    }
    _write_json(args.output, payload)
    if not payload["passed"]:
        failing = [k for k, ok in checks.items() if not ok]
        print(f"ent battery outside thresholds: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    kwargs = _given(args, SWEEP_READS, args.kind, f"--kind {args.kind}")
    key = make_key(args.mu, args.x0)
    with _under_options(SWEEP_READS[args.kind], kwargs):
        if args.kind in ("correlation", "differential"):
            result = analysis.correlation_sweep(key, **kwargs)
            payload = {
                "kind": args.kind,
                "base_key": _key_meta(result.base_key),
                "vary": result.vary,
                "delta": result.delta,
                "delta_hex": float(result.delta).hex(),
                "pairs": result.pairs,
                "length": result.length,
                "burn_in": result.burn_in,
                "skipped_offsets": list(result.skipped_offsets),
                "aggregates": result.aggregates(),
            }
            if args.pairs_csv:
                _write_csv(args.pairs_csv, ["pair", "correlation", "uaci_pct", "npcr_pct"],
                           ((i + 1, repr(float(result.correlations[i])),
                             repr(float(result.uaci_pct[i])), repr(float(result.npcr_pct[i])))
                            for i in range(result.pairs)))
        elif args.kind == "sensitivity":
            result = analysis.key_sensitivity_run(key, **kwargs)
            payload = {
                "kind": "sensitivity",
                "case": f"vary_{result.vary}",
                "base_key": _key_meta(key),
                "delta": result.delta,
                "delta_hex": float(result.delta).hex(),
                "sequences": len(result.keys),
                "length": result.states.shape[1],
                "burn_in": result.burn_in,
                "offsets": list(result.offsets),
                "skipped_offsets": list(result.skipped_offsets),
                "pairwise_correlations": result.pairwise_correlations,
                "max_abs_off_diagonal": result.max_off_diagonal(),
                "preview": result.preview,
            }
        else:
            result = analysis.entropy_sweep(key, **kwargs)
            payload = {
                "kind": "entropy",
                "base_key": _key_meta(key),
                "sequences": result.sequences,
                "length": result.length,
                "burn_in": result.burn_in,
                "seed_increment": result.seed_increment,
                "mean_entropy": result.mean_entropy,
                "entropies": result.entropies,
            }
    _write_json(args.output, payload)
    return 0


def cmd_keyspace(args) -> int:
    _write_json(args.output, asdict(analysis.keyspace_report(args.precision_exponent)))
    return 0


def _add_key_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=_parse_float, required=True,
                   help="control parameter (decimal or hex float literal)")
    p.add_argument("--x0", type=_parse_float, required=True,
                   help="initial condition in (0, 1)")


def _read_by(table: dict, dest: str) -> str:
    return "read by " + ", ".join(kind for kind, reads in table.items() if dest in reads)


_TUNING = ("A tuning option left out takes the default of the function it reaches "
           "(see README); one that the chosen kind does not read is refused (exit 1).")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rctm",
        description="Robust chaotic tent map bit generator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a thresholded bitstream")
    _add_key_args(p)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--format", choices=("raw", "ascii-bits"), default="raw")
    p.add_argument("--meta", action="store_true", help="write a sidecar .meta.json")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export", help="write disjoint stream segments plus a manifest")
    _add_key_args(p)
    p.add_argument("--bits", type=int, required=True, help="bits per segment")
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--format", choices=("raw", "ascii-bits"), default="raw")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("analyze-dynamics", help="bifurcation, Lyapunov or coverage datasets",
                       description=_TUNING)
    p.add_argument("--what", choices=("bifurcation", "lyapunov", "coverage"), required=True)
    p.add_argument("--mu", type=_parse_float, help="single mu (in place of a grid)")
    p.add_argument("--mu-min", type=_parse_float, help="grid start")
    p.add_argument("--mu-max", type=_parse_float, help="grid end")
    p.add_argument("--grid-points", type=int, help="grid size; no grid option is read with --mu")
    p.add_argument("--x0", type=_parse_float, default=0.23)
    p.add_argument("--iterations", type=int,
                   help="samples per mu; " + _read_by(DYNAMICS_READS, "iterations"))
    p.add_argument("--burn-in", type=int,
                   help="samples skipped first; " + _read_by(DYNAMICS_READS, "burn_in"))
    p.add_argument("--bins", type=int, help="coverage cells; " + _read_by(DYNAMICS_READS, "bins"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_analyze_dynamics)

    p = sub.add_parser("test-nist", help="run the in-house NIST SP 800-22 subset")
    _add_key_args(p)
    p.add_argument("--streams", type=int, default=20)
    p.add_argument("--bits", type=int, default=1_000_000, help="bits per stream")
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_test_nist)

    p = sub.add_parser("test-ent", help="run the ENT-style byte battery")
    _add_key_args(p)
    p.add_argument("--bytes", type=int, default=1_000_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_test_ent)

    p = sub.add_parser("sweep", help="perturbation and entropy sweeps", description=_TUNING)
    p.add_argument("--kind", choices=("correlation", "differential", "sensitivity", "entropy"),
                   required=True)
    _add_key_args(p)
    p.add_argument("--delta", type=_parse_float,
                   help="step between successive keys, in x0 for entropy (decimal or hex "
                        "float, e.g. 0x1p-48); " + _read_by(SWEEP_READS, "delta"))
    p.add_argument("--vary", choices=("mu", "x0"),
                   help="perturbed parameter; " + _read_by(SWEEP_READS, "vary"))
    p.add_argument("--pairs", type=int, help=_read_by(SWEEP_READS, "pairs"))
    p.add_argument("--sequences", type=int, help=_read_by(SWEEP_READS, "sequences"))
    p.add_argument("--length", type=int,
                   help="samples per orbit; " + _read_by(SWEEP_READS, "length"))
    p.add_argument("--burn-in", type=int,
                   help="samples skipped before each orbit; " + _read_by(SWEEP_READS, "burn_in"))
    p.add_argument("--pairs-csv", help="also write per-pair metrics as CSV; "
                                       + _read_by(SWEEP_READS, "pairs_csv"))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("keyspace", help="key-space accounting report")
    p.add_argument("--precision-exponent", type=int, default=-16)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_keyspace)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InvalidKeyError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
