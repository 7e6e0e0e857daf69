"""Pin the reference outputs every benchmark repeat is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py [--size full|tiny] [--seed N ...]

Run from the root of a checkout.  Writes ``reference/<size>-seed<N>.json``
with the named outputs of every workload for pool seed N (default: all of
them, both sizes).  Rerun only when an output is meant to change; a
reference written by faulty code turns the check into a no-op.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent


def reference(rctm, size_name: str, seed: int, scratch: Path) -> dict:
    size = workloads.SIZES[size_name]
    keys = inputs.workload_keys(seed)
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = scratch / name
        workdir.mkdir(parents=True)
        try:
            raw = workload.run(rctm, keys, size, str(workdir))
            outputs = workload.outputs(rctm, raw, size, str(workdir))
        finally:
            shutil.rmtree(workdir)
        outputs["setup.sample"] = workloads.setup_sample(rctm, rctm.make_key(*keys[name]))
        out[name] = outputs
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "tiny"), action="append")
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    import rctm
    import rctm.cli  # noqa: F401
    scratch = Path.cwd() / ".perfbench" / "reference-work"
    shutil.rmtree(scratch, ignore_errors=True)
    for size in args.size or ("tiny", "full"):
        for seed in args.seed or range(inputs.POOL):
            data = reference(rctm, size, inputs.pool_seed(seed), scratch)
            path = HERE / "reference" / f"{size}-seed{inputs.pool_seed(seed)}.json"
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(HERE)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
