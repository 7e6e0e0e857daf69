"""Self-tests of the benchmark, at the tiny size (about ten seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that every declared metric is
printed with its unit on every workload, that a corrupted output (one
flipped bit, one altered p-value) counts as a failed operation, that the
self times of a traced run account for its wall time, that each step is
scaled to the reference speed by the loop timings around it, and that the
benchmark refuses to run without the rctm sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import rctm  # noqa: E402
import rctm.cli  # noqa: E402,F401
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SEED = inputs.DEFAULT_SEED
TINY = workloads.SIZES["tiny"]


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _reference(workload: str) -> dict:
    with open(HERE / "reference" / f"tiny-seed{SEED}.json") as fh:
        return json.load(fh)[workload]


def test_every_metric_on_every_workload():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            done = _run_bench(ROOT, "--workload", w["name"], "--seed", str(SEED),
                              "--seconds", "1", "--trace", trace, "--size", "tiny")
            assert done.returncode == 0, done.stderr
            report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert report["error_rate"] == 0.0
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (w["name"], trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name


def test_corrupted_outputs_fail():
    raw = workloads.run_battery(rctm, inputs.workload_keys(SEED), TINY, None)
    reference = _reference("battery")
    sample = workloads.setup_sample(rctm, rctm.make_key(*inputs.workload_keys(SEED)["battery"]))

    def failures(raw_result, edit=None):
        outputs = workloads.battery_outputs(rctm, raw_result, TINY, None)
        outputs["setup.sample"] = sample
        if edit:
            edit(outputs)
        attempted, failed = verify.compare(reference, outputs)
        return len(failed) / attempted

    assert failures(raw) == 0.0
    stream = raw["streams"][0]
    flipped = stream.bits.copy()
    flipped[len(flipped) // 2] ^= 1
    corrupted = {**raw, "streams": [replace(stream, bits=flipped), *raw["streams"][1:]]}
    assert failures(corrupted) > 0.0

    def alter_p_value(outputs):
        row = outputs["stream00.outcomes"][0]
        row["p_value"] *= 1.0 + 1e-9

    assert failures(raw, alter_p_value) > 0.0


def test_self_times_account_for_wall_time():
    tracer = tracing.Tracer()
    replaced = tracing.instrument(rctm, tracer)
    try:
        tracer.open("bench.workload")
        workloads.run_battery(rctm, inputs.workload_keys(SEED), TINY, None)
        tracer.close()
    finally:
        tracing.restore(replaced)
    assert rctm.nist.nist_battery.__module__ == "rctm.nist"  # restored
    root = tracer.spans[0]
    wall = root[2] - root[1]
    layer_self = tracer.layer_self()
    assert abs(sum(layer_self.values()) - wall) <= 1e-9 * max(1.0, wall)
    covered = sum(layer_self.get(layer, 0.0) for layer in ("core", "prbg", "nist"))
    assert covered >= 0.9 * wall, (covered, wall)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["core.samples"] == TINY.streams * TINY.stream_bits
    assert all(metrics[f"nist.{t}_ms"] > 0 for t in tracing.NIST_TESTS)


def test_steps_scaled_by_the_loop_around_them():
    def loop(seconds):
        return {"scalar_s": seconds / 2, "vector_s": seconds / 2}

    nominal, slow = loop(calibrate.NOMINAL_S), loop(2 * calibrate.NOMINAL_S)
    assert math.isclose(calibrate.scaled_time([1.0, 2.0], [nominal] * 3), 3.0)
    # the second step ran between a nominal and a half-speed loop
    assert math.isclose(calibrate.scaled_time([1.0, 2.0], [nominal, nominal, slow]),
                        1.0 + 2.0 / 1.5)
    # loop timed only before and after (a traced repeat): one scale for all
    assert math.isclose(calibrate.scaled_time([1.0, 2.0], [nominal, slow]), 3.0 / 1.5)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_bench(bare, "--workload", "battery", "--seed", "0", "--seconds", "1")
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
