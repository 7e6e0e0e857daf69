"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  The heavy criteria (the 20 x 10^6-bit battery) stay inside a
five-minute desk budget.
"""

import math
import time

import numpy as np
import pytest

from rctm.analysis import (
    correlation_sweep,
    entropy_sweep,
    keyspace_report,
    pearson_correlation,
)
from rctm.core import iterate, make_key, rctm_step
from rctm.dynamics import ctm_key, lyapunov, lyapunov_grid, phase_coverage
from rctm.ent import ent_battery, histogram_uniformity
from rctm.nist import ENTRY_NAMES, monobit, nist_battery
from rctm.prbg import (
    generate_bits,
    generate_quantized,
    pack_bytes,
    segmented_streams,
    unpack_bits,
)

MU, X0 = 61.81, 0.23
BATTERY_BURN_IN = 1000


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_nist_battery_20_streams():
    t0 = time.perf_counter()
    streams = segmented_streams(make_key(MU, X0), 20, 1_000_000,
                                burn_in=BATTERY_BURN_IN)
    battery = nist_battery(streams)
    elapsed = time.perf_counter() - t0
    by_name = {e.test: e for e in battery.entries}
    worst = min(by_name[n].passed_count for n in ENTRY_NAMES)
    detail = (f"min passed {worst}/20 across {len(ENTRY_NAMES)} entries, "
              f"battery passed={battery.passed}, {elapsed:.1f}s")
    ok = all(by_name[n].passed_count >= 19 for n in ENTRY_NAMES) and elapsed <= 300.0
    report("criterion 1 (NIST subset, 20 x 10^6 bits)", ok, detail)


def test_criterion_02_ent_battery_binary_megabyte():
    data = generate_quantized(make_key(MU, X0), 1_000_000, burn_in=BATTERY_BURN_IN)
    r = ent_battery(data)
    checks = {
        "entropy >= 7.999": r.entropy_bits_per_byte >= 7.999,
        "mean 127.5 +- 0.3": abs(r.arithmetic_mean - 127.5) <= 0.3,
        "|scc| <= 0.005": abs(r.serial_correlation) <= 0.005,
        "pi error <= 0.5%": r.monte_carlo_pi_error_pct <= 0.5,
        "chi2 pct in [1, 99]": 1.0 <= r.chi_square_percentile <= 99.0,
    }
    detail = (f"H={r.entropy_bits_per_byte:.5f} mean={r.arithmetic_mean:.4f} "
              f"scc={r.serial_correlation:.6f} pi_err={r.monte_carlo_pi_error_pct:.3f}% "
              f"chi2_pct={r.chi_square_percentile:.2f}%")
    report("criterion 2 (ENT battery, 10^6 bytes)", all(checks.values()),
           detail + " failures=" + str([k for k, v in checks.items() if not v]))


def test_criterion_03_lyapunov_tent_oracle_and_robust_grid():
    tent_dev = 0.0
    for mu in (1.1, 1.5, 1.9, 2.0):
        est = lyapunov(ctm_key(mu, X0), n=100_000)
        tent_dev = max(tent_dev, abs(est.exponent - math.log(mu)))
    grid = [2.0 + 98.0 * (j + 0.5) / 100.0 for j in range(100)]
    estimates = lyapunov_grid(grid, X0, n=10_000, burn_in=100)
    min_lambda = min(e.exponent for e in estimates)
    ok = tent_dev <= 0.01 and len(estimates) == 100 and min_lambda > 0.0
    report("criterion 3 (Lyapunov)", ok,
           f"tent |lambda - ln mu| max={tent_dev:.2e}, "
           f"robust grid min lambda={min_lambda:.4f} over {len(estimates)} points")


def test_criterion_04_phase_coverage():
    covs = {mu: phase_coverage(make_key(mu, X0), n=100_000, bins=1000)
            for mu in (3.13, 8.4, 20.33, 70.23)}
    report("criterion 4 (ergodic coverage)", all(c >= 0.99 for c in covs.values()),
           ", ".join(f"mu={mu}: {c:.4f}" for mu, c in covs.items()))


def test_criterion_05_differential_uaci_npcr():
    # mu-offsets of 2^-52 fall below an ulp of 93.23 and round away, so the
    # perturbation is applied to the seed at that magnitude
    sweep = correlation_sweep(make_key(93.23, X0), delta=2.0 ** -52,
                              pairs=100, length=10_000, vary="x0")
    uaci = sweep.aggregates()["uaci_pct"]["mean"]
    npcr = sweep.aggregates()["npcr_pct"]["mean"]
    ok = abs(uaci - 33.33) <= 0.5 and abs(npcr - 99.61) <= 0.2
    report("criterion 5 (differential, 100 pairs x 10^4)", ok,
           f"mean UACI={uaci:.4f}% (33.33 +- 0.5), mean NPCR={npcr:.4f}% (99.61 +- 0.2)")


def test_criterion_06_correlation_sweep():
    sweep = correlation_sweep(make_key(MU, X0), delta=2.0 ** -48,
                              pairs=1000, length=1000, vary="mu")
    max_abs = float(np.abs(sweep.correlations).max())
    mean_abs = float(np.abs(sweep.correlations).mean())
    ok = max_abs <= 0.15 and mean_abs <= 0.05
    report("criterion 6 (correlation, 10^3 pairs)", ok,
           f"max |r|={max_abs:.4f} (<=0.15), mean |r|={mean_abs:.4f} (<=0.05), "
           f"skipped offsets={list(sweep.skipped_offsets)}")


def test_criterion_07_histogram_uniformity():
    data = generate_quantized(make_key(MU, X0), 100_000, burn_in=BATTERY_BURN_IN)
    _, chi2, p = histogram_uniformity(data)
    report("criterion 7 (histogram, 10^5 samples)", p >= 0.01,
           f"chi2={chi2:.1f}, p={p:.4f} (>=0.01)")


def test_criterion_08_entropy_sweep():
    result = entropy_sweep(make_key(MU, X0), sequences=100, length=100_000)
    report("criterion 8 (entropy sweep, 100 x 10^5)",
           result.mean_entropy >= 7.99,
           f"mean entropy={result.mean_entropy:.5f} (>=7.99)")


def test_criterion_09_keyspace_accounting():
    r = keyspace_report(-16)
    expected_total = (math.log2(10.0 ** 16) + math.log2(98.0 * 10.0 ** 16)
                      + 2.0 * math.log2(10.0 ** 13))
    ok = (round(r.total_bits) == 199 and round(r.weak_key_adjusted_bits) == 198
          and r.total_bits == pytest.approx(expected_total, rel=1e-12)
          and r.weak_key_adjusted_bits == r.total_bits - 1.0)
    report("criterion 9 (key space)", ok,
           f"total={r.total_bits:.3f} bits (~199), adjusted={r.weak_key_adjusted_bits:.3f} (~198)")


def test_criterion_10_determinism_and_bit_sensitivity():
    key = make_key(MU, X0)
    a = generate_bits(key, 1_000_000)
    b = generate_bits(key, 1_000_000)
    identical = np.array_equal(a.bits, b.bits)
    c = generate_bits(make_key(MU, X0 + 2.0 ** -48), 1_000_000)
    hamming = float(np.mean(a.bits != c.bits))
    ok = identical and abs(hamming - 0.5) <= 0.01
    report("criterion 10 (determinism & sensitivity)", ok,
           f"identical reruns={identical}, hamming fraction={hamming:.5f} (0.5 +- 0.01)")


def test_criterion_11_property_suite():
    rng = np.random.default_rng(2024)
    failures = []

    # range closure over random keys, random points and boundary probes
    for _ in range(300):
        mu = float(rng.uniform(2.0001, 99.9999))
        if mu == int(mu):
            continue
        key = make_key(mu, float(rng.uniform(1e-6, 1.0 - 1e-6)))
        probes = [float(v) for v in rng.uniform(0.0, 1.0, size=8)]
        probes += [0.0, 0.5, 1.0, key.n1, key.n2]
        if not all(0.0 <= rctm_step(x, key) <= 1.0 for x in probes):
            failures.append(f"range closure at mu={mu}")
            break

    # pack/unpack round trip on multiple-of-8 lengths
    for n in (8, 128, 10_000):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        data, pad = pack_bytes(bits)
        if pad != 0 or not np.array_equal(unpack_bits(data), bits):
            failures.append(f"pack round-trip at n={n}")

    # region symmetry within one ulp
    for _ in range(300):
        mu = float(rng.uniform(2.0001, 99.9999))
        if mu == int(mu):
            continue
        key = make_key(mu, 0.5)
        if abs(key.n1 + key.n2 - 1.0) > np.spacing(1.0):
            failures.append(f"n1+n2 at mu={mu}")
            break

    # branch tie rules: bounds take the scaled branch, 0.5 the upper branch
    from rctm.core import log_derivative

    key = make_key(MU, X0)
    internal = math.log(key.mu / key.scale)
    if log_derivative(key.n1, key) != internal or log_derivative(key.n2, key) != internal:
        failures.append("boundary tie rule")
    if rctm_step(0.5, key) != 1.0:
        failures.append("x = 0.5 tie rule")

    # monobit p-values approximately uniform across 200 disjoint segments
    segs = segmented_streams(key, 200, 10_000, burn_in=BATTERY_BURN_IN)
    ps = np.sort([monobit(s)[1] for s in segs])
    grid = np.arange(1, 201) / 200.0
    ks = max(float(np.abs(ps - grid).max()), float(np.abs(ps - grid + 1 / 200).max()))
    if ks >= 1.628 / math.sqrt(200):
        failures.append(f"p-value uniformity KS={ks:.4f}")

    # determinism of iterate as a pure function
    t1 = iterate(key, 5000, burn_in=11).values
    t2 = iterate(key, 5000, burn_in=11).values
    if not np.array_equal(t1, t2):
        failures.append("iterate determinism")

    # trajectory/bit cross-check: sensitivity restated on trajectories
    a = iterate(key, 1000, burn_in=100).values
    b = iterate(make_key(MU, X0 + 2.0 ** -48), 1000, burn_in=100).values
    if abs(pearson_correlation(a, b)) > 0.15:
        failures.append("trajectory sensitivity")

    report("criterion 11 (property suites)", not failures,
           "all properties hold" if not failures else f"failed: {failures}")
