import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rctm import ent
from rctm.core import make_key
from rctm.ent import byte_entropy, ent_battery, histogram_uniformity
from rctm.prbg import generate_quantized


def uniform_bytes(repeats=4):
    return bytes(range(256)) * repeats


class TestByteEntropy:
    def test_uniform_is_eight_bits(self):
        assert byte_entropy(uniform_bytes()) == pytest.approx(8.0, abs=1e-12)

    def test_constant_is_zero(self):
        assert byte_entropy(b"\x00" * 512) == 0.0

    def test_matches_counter_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=3000, dtype=np.uint8)
        expected = -sum((c / 3000) * math.log2(c / 3000)
                        for c in Counter(data.tolist()).values())
        assert byte_entropy(data) == pytest.approx(expected, rel=1e-12)

    def test_never_exceeds_eight_bits(self):
        rng = np.random.default_rng(6)
        for size in (256, 1000, 5000):
            data = rng.integers(0, 256, size=size, dtype=np.uint8)
            h = byte_entropy(data)
            assert h <= 8.0
            if np.unique(data).size < 256 or np.bincount(data).std() > 0:
                assert h < 8.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            byte_entropy(b"")


class TestEntBattery:
    def test_uniform_input(self):
        report = ent_battery(uniform_bytes())
        assert report.entropy_bits_per_byte == pytest.approx(8.0, abs=1e-12)
        assert report.optimum_compression_pct == 0.0
        assert report.arithmetic_mean == pytest.approx(127.5)
        assert report.chi_square_stat == 0.0
        assert report.chi_square_percentile == pytest.approx(100.0)

    def test_constant_input(self):
        report = ent_battery(b"\x00" * 1024)
        assert report.entropy_bits_per_byte == 0.0
        assert report.optimum_compression_pct == 100.0
        assert report.arithmetic_mean == 0.0
        assert report.chi_square_percentile == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(report.serial_correlation)
        # every 6-byte point is the origin, inside the circle
        assert report.monte_carlo_pi == pytest.approx(4.0)

    def test_monte_carlo_known_points(self):
        # (0,0) lies inside; (2^24-1, 2^24-1) lies outside: pi estimate 2.0
        data = b"\x00" * 6 + b"\xff" * 6
        report = ent_battery(data)
        assert report.monte_carlo_pi == pytest.approx(2.0)
        assert report.monte_carlo_pi_error_pct == pytest.approx(
            abs(2.0 - math.pi) / math.pi * 100.0)

    def test_serial_correlation_alternating_is_minus_one(self):
        data = bytes([0, 255] * 300)
        report = ent_battery(data)
        assert report.serial_correlation == pytest.approx(-1.0, abs=1e-12)

    def test_serial_correlation_matches_sum_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=500, dtype=np.uint8)
        x = data.astype(float)
        n = 500
        # lag-1 with the last byte paired back to the first
        t1 = sum(x[i] * x[(i + 1) % n] for i in range(n))
        t2 = x.sum() ** 2
        t3 = (x * x).sum()
        expected = (n * t1 - t2) / (n * t3 - t2)
        report = ent_battery(data)
        assert report.serial_correlation == pytest.approx(expected, rel=1e-10)

    def test_chi_square_matches_direct_sum(self):
        rng = np.random.default_rng(8)
        data = rng.integers(0, 256, size=2048, dtype=np.uint8)
        counts = Counter(data.tolist())
        expected = 2048 / 256
        chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(256))
        report = ent_battery(data)
        assert report.chi_square_stat == pytest.approx(chi2, rel=1e-12)

    def test_compression_is_rounded_whole_percent(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 4, size=4096, dtype=np.uint8)  # ~2 bits/byte
        report = ent_battery(data)
        expected = round((8.0 - report.entropy_bits_per_byte) / 8.0 * 100.0)
        assert report.optimum_compression_pct == expected
        assert report.optimum_compression_pct == 75.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ent_battery(b"")

    def test_generator_bytes_look_uniform(self):
        data = generate_quantized(make_key(61.81, 0.23), 200_000, burn_in=1000)
        report = ent_battery(data)
        assert report.entropy_bits_per_byte >= 7.99
        assert abs(report.arithmetic_mean - 127.5) <= 0.5
        assert abs(report.serial_correlation) <= 0.01
        assert 0.1 <= report.chi_square_percentile <= 99.9
        assert report.n_bytes == 200_000


# before the check, 2-D input failed inside np.bincount ("object too deep")
@pytest.mark.parametrize("func", [byte_entropy, histogram_uniformity, ent_battery])
@pytest.mark.parametrize("shape", [(), (16, 16)])
def test_input_of_other_than_one_dimension_is_refused_by_name(func, shape):
    data = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match=f"^byte input must be one-dimensional, got {len(shape)} "):
        func(data)


def float_formulas(data: np.ndarray) -> tuple:
    """Counts, mean, Monte Carlo pi and serial correlation as the classic tool
    computes them: from float64 copies of the whole byte sequence."""
    x = data.astype(np.float64)
    groups = x[:(x.size // 6) * 6].reshape(-1, 6)
    pi = float("nan")
    if groups.shape[0]:
        mx = groups[:, 0] * 65536.0 + groups[:, 1] * 256.0 + groups[:, 2]
        my = groups[:, 3] * 65536.0 + groups[:, 4] * 256.0 + groups[:, 5]
        inside = int(np.count_nonzero(mx * mx + my * my <= (256.0 ** 3 - 1.0) ** 2))
        pi = 4.0 * inside / groups.shape[0]
    n = float(x.size)
    t1 = float(np.dot(x, np.roll(x, -1)))
    t2 = float(x.sum()) ** 2
    t3 = float(np.dot(x, x))
    den = n * t3 - t2
    serial = float("nan") if den == 0.0 else (n * t1 - t2) / den
    return np.bincount(data, minlength=256).tolist(), float(data.mean()), pi, serial


# around one slice, and the Monte Carlo slice of _SLICE // 6 six-byte groups
SLICE_SIZES = sorted({s + d for s in (ent._SLICE, 2 * ent._SLICE, ent._SLICE // 6 * 6)
                      for d in (-7, -6, -1, 0, 1, 6, 7)})
RNG = np.random.default_rng(15)
EXACTNESS_INPUTS = {
    "constant": np.full(1000, 77, dtype=np.uint8),
    "all_255": np.full(1000, 255, dtype=np.uint8),
    "alternating_0_255": np.tile(np.array([0, 255], dtype=np.uint8), 500),
    "random": RNG.integers(0, 256, size=300_001, dtype=np.uint8),
    **{f"random_{n}": RNG.integers(0, 256, size=n, dtype=np.uint8) for n in range(1, 14)},
    **{f"all_255_{n}": np.full(n, 255, dtype=np.uint8) for n in range(1, 14)},
    **{f"slice_{n}": RNG.integers(0, 256, size=n, dtype=np.uint8) for n in SLICE_SIZES},
}


@pytest.mark.parametrize("name", EXACTNESS_INPUTS)
def test_integer_sums_equal_the_float_formulas_bit_for_bit(name):
    data = EXACTNESS_INPUTS[name]
    counts, mean, pi, serial = float_formulas(data)
    report = ent_battery(data)
    assert histogram_uniformity(data)[0].tolist() == counts
    got = (report.arithmetic_mean, report.monte_carlo_pi, report.serial_correlation)
    # hex strings: equal bits, NaN included
    assert [float(v).hex() for v in got] == [float(v).hex() for v in (mean, pi, serial)]
    if np.all(data == data[0]):  # a constant sequence has no serial correlation
        assert math.isnan(report.serial_correlation)


def test_battery_traces_little_memory_beyond_its_input():
    data = generate_quantized(make_key(61.81, 0.23), 10**6, burn_in=1000)
    tracemalloc.start()
    try:
        ent_battery(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float64 copies of the input alone would be 8 MB each
    assert peak < 2 * 2**20
