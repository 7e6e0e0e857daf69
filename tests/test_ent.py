import math
from collections import Counter

import numpy as np
import pytest

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
