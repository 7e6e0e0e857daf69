import itertools
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import erfc, gammaincc, ndtr

from rctm import nist, prbg
from rctm.core import make_key
from rctm.nist import (
    ENTRY_NAMES,
    approximate_entropy,
    block_frequency,
    cusum_forward,
    cusum_reverse,
    dft,
    longest_run,
    min_proportion,
    monobit,
    nist_battery,
    runs,
    serial,
    stream_outcomes,
)
from rctm.prbg import BitStream, generate_bits, segmented_streams


def bits_of(text):
    return np.frombuffer(text.replace(" ", "").encode(), dtype=np.uint8) - ord("0")


def stream(n, density):
    """n seeded bits, each 1 with probability density, or 0101... for "alternating"."""
    if density == "alternating":
        return (np.arange(n) % 2).astype(np.uint8)
    return (np.random.default_rng(n).random(n) < density).astype(np.uint8)


# 100-bit reference vector used by several known-answer checks
E100 = bits_of(
    "1100100100001111110110101010001000100001011010001100"
    "001000110100110001001100011001100010100010111000"
)


class TestMonobit:
    def test_known_vector_10(self):
        stat, p = monobit(bits_of("1011010101"))
        assert stat == pytest.approx(0.632456, abs=1e-6)
        assert p == pytest.approx(0.527089, abs=1e-6)

    def test_known_vector_100(self):
        stat, p = monobit(E100)
        assert stat == pytest.approx(1.6, abs=1e-12)
        assert p == pytest.approx(0.109599, abs=1e-6)

    def test_all_ones_fails_hard(self):
        stat, p = monobit(np.ones(100, dtype=np.uint8))
        # s_obs = 100/sqrt(100) = 10
        assert stat == pytest.approx(10.0)
        assert p == pytest.approx(erfc(10.0 / math.sqrt(2)), rel=1e-9)
        assert p < 1e-20

    def test_alternating_is_perfectly_balanced(self):
        bits = np.tile([0, 1], 5000).astype(np.uint8)
        _, p = monobit(bits)
        assert p == 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            monobit(np.ones(0, dtype=np.uint8))


class TestBlockFrequency:
    def test_known_vector(self):
        stat, p = block_frequency(bits_of("0110011010"), block_size=3)
        assert stat == pytest.approx(1.0, abs=1e-9)
        assert p == pytest.approx(0.801252, abs=1e-6)

    def test_matches_direct_chi_square(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=1280, dtype=np.uint8)
        stat, p = block_frequency(bits, block_size=128)
        chunks = [bits[i:i + 128].mean() for i in range(0, 1280, 128)]
        chi2 = 4 * 128 * sum((c - 0.5) ** 2 for c in chunks)
        assert stat == pytest.approx(chi2, rel=1e-12)
        assert p == pytest.approx(float(gammaincc(5.0, chi2 / 2)), rel=1e-12)

    # blocks of whole bytes and not (3, 100, 9999), over several slices at this length
    @pytest.mark.parametrize("block_size", [3, 8, 100, 128, 9999])
    def test_equals_the_block_mean_to_the_bit(self, block_size):
        bits = stream(2**17 + 3, 0.5)
        nblocks = bits.size // block_size
        pis = bits[:nblocks * block_size].reshape(nblocks, block_size).mean(axis=1)
        chi2 = 4.0 * block_size * float(np.sum((pis - 0.5) ** 2))
        assert block_frequency(bits, block_size) == (chi2, nist._gamma_q(nblocks / 2.0, chi2 / 2.0))


class TestRuns:
    def test_known_vector_10(self):
        stat, p = runs(bits_of("1001101011"))
        assert stat == 7
        assert p == pytest.approx(0.147232, abs=1e-6)

    def test_known_vector_100(self):
        stat, p = runs(E100)
        assert stat == 52
        assert p == pytest.approx(0.500798, abs=1e-6)

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 5000).astype(np.uint8)
        _, p = runs(bits)
        assert p < 1e-10

    def test_biased_input_short_circuits(self):
        bits = np.ones(1000, dtype=np.uint8)
        bits[:10] = 0
        _, p = runs(bits)
        assert p == 0.0


class TestLongestRun:
    def test_known_vector_128(self):
        vec = bits_of(
            "11001100000101010110110001001100111000000000001001"
            "00110101010001000100111101011010000000110101111100"
            "1100111001101101100010110010"
        )
        stat, p = longest_run(vec)
        assert stat == pytest.approx(4.882605, abs=1e-5)
        assert p == pytest.approx(0.180598, abs=1e-5)

    def test_matches_block_scan_oracle(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=512, dtype=np.uint8)
        stat, _ = longest_run(bits)
        # direct per-block longest-run-of-ones scan, class table for M = 8
        counts = [0, 0, 0, 0]
        for start in range(0, 512, 8):
            block = bits[start:start + 8]
            best = cur = 0
            for b in block:
                cur = cur + 1 if b else 0
                best = max(best, cur)
            counts[min(max(best, 1), 4) - 1] += 1
        probs = (0.2148, 0.3672, 0.2305, 0.1875)
        n_blocks = 64
        chi2 = sum((counts[i] - n_blocks * probs[i]) ** 2 / (n_blocks * probs[i])
                   for i in range(4))
        assert stat == pytest.approx(chi2, rel=1e-12)

    def test_constant_ones_fails(self):
        _, p = longest_run(np.ones(10_000, dtype=np.uint8))
        assert p < 1e-6

    # every block size, partial last blocks, ones densities that fill the
    # lowest and the highest run-length classes, and lengths on both sides of
    # the 2^16-bit slices
    @pytest.mark.parametrize("n, density", [(128, 0.5), (1003, 0.3), (6271, 0.8),
                                            (6272, 0.5), (100_017, 0.7), (750_000, 0.5),
                                            (2**16 - 1, 0.5), (2**16, 0.6), (2**16 + 1, 0.5),
                                            (2**17 + 3, 0.4)])
    def test_matches_per_block_loop(self, n, density):
        bits = stream(n, density)
        block = 8 if n < 6272 else (128 if n < 750000 else 10000)
        dof, (lo, hi), probs = nist._LONGEST_RUN_TABLES[block]
        counts = [0] * len(probs)
        values = bits.tolist()
        for start in range(0, n - block + 1, block):
            best = cur = 0
            for b in values[start:start + block]:
                cur = cur + 1 if b else 0
                best = max(best, cur)
            counts[min(max(best, lo), hi) - lo] += 1
        expected = (n // block) * np.asarray(probs)
        chi2 = float(np.sum((np.asarray(counts) - expected) ** 2 / expected))
        assert longest_run(bits) == (chi2, nist._gamma_q(dof / 2.0, chi2 / 2.0))


class TestCusum:
    def test_known_vector_10(self):
        stat, p = cusum_forward(np.asarray(bits_of("1011010111")))
        assert stat == 4
        assert p == pytest.approx(0.4116586, abs=1e-6)

    def test_known_vector_100_both_directions(self):
        _, p_fwd = cusum_forward(E100)
        _, p_rev = cusum_reverse(E100)
        assert p_fwd == pytest.approx(0.219194, abs=1e-6)
        assert p_rev == pytest.approx(0.114866, abs=1e-6)

    def test_statistic_is_max_abs_partial_sum(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=500, dtype=np.uint8)
        stat, _ = cusum_forward(bits)
        walk = 0
        peak = 0
        for b in bits:
            walk += 1 if b else -1
            peak = max(peak, abs(walk))
        assert stat == peak

    # biased streams end the walk far from 0, so the reverse maximum is not
    # the forward one; lengths 8k - 1, 8k and 8k + 1 end in a 7-bit, an empty
    # and a 1-bit tail after the whole bytes, and the constant and
    # alternating streams put the extremes at the ends and inside every byte;
    # the biased streams of more than one 2^16-bit slice put the forward
    # extreme in a later slice, which reads the S carried from the ones before
    @pytest.mark.parametrize("n, density", [(2, 1.0), (3, 0.5), (1000, 0.5),
                                            (5000, 0.4), (5001, 0.6), (20_000, 0.55),
                                            (7, 0.5), (8, 0.5), (9, 0.5), (15, 0.3), (16, 0.7),
                                            (17, 0.5), (4095, 0.45), (4096, 0.55), (4097, 0.5),
                                            (2**16 - 1, 0.5), (2**16, 0.5), (2**16 + 1, 0.5),
                                            (2**17 + 3, 0.49), (8, 1.0), (1001, 1.0),
                                            (8, 0.0), (1001, 0.0), (15, "alternating"),
                                            (16, "alternating"), (1001, "alternating"),
                                            (3 * 2**16 + 5, 0.45), (3 * 2**16 + 5, 0.55),
                                            (2**16 + 9, 0.45), (2**16 + 9, 0.55)])
    def test_statistics_match_the_literal_walks(self, n, density):
        bits = stream(n, density)
        for test, values in ((cusum_forward, bits.tolist()),
                             (cusum_reverse, bits[::-1].tolist())):
            walk = peak = 0
            for b in values:
                walk += 1 if b else -1
                peak = max(peak, abs(walk))
            assert test(bits)[0] == peak

    def test_forward_on_reversed_equals_reverse(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=2000, dtype=np.uint8)
        assert cusum_forward(bits[::-1]) == cusum_reverse(bits)

    @pytest.mark.parametrize("test", [cusum_forward, cusum_reverse])
    def test_alternating_megabit_stays_fast(self, test):
        # z = 1 gives n/4 terms per sum; evaluating each took about 0.7 s per call
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 500_000)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            stat, p = test(bits)
            elapsed.append(time.perf_counter() - start)
        assert stat == 1 and p == pytest.approx(1.0, abs=1e-14)
        assert min(elapsed) < 0.3

    # the SP 800-22 sums overshoot 1 here before the clamp (1.0004 at n = 10)
    @pytest.mark.parametrize("n", [10, 10**4, 10**6])
    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("test", [cusum_forward, cusum_reverse])
    def test_alternating_p_value_is_at_most_1(self, test, first, n):
        bits = (np.arange(n) + first) % 2
        assert test(bits) == (1.0, 1.0)

    @pytest.mark.parametrize("test", [cusum_forward, cusum_reverse])
    def test_too_short_names_its_direction(self, test):
        with pytest.raises(ValueError, match=f"^{test.__name__} needs at least 2 bits"):
            test(np.ones(1, dtype=np.uint8))


# pattern sizes on both sides of the 16-bit window (9/10) and of each index
# group g = 8, 4, 2, 1 (9/10, 13/14, 15/16), indices wider than 16 bits (17)
# and m = 1; stream lengths on both sides of the 2^13-byte slices, whose last
# one wraps; fewer than two whole bytes (n = 10); and 3 tail starts, whose
# windows wrap across the last partial byte (2^16 + 3)
PATTERN_CASES = [(8, 3000), (9, 3000), (16, 3000), (17, 3000),
                 (3, 2**16 - 1), (3, 2**16), (17, 2**16 + 1), (9, 2**17 + 3),
                 (2, 10), (3, 10), (1, 3000), (3, 2**16 + 3),
                 (10, 3000), (13, 3000), (14, 3000), (15, 3000)]


@pytest.mark.parametrize("m, n", PATTERN_CASES,
                         ids=[str(m) if n == 3000 else f"{m}-{n}" for m, n in PATTERN_CASES])
def test_pattern_counts_match_a_window_count(m, n):
    bits = np.random.default_rng(m).integers(0, 2, size=n, dtype=np.uint8)
    wrapped = bits.tolist() + bits[:m - 1].tolist()
    counts = nist._pattern_counts(np.packbits(bits), n, m)
    assert len(counts) == m + 1
    for k in range(m + 1):
        seen = Counter(tuple(wrapped[i:i + k]) for i in range(bits.size))
        assert counts[k].tolist() == [seen[p] for p in itertools.product((0, 1), repeat=k)]


class TestApproximateEntropy:
    def test_known_vector_10(self):
        _, p = approximate_entropy(np.asarray(bits_of("0100110101")), m=3)
        assert p == pytest.approx(0.261961, abs=1e-6)

    def test_known_vector_100(self):
        stat, p = approximate_entropy(E100, m=2)
        assert stat == pytest.approx(0.665393, abs=1e-6)
        assert p == pytest.approx(0.235301, abs=1e-6)

    def test_matches_dictionary_oracle(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=400, dtype=np.uint8)
        stat, _ = approximate_entropy(bits, m=2)
        phis = []
        for m in (2, 3):
            ext = np.concatenate([bits, bits[:m - 1]])
            freq = {}
            for i in range(400):
                pat = tuple(ext[i:i + m])
                freq[pat] = freq.get(pat, 0) + 1
            phis.append(sum((c / 400) * math.log(c / 400) for c in freq.values()))
        assert stat == pytest.approx(phis[0] - phis[1], rel=1e-12)

    def test_constant_stream_fails(self):
        _, p = approximate_entropy(np.zeros(10_000, dtype=np.uint8))
        assert p < 1e-10

    @pytest.mark.parametrize("m", [0, -1])
    def test_pattern_size_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
            approximate_entropy(E100, m=m)

    @pytest.mark.parametrize("m, n", [(20, 100), (30, 10**6)])
    def test_pattern_size_above_log2_n_rejected(self, m, n):
        # 2^m counters for n patterns; m = 30 would allocate gigabytes
        with pytest.raises(ValueError, match=f"^m = {m} needs 2\\^m <= n bits, got n = {n}$"):
            approximate_entropy(np.zeros(n, dtype=np.uint8), m=m)


class TestSerial:
    def test_known_vector_10(self):
        (d1, p1), (d2, p2) = serial(np.asarray(bits_of("0011011101")), m=3)
        assert d1 == pytest.approx(1.6, abs=1e-9)
        assert d2 == pytest.approx(0.8, abs=1e-9)
        assert p1 == pytest.approx(0.808792, abs=1e-6)
        assert p2 == pytest.approx(0.670320, abs=1e-6)

    def test_matches_dictionary_oracle(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=600, dtype=np.uint8)
        (d1, _), (d2, _) = serial(bits, m=2)

        def psi2(m):
            if m == 0:
                return 0.0
            ext = np.concatenate([bits, bits[:m - 1]]) if m > 1 else bits
            freq = {}
            for i in range(600):
                pat = tuple(ext[i:i + m])
                freq[pat] = freq.get(pat, 0) + 1
            return (2 ** m / 600) * sum(c * c for c in freq.values()) - 600

        assert d1 == pytest.approx(psi2(2) - psi2(1), rel=1e-10)
        assert d2 == pytest.approx(psi2(2) - 2 * psi2(1) + psi2(0), rel=1e-10)

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 5000).astype(np.uint8)
        (_, p1), (_, p2) = serial(bits)
        assert p1 < 1e-10

    @pytest.mark.parametrize("m", [0, -1])
    def test_pattern_size_below_one_rejected(self, m):
        # at m = 0 every psi^2 is 0 by definition, a pass whatever the bits
        with pytest.raises(ValueError, match=f"^m must be >= 1, got {m}$"):
            serial(E100, m=m)

    @pytest.mark.parametrize("m, n", [(20, 100), (30, 10**6)])
    def test_pattern_size_above_log2_n_rejected(self, m, n):
        with pytest.raises(ValueError, match=f"^m = {m} needs 2\\^m <= n bits, got n = {n}$"):
            serial(np.zeros(n, dtype=np.uint8), m=m)


class TestDft:
    def test_matches_quadratic_transform_oracle(self):
        rng = np.random.default_rng(10)
        bits = rng.integers(0, 2, size=1024, dtype=np.uint8)
        stat, p = dft(bits)
        n = 1024
        x = 2.0 * bits - 1.0
        js = np.arange(n)
        mods = []
        for k in range(n // 2):
            angle = -2.0 * math.pi * k * js / n
            mods.append(math.hypot(float(np.sum(x * np.cos(angle))),
                                   float(np.sum(x * np.sin(angle)))))
        threshold = math.sqrt(math.log(1 / 0.05) * n)
        n1 = sum(1 for m in mods if m < threshold)
        d = (n1 - 0.95 * n / 2) / math.sqrt(n * 0.95 * 0.05 / 4)
        assert stat == pytest.approx(d, rel=1e-9)
        assert p == pytest.approx(float(erfc(abs(d) / math.sqrt(2))), rel=1e-9)

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 5000).astype(np.uint8)
        _, p = dft(bits)
        assert p < 1e-10

    def test_given_count_equals_own_count(self):
        # one set of buffers for two streams: the second stream's count must
        # not see anything the first left in them
        rng = np.random.default_rng(16)
        first = rng.integers(0, 2, size=2**17 + 3, dtype=np.uint8)
        second = (rng.random(first.size) < 0.48).astype(np.uint8)
        plan = nist._FourStep(first.size)
        for b in (first, second):
            assert dft(b, count=nist._spectral_count(np.packbits(b), b.size, plan)) == dft(b)
        assert dft(first) != dft(second)

    @pytest.mark.parametrize("count", [-1, 501, -500, 10**6])
    def test_count_outside_its_range_rejected(self, count):
        # 1001 bits have 500 moduli to count; a count outside [0, 500] is
        # refused, not turned into a statistic
        with pytest.raises(ValueError, match=rf"^count must lie in \[0, 500\], got {count}$"):
            dft(np.ones(1001, dtype=np.uint8), count=count)

    @pytest.mark.parametrize("count", [474.5, True])
    def test_count_that_is_not_an_integer_rejected(self, count):
        # inside [0, 500], but a fraction or a bool is no count of moduli
        with pytest.raises(ValueError, match=rf"^count must be an integer, got {count}$"):
            dft(np.ones(1001, dtype=np.uint8), count=count)

    @pytest.mark.parametrize("count", [0, 500])
    def test_count_at_either_end_of_its_range_accepted(self, count):
        d, p = dft(np.ones(1001, dtype=np.uint8), count=count)
        assert d == (count - 0.95 * 1001 / 2) / math.sqrt(1001 * 0.95 * 0.05 / 4)
        assert 0.0 <= p <= 1.0


def rfft_count(b):
    """The spectral test's count from one whole-stream rfft: the reference
    the four-step count is held to."""
    n = b.size
    moduli = np.abs(np.fft.rfft(2.0 * b - 1.0)[:n // 2])
    return int(np.count_nonzero(moduli < math.sqrt(math.log(20.0) * n)))


# the largest gap allowed between a four-step modulus and rfft's: 2.7e-12
# was measured on the criterion-1 streams, moduli up to about 5000
MODULUS_BOUND = 1e-11


class TestSpectralCount:
    # every shape the factoring takes: n1 = n2 (9, 1024, 10^6), n1 < n2
    # (8 = 2 x 4, 128 = 8 x 16), n1 = 1 for a prime n (2^16 + 1, 999983),
    # n1 = 2 (2 x 999983), odd n2 (1001 = 13 x 77, 255255 = 455 x 561,
    # 10^5 + 7 = 97 x 1031), and a part-filled last group of _ROWS rows
    # (2^17 + 3 = 245 x 535)
    @pytest.mark.parametrize("n, n1", [
        (8, 2), (9, 3), (128, 8), (1001, 13), (1024, 32), (2**16 + 1, 1), (2**17 + 3, 245),
        (10**5 + 7, 97), (255255, 455), (999983, 1), (2 * 999983, 2), (10**6, 1000),
    ])
    def test_count_equals_rfft_count(self, n, n1):
        plan = nist._FourStep(n)
        assert (plan.n1, plan.n1 * plan.n2) == (n1, n)
        pcg = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
        rctm = generate_bits(make_key(61.81, 0.23), n, burn_in=1000).bits
        for b in (pcg, rctm):
            assert nist._spectral_count(np.packbits(b), n, plan) == rfft_count(b)

    def test_moduli_agree_with_rfft_on_the_criterion_1_streams(self):
        # the exactness argument of _spectral_count: every modulus lies
        # within MODULUS_BOUND of rfft's, and none lies that close to T, so
        # each comparison with T, and the count, is rfft's
        n = 10**6
        threshold = math.sqrt(math.log(20.0) * n)
        plan = nist._FourStep(n)
        # X_k is kept at [k1, k2], k = k2 + n2 k1; rfft keeps X_min(k, n - k)
        k = np.arange(plan.n2 // 2 + 1) + plan.n2 * np.arange(plan.n1)[:, None]
        k = np.minimum(k, n - k)
        for s in segmented_streams(make_key(61.81, 0.23), 20, n, burn_in=1000):
            count = nist._spectral_count(s.packed, n, plan)
            moduli = np.abs(np.fft.rfft(2.0 * s.bits - 1.0))
            assert np.max(np.abs(np.abs(plan.spectrum) - moduli[k])) < MODULUS_BOUND
            assert np.min(np.abs(moduli - threshold)) > MODULUS_BOUND
            assert count == int(np.count_nonzero(moduli[:n // 2] < threshold))

    def test_in_place_fft_down_axis_0_equals_the_unaliased_call(self):
        # the second pass writes its output over its input
        rng = np.random.default_rng(18)
        y = rng.normal(size=(245, 268)) + 1j * rng.normal(size=(245, 268))
        expected = np.fft.fft(y, axis=0)
        assert np.fft.fft(y, axis=0, out=y) is y
        assert np.array_equal(y, expected)


def test_megabit_tests_allocate_no_stream_sized_temporaries():
    # a 10^6-bit stream is 1 MB of uint8, and one pass over all of it in
    # int32, intp or float64 would allocate 4 to 8 MB; each test's
    # temporaries stay below 2 MiB, the spectral test's below 1 MiB, and
    # the whole subset's, with the count on a worker thread beside the
    # other tests (tracemalloc sees both threads), below 3 MiB.  dft and
    # stream_outcomes each allocate the four-step buffers at n1 = n2 = 1000:
    # the 1000 x 501 complex128 spectrum and its bool twin, 32 rows of 1000
    # float64 values, and two 32 x 501 complex128 twiddle tables, which
    # their bounds add
    bits = np.random.default_rng(17).integers(0, 2, size=10**6, dtype=np.uint8)
    buffers = 1000 * 501 * (16 + 1) + 32 * 1000 * 8 + 2 * 32 * 501 * 16
    bounds = {"dft": buffers + 2**20, "stream_outcomes": buffers + 3 * 2**20}
    for name in (*nist.TEST_NAMES, "stream_outcomes"):
        test = getattr(nist, name)
        tracemalloc.start()
        try:
            test(bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bounds.get(name, 2 * 2**20), (name, peak)


class TestDispatch:
    def test_serial_dispatch_returns_first_p_value(self):
        # serial's two results are the serial and serial_2 rows, in that order
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, size=1000, dtype=np.uint8)
        rows = {row.test: (row.statistic, row.p_value) for row in stream_outcomes(bits)}
        assert (rows["serial"], rows["serial_2"]) == serial(bits)

    def test_all_names_run_on_random_bits(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=2000, dtype=np.uint8)
        for name in ("monobit", "block_frequency", "runs", "longest_run",
                     "cusum_forward", "cusum_reverse", "approximate_entropy",
                     "serial", "dft"):
            result = getattr(nist, name)(bits)
            for stat, p in (result if name == "serial" else [result]):
                assert 0.0 <= p <= 1.0

    def test_tests_are_looked_up_on_the_module_when_called(self, monkeypatch):
        # a wrapper installed on the module attribute (as the benchmark's
        # tracer does) must see the calls made by stream_outcomes
        calls = []

        def counting(bits, **params):
            calls.append(len(bits))
            return monobit(bits, **params)

        monkeypatch.setattr(nist, "monobit", counting)
        bits = np.random.default_rng(15).integers(0, 2, size=2000, dtype=np.uint8)
        stream_outcomes(bits)
        assert calls == [2000]


def rows_one_by_one(bits):
    """The subset's rows from the nine tests called one by one, as reprs
    (a NaN statistic compares equal by repr)."""
    results = [getattr(nist, name)(bits) for name in nist.TEST_NAMES]
    results[7:8] = results[7]
    return [repr(nist.TestOutcome(entry, stat, p, p >= nist.ALPHA))
            for entry, (stat, p) in zip(ENTRY_NAMES, results)]


def record_counts(monkeypatch, fail=False):
    """Wrap the spectral count: the list gets the thread of every call, and
    the wrapper raises instead when fail is set."""
    threads = []
    count = nist._spectral_count

    def recorded(*args):
        threads.append(threading.current_thread())
        if fail:
            raise RuntimeError("transform failed")
        return count(*args)

    monkeypatch.setattr(nist, "_spectral_count", recorded)
    return threads


def joined(threads):
    """Whether every thread ends within a timed join."""
    for thread in threads:
        thread.join(timeout=10)
    return not any(thread.is_alive() for thread in threads)


class TestSpectralWorker:
    """The battery and stream_outcomes share one loop: it runs the spectral
    count, transform and count together, on one worker thread beside the
    other eight tests, for all its streams."""

    @pytest.mark.parametrize("n, density", [
        (128, 0.5), (2**16 - 1, 0.5), (2**16 + 1, 0.5), (2**17 + 3, 0.5),
        (10**5 + 7, 0.5), (10**4, 0.0), (10**4, 1.0), (10**4 + 1, "alternating"),
    ])
    def test_rows_equal_the_tests_called_one_by_one(self, n, density):
        bits = stream(n, density)
        other = bits[::-1].copy()
        for b in (bits, other):
            assert [repr(row) for row in stream_outcomes(b)] == rows_one_by_one(b)
        # the battery keeps each stream's rows, and counts its entries from them
        report = nist_battery([bits, other])
        assert [[repr(row) for row in rows] for rows in report.rows] \
            == [rows_one_by_one(bits), rows_one_by_one(other)]
        for j, entry in enumerate(report.entries):
            assert entry.passed_count == sum(rows[j].passed for rows in report.rows)

    def test_tests_run_on_the_calling_thread_and_one_worker_per_battery(self, monkeypatch):
        calls = []
        for name in nist.TEST_NAMES:
            def wrapper(*args, _name=name, _fn=getattr(nist, name), **kwargs):
                calls.append((_name, threading.get_ident()))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(nist, name, wrapper)
        in_flight, most = [0], [0]
        spectral_count = nist._spectral_count
        workers = []

        def counted(*args):
            workers.append(threading.current_thread())
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            try:
                return spectral_count(*args)
            finally:
                in_flight[0] -= 1

        monkeypatch.setattr(nist, "_spectral_count", counted)
        three = [stream(5000, 0.5), stream(5000, 0.3), stream(5000, "alternating")]
        # a battery of three streams, then a lone stream_outcomes
        for run, count in ((lambda: nist_battery(three), 3), (lambda: stream_outcomes(three[0]), 1)):
            calls.clear()
            workers.clear()
            run()
            assert Counter(name for name, _ in calls) == {name: count for name in nist.TEST_NAMES}
            assert {ident for _, ident in calls} == {threading.get_ident()}
            assert len(workers) == count and len(set(workers)) == 1
            assert workers[0] is not threading.current_thread()
            assert most[0] == 1
            assert joined(workers)

    @pytest.mark.parametrize("run", [stream_outcomes, lambda b: nist_battery([b, b])])
    # "transform" is the worker's side: the spectral transform and its count
    @pytest.mark.parametrize("side", ["test", "transform"])
    def test_an_exception_on_either_side_reaches_the_caller(self, monkeypatch, run, side):
        workers = record_counts(monkeypatch, fail=side == "transform")
        if side == "test":
            def failing(bits, **params):
                raise RuntimeError("test failed")
            monkeypatch.setattr(nist, "serial", failing)
        with pytest.raises(RuntimeError, match=f"^{side} failed$"):
            run(stream(5000, 0.5))
        assert len(workers) == 1 and workers[0].ident != threading.get_ident()
        assert joined(workers)

    def test_concurrent_batteries_under_a_short_switch_interval(self):
        # three callers and their three workers on two cores: each caller's
        # rows must stay its own, however often the interpreter switches
        streams = [[stream(4096 + 64 * k, density) for density in (0.5, 0.49, "alternating")]
                   for k in range(3)]
        expected = [[rows_one_by_one(b) for b in run] for run in streams]
        reports = [repr(nist_battery(run)) for run in streams]
        got = [None] * len(streams)

        def caller(k):
            rows = [[repr(row) for row in stream_outcomes(b)] for b in streams[k]]
            got[k] = (rows, repr(nist_battery(streams[k])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(streams))]
            for thread in threads:
                thread.start()
            done = joined(threads)
        finally:
            sys.setswitchinterval(interval)
        assert done
        assert got == list(zip(expected, reports))


class TestBattery:
    def test_all_zero_stream_fails_everything(self):
        report = nist_battery([np.zeros(2000, dtype=np.uint8)])
        assert not report.passed
        by_name = {e.test: e for e in report.entries}
        # runs aborts via the monobit precondition; every test rejects
        for name in ENTRY_NAMES:
            assert by_name[name].passed_count == 0

    def test_counter_streams_fail_runs_and_serial(self):
        # 16-bit big-endian counter: zero-heavy high bytes break the
        # run structure and the 2-bit pattern balance
        bits = np.unpackbits(np.arange(20 * 256, dtype=np.uint16)
                             .byteswap().view(np.uint8))
        report = nist_battery([seg for seg in bits.reshape(20, -1)])
        by_name = {e.test: e for e in report.entries}
        assert by_name["runs"].passed_count == 0
        assert by_name["serial"].passed_count == 0
        assert not report.passed

    def test_balanced_byte_counter_fails_spectral_structure(self):
        # one full byte-counter cycle is exactly balanced in ones and runs,
        # but its periodicity shows in the block and spectral statistics
        pattern = np.tile(np.unpackbits(np.arange(256, dtype=np.uint8)), 10)
        by_name = {e.test: e for e in stream_outcomes(pattern)}
        assert by_name["monobit"].passed
        assert by_name["runs"].passed
        assert not by_name["block_frequency"].passed
        assert not by_name["dft"].passed

    def test_generator_streams_pass(self):
        streams = segmented_streams(make_key(61.81, 0.23), 4, 50_000, burn_in=1000)
        report = nist_battery(streams)
        assert report.passed
        assert report.stream_meta["streams"] == 4
        assert report.stream_meta["bits_per_stream"] == 50_000
        for entry in report.entries:
            assert entry.proportion >= entry.min_proportion

    def test_min_proportion_matches_formula(self):
        assert min_proportion(20) == pytest.approx(
            0.99 - 3 * math.sqrt(0.99 * 0.01 / 20), rel=1e-12)

    @pytest.mark.parametrize("streams", [0, -4])
    def test_min_proportion_rejects_fewer_than_one_stream(self, streams):
        with pytest.raises(ValueError, match=f"^streams must be >= 1, got {streams}$"):
            min_proportion(streams)

    def test_single_stream_report_rows(self):
        bits = generate_bits(make_key(61.81, 0.23), 20_000, burn_in=100)
        rows = stream_outcomes(bits)
        assert tuple(e.test for e in rows) == ENTRY_NAMES
        for entry in rows:
            assert entry.passed == (entry.p_value >= 0.01)

    @pytest.mark.parametrize("run", [stream_outcomes, lambda b: nist_battery([b, b])])
    def test_stream_below_subset_floor_rejected(self, run):
        # block_frequency alone accepts 8 bits, but the subset needs longest_run's 128
        assert nist.SUBSET_MIN_BITS == 128
        with pytest.raises(ValueError, match="^the NIST subset needs at least 128 bits, got 100$"):
            run(E100)

    @pytest.mark.parametrize("name", [*nist.TEST_NAMES, "stream_outcomes", "nist_battery"])
    def test_values_other_than_zero_and_one_rejected(self, name):
        bits = np.random.default_rng(16).integers(0, 3, size=10_000, dtype=np.uint8)
        run = (lambda b: nist_battery([b, b])) if name == "nist_battery" else getattr(nist, name)
        with pytest.raises(ValueError, match="^bit input must hold only 0 and 1, got 2$"):
            run(bits)

    # each refused as the one check of the stream finds it, before any test runs
    @pytest.mark.parametrize("bits, message", [
        (np.array([0.0, 1.0] * 100), "must be of bool or integer dtype, got float64"),
        (np.zeros((2, 200), dtype=np.uint8), "must be one-dimensional"),
        (np.array([0, 1, 2] * 100, dtype=np.uint8), "must hold only 0 and 1, got 2"),
    ])
    @pytest.mark.parametrize("run", [
        stream_outcomes, lambda b: nist_battery([stream(200, 0.5), b]),
    ], ids=["stream_outcomes", "nist_battery"])
    def test_bad_input_refused_by_its_one_check(self, monkeypatch, run, bits, message):
        calls = []
        monkeypatch.setattr(nist, "monobit", lambda b: calls.append(b))
        with pytest.raises(ValueError, match=f"^bit input {message}$"):
            run(bits)
        assert calls == []

    def test_each_array_is_checked_once_and_a_bitstream_never(self, monkeypatch):
        checked = []
        check = prbg._check_bit_array

        def counted(arr):
            checked.append(arr.size)
            check(arr)

        monkeypatch.setattr(prbg, "_check_bit_array", counted)
        arrays = [stream(3000, 0.5), stream(3000, 0.49), stream(3000, "alternating")]
        nist_battery(arrays)
        assert checked == [3000] * 3
        checked.clear()
        stream_outcomes(arrays[0])
        assert checked == [3000]
        checked.clear()
        nist_battery(segmented_streams(make_key(61.81, 0.23), 3, 3000))
        stream_outcomes(generate_bits(make_key(61.81, 0.23), 3000))
        assert checked == []

    # a BitStream's packed bytes and its bits as a 0/1 array give the same
    # rows, at lengths on both sides of a slice (2^16 +/- 1, the latter
    # prime) and one whose four-step rows are not whole bytes (10^6 + 7)
    @pytest.mark.parametrize("n", [128, 2**16 - 1, 2**16 + 1, 10**6 + 7])
    def test_bitstream_rows_equal_its_array_rows(self, n):
        s = generate_bits(make_key(61.81, 0.23), n, burn_in=1000)
        assert [repr(row) for row in stream_outcomes(s)] == \
            [repr(row) for row in stream_outcomes(s.bits)]

    # a battery names a key only when every stream is one of that key's
    @pytest.mark.parametrize("case", ["key and array", "keyless streams", "segments"])
    def test_key_fingerprint_only_when_every_stream_carries_it(self, case):
        key = make_key(61.81, 0.23)
        streams = {
            "key and array": [generate_bits(key, 1000), stream(1000, 0.5)],
            "keyless streams": [BitStream(bits=stream(1000, 0.5)),
                                BitStream(bits=stream(1000, 0.49))],
            "segments": segmented_streams(key, 2, 1000),
        }[case]
        meta = nist_battery(streams).stream_meta
        if case == "segments":
            assert meta["key_fingerprint"] == key.fingerprint()
        else:
            assert "key_fingerprint" not in meta

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            nist_battery([])

    def test_streams_of_unequal_length_rejected(self):
        streams = [np.ones(1000, dtype=np.uint8), np.ones(5000, dtype=np.uint8)]
        with pytest.raises(ValueError, match=r"\[1000, 5000\]"):
            nist_battery(streams)


class TestPValueFunctions:
    """The in-house erfc, normal CDF and chi-square tail against SciPy over the
    arguments the tests, the CLI and the benchmark reach: a = k/2 for the
    tests' degrees of freedom, 1/4 (serial at m = 1), 127.5 (ENT) and 3906
    (block frequency at 10^6 bits), x from 1e-8 to the mean plus 9 sd.  The
    tolerance is the benchmark's own gate, relative 1e-12, wherever p >= 1e-10."""

    REL = 1e-12

    def close(self, got, ref):
        keep = ref >= 1e-10
        assert keep.any()
        assert np.all(np.abs(got - ref)[keep] <= self.REL * ref[keep])

    @pytest.mark.parametrize("a", [0.25, 0.5, *range(1, 17), 127.5, 3906])
    def test_chi_square_tail(self, a):
        top = a + 9 * math.sqrt(a)
        x = np.concatenate([np.geomspace(1e-8, top, 300),
                            np.linspace(max(a - 9 * math.sqrt(a), 1e-8), top, 300)])
        self.close(np.array([nist._gamma_q(a, v) for v in x.tolist()]), gammaincc(a, x))

    @pytest.mark.parametrize("x", [0.0, -1e-12, math.inf, math.nan])
    def test_chi_square_tail_edges_as_scipy(self, x):
        np.testing.assert_equal(nist._gamma_q(2.5, x), gammaincc(2.5, x))

    def test_erfc(self):
        x = np.linspace(0.0, 7.0, 5001)
        self.close(np.array([math.erfc(v) for v in x.tolist()]), erfc(x))

    def test_normal_cdf(self):
        x = np.linspace(-9.0, 9.0, 5001)
        self.close(np.array([nist._normal_cdf(v) for v in x.tolist()]), ndtr(x))

    def test_cdf_is_exactly_0_or_1_where_cusum_skips_terms(self):
        # the cusum sums leave out the terms whose arguments all lie beyond these
        assert {nist._normal_cdf(x) for x in (nist._CDF_ONE, 9.0, 40.0, 1e6)} == {1.0}
        assert {nist._normal_cdf(x) for x in (nist._CDF_ZERO, -40.0, -1e6)} == {0.0}


class TestPValueUniformity:
    def test_monobit_p_values_uniform_over_segments(self):
        # 200 disjoint 10^4-bit segments; Kolmogorov-Smirnov against U(0,1)
        segs = segmented_streams(make_key(61.81, 0.23), 200, 10_000, burn_in=1000)
        ps = np.array([monobit(s)[1] for s in segs])
        ps_sorted = np.sort(ps)
        grid = np.arange(1, 201) / 200
        d = max(np.abs(ps_sorted - grid).max(),
                np.abs(ps_sorted - grid + 1 / 200).max())
        assert d < 1.628 / math.sqrt(200)  # 1% critical value
