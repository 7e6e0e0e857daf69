import math
import tracemalloc

import numpy as np
import pytest

from rctm import core
from rctm.analysis import (
    correlation_sweep,
    differential,
    entropy_sweep,
    key_sensitivity_run,
    keyspace_report,
    pearson_correlation,
)
from rctm.analysis import _perturbed_keys
from rctm.core import InvalidKeyError, iterate, iterate_batch, make_key
from rctm.ent import byte_entropy, ent_battery, histogram_uniformity
from rctm.prbg import generate_quantized, quantize_values


class TestPearson:
    def test_self_correlation(self):
        x = np.linspace(0.0, 1.0, 100)
        assert pearson_correlation(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_exact_negative_affine(self):
        x = np.linspace(0.0, 1.0, 100)
        assert pearson_correlation(x, 1.0 - x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_corrcoef_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=500)
        y = rng.uniform(size=500)
        assert pearson_correlation(x, y) == pytest.approx(
            float(np.corrcoef(x, y)[0, 1]), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=200)
        y = rng.uniform(size=200)
        assert pearson_correlation(x, y) == pearson_correlation(y, x)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=200)
        y = rng.uniform(size=200)
        r = pearson_correlation(x, y)
        assert pearson_correlation(2.5 * x + 7.0, y) == pytest.approx(r, abs=1e-9)
        assert pearson_correlation(x, 0.1 * y - 3.0) == pytest.approx(r, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(5), np.ones(6))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson_correlation(np.ones(10), np.arange(10.0))

    def test_perturbed_key_pair_decorrelates(self):
        # smallest representable mu step at this magnitude is 2^-47
        a = iterate(make_key(61.81, 0.23), 1000, burn_in=100).values
        b = iterate(make_key(61.81 + 2.0 ** -47, 0.23), 1000, burn_in=100).values
        assert abs(pearson_correlation(a, b)) <= 0.15


class TestDifferential:
    def test_identical_trajectories(self):
        t = iterate(make_key(61.81, 0.23), 100)
        assert differential(t, t) == (0.0, 0.0)

    def test_maximal_difference(self):
        assert differential(np.array([0.0]), np.array([1.0])) == (100.0, 100.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=300)
        b = rng.uniform(size=300)
        uaci, npcr = differential(a, b)
        exp_uaci = 100.0 / 300 * sum(abs(a[i] - b[i]) for i in range(300))
        qa, qb = quantize_values(a), quantize_values(b)
        exp_npcr = 100.0 / 300 * sum(1 for i in range(300) if qa[i] != qb[i])
        assert uaci == pytest.approx(exp_uaci, rel=1e-12)
        assert npcr == pytest.approx(exp_npcr, rel=1e-12)

    def test_independent_uniforms_concentrate(self):
        # E|U-V| = 1/3 for independent uniforms; byte NPCR -> 1 - 2^-8
        rng = np.random.default_rng(5)
        uaci_means, npcr_means = [], []
        for _ in range(100):
            a = rng.uniform(size=10_000)
            b = rng.uniform(size=10_000)
            u, c = differential(a, b)
            uaci_means.append(u)
            npcr_means.append(c)
        assert np.mean(uaci_means) == pytest.approx(100.0 / 3.0, abs=0.5)
        assert np.mean(npcr_means) == pytest.approx(100.0 * (1.0 - 2.0 ** -8), abs=0.2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            differential(np.ones(3), np.ones(4))

    def test_one_trajectory_gives_float_scalars(self):
        uaci, npcr = differential(np.array([0.1, 0.9]), np.array([0.2, 0.9]))
        assert type(uaci) is np.float64 and type(npcr) is np.float64
        assert isinstance(uaci, float) and isinstance(npcr, float)

    def test_rows_equal_one_row_calls(self):
        keys = [make_key(61.81 + k * 2.0 ** -40, 0.23) for k in range(7)]
        rows = iterate_batch(keys, 1001, burn_in=100)
        t2 = iterate(make_key(61.81, 0.23), 1001, burn_in=100)
        uaci, npcr = differential(rows, t2)
        assert uaci.shape == npcr.shape == (7,)
        for i in range(7):
            u, c = differential(rows[i], t2)
            assert (float(uaci[i]).hex(), float(npcr[i]).hex()) == (float(u).hex(), float(c).hex())

    @pytest.mark.parametrize("t1,t2", [
        (np.ones(4), np.ones((1, 4))),            # t2 must be one trajectory
        (np.ones((3, 4)), np.ones((3, 4))),
        (np.ones((3, 5)), np.ones(4)),            # rows of another length
        (np.ones((3, 0)), np.ones(0)),            # empty
        (np.ones((2, 3, 4)), np.ones(4)),         # rows, not a stack of batches
        (np.float64(0.5), np.ones(1)),
    ])
    def test_batch_shapes_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="rows of trajectories"):
            differential(t1, t2)


class TestCorrelationSweep:
    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            correlation_sweep(make_key(61.81, 0.23), 0.0, pairs=5, length=100)

    def test_small_sweep_statistics(self):
        result = correlation_sweep(make_key(61.81, 0.23), 2.0 ** -48,
                                   pairs=50, length=1000, vary="mu")
        assert result.pairs == 50
        assert np.abs(result.correlations).max() <= 0.15
        agg = result.aggregates()
        assert agg["correlation"]["min"] <= agg["correlation"]["max"]
        assert agg["uaci_pct"]["mean"] == pytest.approx(100.0 / 3.0, abs=2.0)
        assert agg["npcr_pct"]["mean"] == pytest.approx(99.6, abs=1.0)

    def test_half_ulp_mu_offset_is_skipped(self):
        # 61.81 + 2^-48 rounds back to 61.81, so offset k=1 yields no pair
        result = correlation_sweep(make_key(61.81, 0.23), 2.0 ** -48,
                                   pairs=3, length=100, vary="mu")
        assert result.skipped_offsets == (1,)

    def test_x0_sweep_has_no_skips(self):
        result = correlation_sweep(make_key(61.81, 0.23), 2.0 ** -48,
                                   pairs=10, length=100, vary="x0")
        assert result.skipped_offsets == ()

    def test_out_of_range_perturbation_rejected(self):
        key = make_key(99.99, 0.23)
        with pytest.raises(InvalidKeyError):
            correlation_sweep(key, 0.01, pairs=5, length=100, vary="mu")

    def test_vanishing_delta_rejected(self):
        # far below half an ulp of mu: every offset rounds back to the base
        with pytest.raises(ValueError, match="resolution"):
            correlation_sweep(make_key(61.81, 0.23), 2.0 ** -60,
                              pairs=5, length=100, vary="mu")

    def test_bad_vary_rejected(self):
        with pytest.raises(ValueError):
            correlation_sweep(make_key(61.81, 0.23), 2.0 ** -48,
                              pairs=2, length=50, vary="seed")

    @pytest.mark.parametrize("burn_in", [0, 100])
    @pytest.mark.parametrize("vary", ["mu", "x0"])
    def test_uaci_npcr_are_per_pair_differential(self, vary, burn_in):
        base = make_key(61.81, 0.23)
        result = correlation_sweep(base, 2.0 ** -48, pairs=30, length=777,
                                   vary=vary, burn_in=burn_in)
        keys, _ = _perturbed_keys(base, vary, 2.0 ** -48, 30)
        base_t = iterate(base, 777, burn_in)
        for i, key in enumerate(keys):
            u, c = differential(iterate(key, 777, burn_in), base_t)
            assert result.uaci_pct[i] == u and result.npcr_pct[i] == c

    @pytest.mark.parametrize("mu,distinct", [(61.81, 500), (93.23, 250)])
    def test_measured_reuse_of_perturbed_keys(self, mu, distinct):
        # measured, not a contract: only offsets that round back onto the base
        # are skipped, so at criterion 6's delta (half an ulp of mu = 61.81, a
        # quarter at 93.23) several offsets round onto one key and their pairs
        # repeat an earlier correlation exactly
        result = correlation_sweep(make_key(mu, 0.23), 2.0 ** -48,
                                   pairs=1000, length=1000, vary="mu")
        assert result.skipped_offsets == (1,)
        assert len({mu + k * 2.0 ** -48 for k in range(2, 1002)}) == distinct
        assert np.unique(result.correlations).size == distinct


    # blocks of 4, 4 and 2 rows; 260, 260 and 80; one block of 3 rows
    @pytest.mark.parametrize("chunk,pairs,length", [(37, 10, 9), (None, 600, 1000),
                                                    (None, 3, 1000)])
    def test_blocks_give_the_one_batch_results(self, monkeypatch, chunk, pairs, length):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        base = make_key(61.81, 0.23)
        result = correlation_sweep(base, 2.0 ** -48, pairs=pairs, length=length)
        keys, _ = _perturbed_keys(base, "mu", 2.0 ** -48, pairs)
        states = iterate_batch([base, *keys], length, 100)
        correlations = [pearson_correlation(states[0], row) for row in states[1:]]
        uaci, npcr = differential(states[1:], states[0])
        assert repr(result.correlations.tolist()) == repr(correlations)
        assert result.uaci_pct.tobytes() == uaci.tobytes()
        assert result.npcr_pct.tobytes() == npcr.tobytes()

    def test_memory_does_not_grow_with_pairs(self):
        base = make_key(61.81, 0.23)
        peaks = []
        for pairs in (1000, 4000):
            tracemalloc.start()
            try:
                correlation_sweep(base, pairs=pairs, length=1000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all 4000 orbits at once would hold 32 MB, and differential two more
        # temporaries of that size; a block of 260 orbits is 2 MB
        assert peaks[1] < 10 * 2**20
        assert peaks[1] - peaks[0] < 2 * 2**20


class TestKeySensitivity:
    def test_case_vary_mu(self):
        result = key_sensitivity_run(make_key(49.13, 0.28), "mu",
                                     delta=2.0 ** -48, sequences=5, length=3000)
        assert len(result.keys) == 5
        assert result.states.shape == (5, 3000)
        assert result.pairwise_correlations.shape == (5, 5)
        assert result.preview.shape == (5, 30)
        assert result.max_off_diagonal() <= 0.15
        # half-ulp offsets collapse onto already-used keys and are skipped
        mus = [key.mu for key in result.keys]
        assert len(set(mus)) == 5
        assert result.skipped_offsets != ()

    def test_case_vary_x0(self):
        result = key_sensitivity_run(make_key(49.13, 0.28), "x0",
                                     delta=2.0 ** -48, sequences=5, length=3000)
        assert result.max_off_diagonal() <= 0.15

    def test_burn_in_is_recorded(self):
        result = key_sensitivity_run(make_key(49.13, 0.28), "x0", sequences=2, length=50)
        assert result.burn_in == 0
        assert np.array_equal(result.states[:, 0], [key.x0 for key in result.keys])
        result = key_sensitivity_run(make_key(49.13, 0.28), "x0", sequences=2, length=50,
                                     burn_in=7)
        assert result.burn_in == 7
        assert np.array_equal(result.states[0],
                              iterate(make_key(49.13, 0.28), 50, burn_in=7).values)

    def test_zero_delta_gives_unit_correlations(self):
        result = key_sensitivity_run(make_key(49.13, 0.28), "x0",
                                     delta=0.0, sequences=3, length=500)
        assert np.allclose(result.pairwise_correlations, 1.0)

    def test_matrix_is_symmetric_with_unit_diagonal(self):
        result = key_sensitivity_run(make_key(61.81, 0.23), "x0",
                                     delta=2.0 ** -40, sequences=4, length=800)
        r = result.pairwise_correlations
        assert np.array_equal(r, r.T)
        assert np.array_equal(np.diag(r), np.ones(4))

    def test_unknown_case_rejected(self):
        # the old case spelling is not a vary value
        with pytest.raises(ValueError, match="vary"):
            key_sensitivity_run(make_key(49.13, 0.28), "vary_mu")

    def test_both_rejected(self):
        with pytest.raises(ValueError, match="'both'"):
            key_sensitivity_run(make_key(49.13, 0.28), vary="both")

    @pytest.mark.parametrize("vary", ["mu", "x0"])
    def test_rows_are_the_orbits_of_their_keys(self, vary):
        result = key_sensitivity_run(make_key(49.13, 0.28), vary, delta=2.0 ** -50,
                                     sequences=6, length=300, burn_in=11)
        assert result.vary == vary
        assert result.states.shape == (6, 300)
        for key, row in zip(result.keys, result.states):
            assert np.array_equal(row, iterate(key, 300, burn_in=11).values)
        assert np.array_equal(result.preview, result.states[:, :30])
        assert np.shares_memory(result.preview, result.states)

    def test_vary_x0_keeps_the_base_mu(self):
        base = make_key(49.13, 0.28)
        result = key_sensitivity_run(base, vary="x0", delta=2.0 ** -52, sequences=5, length=100)
        assert [key.mu for key in result.keys] == [base.mu] * 5
        assert len({key.x0 for key in result.keys}) == 5

    def test_single_sample_orbits_refused_under_length(self):
        # a correlation needs two samples per orbit, as in correlation_sweep
        with pytest.raises(ValueError, match="^length must be >= 2, got 1$"):
            key_sensitivity_run(make_key(49.13, 0.28), length=1)


class TestHistogram:
    def test_perfectly_uniform(self):
        data = np.tile(np.arange(256, dtype=np.uint8), 10)
        counts, chi2, p = histogram_uniformity(data)
        assert counts.tolist() == [10] * 256
        assert chi2 == 0.0
        assert p == pytest.approx(1.0)

    def test_constant_fails(self):
        _, _, p = histogram_uniformity(np.zeros(2048, dtype=np.uint8))
        assert p < 1e-12

    def test_generator_bytes_uniform(self):
        data = generate_quantized(make_key(61.81, 0.23), 100_000, burn_in=1000)
        _, _, p = histogram_uniformity(data)
        assert p >= 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram_uniformity(np.array([], dtype=np.uint8))

    def test_non_bytes_rejected(self):
        # the counts are over the 256 byte values, never over the data's own range
        with pytest.raises(ValueError, match="uint8"):
            histogram_uniformity(np.arange(256, dtype=np.int64))

    def test_is_the_ent_histogram(self):
        data = generate_quantized(make_key(61.81, 0.23), 10_000, burn_in=100)
        counts, chi2, p = histogram_uniformity(data)
        report = ent_battery(data)
        assert np.array_equal(counts, np.bincount(data, minlength=256))
        assert report.chi_square_stat == chi2
        assert report.chi_square_percentile == p * 100.0


class TestEntropySweep:
    def test_mean_entropy_of_generator(self):
        result = entropy_sweep(make_key(61.81, 0.23), sequences=20, length=20_000)
        assert result.mean_entropy >= 7.98
        assert result.entropies.size == 20
        assert result.seed_increment == 2.0 ** -20
        assert result.burn_in == 0

    def test_degenerate_seed_collapses_entropy(self):
        # x0 = 0.5 hits 1.0 then the fixed point 0; almost every byte is 0
        result = entropy_sweep(make_key(61.81, 0.5), sequences=1, length=5000)
        assert result.mean_entropy == pytest.approx(0.0, abs=0.02)

    def test_increment_out_of_range_rejected(self):
        with pytest.raises(InvalidKeyError):
            entropy_sweep(make_key(61.81, 0.999999), sequences=100, length=100,
                          seed_increment=2.0 ** -10)

    def test_empty_orbits_refused_under_length(self):
        with pytest.raises(ValueError, match="^length must be >= 1, got 0$"):
            entropy_sweep(make_key(61.81, 0.23), length=0)

    # blocks of 4, 4 and 2 rows; 4 and 2; one block of 3 rows
    @pytest.mark.parametrize("chunk,sequences,length", [(37, 10, 9), (None, 6, 100_000),
                                                        (None, 3, 20_000)])
    def test_blocks_give_the_one_batch_results(self, monkeypatch, chunk, sequences, length):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        base = make_key(61.81, 0.23)
        result = entropy_sweep(base, sequences=sequences, length=length, burn_in=3)
        keys = [make_key(61.81, 0.23 + k * 2.0 ** -20) for k in range(sequences)]
        expected = [byte_entropy(quantize_values(row))
                    for row in iterate_batch(keys, length, 3)]
        assert repr(result.entropies.tolist()) == repr(expected)


class TestKeySpace:
    def test_reference_precision(self):
        report = keyspace_report(-16)
        assert round(report.total_bits) == 199
        assert round(report.weak_key_adjusted_bits) == 198
        assert report.weak_key_adjusted_bits == report.total_bits - 1.0
        assert report.weak_key_adjusted_bits >= 100

    def test_component_counts_at_reference_precision(self):
        counts = keyspace_report(-16).component_counts
        assert counts["x0"] == pytest.approx(1e16)
        assert counts["mu"] == pytest.approx(98e16)
        assert counts["n1"] == pytest.approx(1e13)
        assert counts["n2"] == pytest.approx(1e13)

    def test_lower_precision_recomputed(self):
        report = keyspace_report(-8)
        expected = math.log2(1e8) + math.log2(98e8) + 2 * math.log2(1e5)
        assert report.total_bits == pytest.approx(expected, rel=1e-12)

    def test_adjusted_is_total_minus_one(self):
        for p in (-4, -8, -12, -16):
            report = keyspace_report(p)
            assert report.weak_key_adjusted_bits == report.total_bits - 1.0

    def test_non_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            keyspace_report(0)

    @pytest.mark.parametrize("p", [-3, -306])
    def test_range_ends_count_every_component(self, p):
        report = keyspace_report(p)
        assert min(report.component_counts.values()) >= 1.0
        assert all(math.isfinite(v) for v in report.component_counts.values())
        assert math.isfinite(report.total_bits) and report.total_bits > 0

    @pytest.mark.parametrize("p", [-16.7, -2.5])
    def test_non_integral_exponent_rejected(self, p):
        # named as given, not truncated toward zero
        with pytest.raises(ValueError, match=f"integer, got {p}$"):
            keyspace_report(p)

    def test_integral_float_exponent_accepted(self):
        report = keyspace_report(-16.0)
        assert report.precision_exponent == -16
        assert isinstance(report.precision_exponent, int)
        assert report.total_bits == keyspace_report(-16).total_bits

    @pytest.mark.parametrize("p", [-2, -307, -400])
    def test_exponent_outside_the_model_rejected(self, p):
        # -2 counts 0.1 values per bound, -307 overflows mu's count to inf
        with pytest.raises(ValueError, match=r"\[-306, -3\]"):
            keyspace_report(p)
