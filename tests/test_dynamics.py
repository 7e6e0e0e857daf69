import math

import numpy as np
import pytest

from rctm import core
from rctm.core import InvalidKeyError, _branch_log_slopes, ctm_key, iterate_batch, make_key
from rctm.dynamics import (
    bifurcation_sample,
    grid_keys,
    lyapunov,
    lyapunov_expected,
    lyapunov_grid,
    phase_coverage,
)


def constructed(mu: float, x0: float):
    """The key the map's own constructor gives for mu, or None if it refuses."""
    try:
        return ctm_key(mu, x0) if 0.0 < mu <= 2.0 else make_key(mu, x0)
    except InvalidKeyError:
        return None


class TestGridKeys:
    # each edge of either arm, and values refused for each reason
    GRID = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 2.0, math.nextafter(2.0, 3.0),
            3.0, 3.5, math.nextafter(100.0, 0.0), 100.0, 150.0]

    def test_a_key_exactly_where_the_constructor_gives_one(self):
        keys, skipped = grid_keys(self.GRID, 0.23)
        expected = [constructed(mu, 0.23) for mu in self.GRID]
        assert keys == [key for key in expected if key is not None]
        assert [key.mu for key in keys] == [1e-300, 2.0, math.nextafter(2.0, 3.0), 3.5,
                                            math.nextafter(100.0, 0.0)]
        assert repr(skipped) == repr([mu for mu, key in zip(self.GRID, expected) if key is None])

    @pytest.mark.parametrize("sample", [
        lambda grid: grid_keys(grid, 1.0),
        lambda grid: bifurcation_sample(grid, 1.0),
        lambda grid: lyapunov_grid(grid, 1.0, n=100),
        lambda grid: phase_coverage(grid, 1.0, n=100),
    ], ids=["grid_keys", "bifurcation_sample", "lyapunov_grid", "phase_coverage"])
    def test_bad_x0_refused_even_with_no_supported_mu(self, sample):
        with pytest.raises(InvalidKeyError, match=r"^x0 must lie in \(0, 1\), got 1\.0$"):
            sample([3.0, 150.0, math.nan])

    @pytest.mark.parametrize("grid", [[math.nan], []], ids=["nan", "empty"])
    @pytest.mark.parametrize("sample", [
        lambda grid: grid_keys(grid, 0.23),
        lambda grid: bifurcation_sample(grid, 0.23),
        lambda grid: lyapunov_grid(grid, 0.23, n=100),
        lambda grid: phase_coverage(grid, 0.23, n=100),
    ], ids=["grid_keys", "bifurcation_sample", "lyapunov_grid", "phase_coverage"])
    def test_grid_with_no_supported_value_refused_alike(self, sample, grid):
        with pytest.raises(ValueError, match="^no supported mu values in grid$"):
            sample(grid)


class TestBifurcation:
    def test_keep_one_settle_zero_returns_seed(self):
        result = bifurcation_sample([2.75, 61.81], 0.23, settle=0, keep=1)
        assert result.x.tolist() == [0.23, 0.23]
        assert result.mu.tolist() == [2.75, 61.81]

    def test_output_size(self):
        result = bifurcation_sample([2.75, 8.4, 61.81], 0.23, settle=10, keep=25)
        assert result.mu.shape == result.x.shape == (3 * 25,)

    def test_integer_mu_above_two_skipped(self):
        result = bifurcation_sample([3.0, 3.5, 4.0], 0.23, settle=5, keep=5)
        assert result.skipped_mu == [3.0, 4.0]
        assert result.x.size == 5
        assert set(result.mu.tolist()) == {3.5}

    def test_out_of_range_mu_skipped(self):
        result = bifurcation_sample([-1.0, 150.0, 20.33], 0.23, settle=5, keep=5)
        assert result.skipped_mu == [-1.0, 150.0]

    def test_tent_arm_confined_at_low_mu(self):
        # tent map at mu = 1.2 settles into [mu - mu^2/2, mu/2]
        xs = bifurcation_sample([1.2], 0.23, settle=1000, keep=200).x
        assert xs.min() >= 0.4
        assert xs.max() <= 0.65
        assert xs.max() - xs.min() < 0.5

    def test_robust_arm_spans_unit_interval(self):
        xs = bifurcation_sample([70.23], 0.23, settle=1000, keep=200).x
        assert xs.max() - xs.min() >= 0.95

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_sample([], 0.23)

    def test_points_in_unit_interval(self):
        xs = bifurcation_sample(np.linspace(2.1, 99.9, 25), 0.37, settle=200, keep=50).x
        assert xs.min() >= 0.0 and xs.max() <= 1.0

    def test_arrays_are_the_batch_in_grid_order(self):
        grid = [1.2, 3.0, 2.75, 150.0, 61.81, 8.4]
        result = bifurcation_sample(grid, 0.37, settle=30, keep=7)
        keys = [ctm_key(1.2, 0.37), make_key(2.75, 0.37), make_key(61.81, 0.37),
                make_key(8.4, 0.37)]
        assert result.x.dtype == result.mu.dtype == np.float64
        assert np.array_equal(result.x.reshape(-1, 7), iterate_batch(keys, 7, burn_in=30))
        assert np.array_equal(result.mu, np.repeat([1.2, 2.75, 61.81, 8.4], 7))

    def test_grid_with_every_value_skipped_is_refused(self):
        with pytest.raises(ValueError, match="^no supported mu values in grid$"):
            bifurcation_sample([3.0, -1.0, 150.0], 0.23, settle=5, keep=5)


class TestLyapunov:
    @pytest.mark.parametrize("mu", [1.1, 1.5, 1.9, 2.0])
    def test_tent_arm_equals_log_mu(self, mu):
        est = lyapunov(ctm_key(mu, 0.23), n=100_000)
        assert est.exponent == pytest.approx(math.log(mu), abs=0.01)

    def test_robust_arm_matches_space_average(self):
        # Lebesgue measure is invariant (branch widths are reciprocal
        # slopes), so the orbit average converges to the space average
        for mu in (3.13, 61.81, 93.23):
            est = lyapunov(make_key(mu, 0.23), n=200_000)
            assert est.exponent == pytest.approx(lyapunov_expected(mu), abs=0.02)

    def test_positive_above_two(self):
        est = lyapunov(make_key(61.81, 0.23), n=50_000)
        assert est.exponent > 0
        assert est.n_samples == 50_000

    def test_grid_drops_unsupported_values(self):
        ests = lyapunov_grid([1.5, 3.0, 3.5], 0.23, n=2000)
        assert [e.mu for e in ests] == [1.5, 3.5]

    def test_grid_matches_single_runs(self):
        grid = lyapunov_grid([2.75, 61.81], 0.23, n=5000, burn_in=100)
        for est in grid:
            single = lyapunov(make_key(est.mu, 0.23), n=5000, burn_in=100)
            assert est.exponent == single.exponent

    # blocks of 4, 4 and 2 rows; 24 and 6; one block of 3 rows
    @pytest.mark.parametrize("chunk,points,n", [(37, 10, 9), (None, 30, 10_000),
                                                (None, 3, 10_000)])
    def test_blocks_give_the_one_batch_results(self, monkeypatch, chunk, points, n):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        mu_grid = [1.5, *(2.25 + 3.1 * k for k in range(points - 1))]
        grid = lyapunov_grid(mu_grid, 0.23, n=n, burn_in=7)
        keys, skipped = grid_keys(mu_grid, 0.23)
        assert not skipped and [est.mu for est in grid] == [key.mu for key in keys]
        expected = [float(_branch_log_slopes(row, key).mean())
                    for key, row in zip(keys, iterate_batch(keys, n, 7))]
        assert repr([est.exponent for est in grid]) == repr(expected)


class TestPhaseCoverage:
    def test_full_coverage_in_robust_regime(self):
        [(_, cov)] = phase_coverage([20.33], 0.23, n=100_000, bins=100)
        assert cov == 1.0

    def test_degenerate_orbit_covers_little(self):
        # x0 = 0.5 maps to 1.0 and then sticks at the fixed point 0
        [(_, cov)] = phase_coverage([61.81], 0.5, n=100_000, bins=100)
        assert 1 / 100 <= cov <= 0.05

    def test_tent_arm_partial_coverage(self):
        [(_, cov)] = phase_coverage([1.2], 0.23, n=100_000, bins=100)
        assert cov < 1.0

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            phase_coverage([61.81], 0.23, n=100, bins=1)

    # blocks of 4, 4 and 2 rows; 24 and 6; one block of 3 rows
    @pytest.mark.parametrize("chunk,points,n", [(37, 10, 9), (None, 30, 10_000),
                                                (None, 3, 10_000)])
    def test_blocks_give_the_one_batch_results(self, monkeypatch, chunk, points, n):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        # a tent-arm value first, and an integer mu the grid skips
        mu_grid = [1.5, 3.0, *(2.25 + 3.1 * k for k in range(points - 1))]
        coverage = phase_coverage(mu_grid, 0.23, n=n, bins=100)
        keys, skipped = grid_keys(mu_grid, 0.23)
        assert skipped == [3.0] and len(keys) == points

        def covered(row):
            counts, _ = np.histogram(row, bins=100, range=(0.0, 1.0))
            return float(np.count_nonzero(counts)) / 100
        expected = [(key.mu, covered(row)) for key, row in zip(keys, iterate_batch(keys, n))]
        assert repr(coverage) == repr(expected)
