import ctypes
import gc
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import FAILING_CC
from rctm import core
from rctm.core import (
    InvalidKeyError,
    MapKey,
    ctm_key,
    iterate,
    iterate_batch,
    log_derivative,
    make_key,
    orbit_chunks,
    rctm_step,
    region_bounds,
)


def random_keys(count, seed=0):
    rng = np.random.default_rng(seed)
    keys = []
    while len(keys) < count:
        mu = float(rng.uniform(2.0001, 99.9999))
        if mu == int(mu):
            continue
        keys.append(make_key(mu, float(rng.uniform(1e-6, 1.0 - 1e-6))))
    return keys


class TestMakeKey:
    def test_region_bounds_61_81(self):
        key = make_key(61.81, 0.23)
        assert key.n1 == pytest.approx(0.48535836, abs=1e-7)
        assert key.n2 == pytest.approx(0.51464164, abs=1e-7)

    def test_region_bounds_2_75(self):
        key = make_key(2.75, 0.23)
        # hand evaluation: 0.5 -/+ 0.375/2.75
        assert key.n1 == pytest.approx(0.36363636, abs=1e-8)
        assert key.n2 == pytest.approx(0.63636364, abs=1e-8)

    def test_deterministic(self):
        assert make_key(61.81, 0.23) == make_key(61.81, 0.23)

    @pytest.mark.parametrize("mu,x0,kind", [
        (4.0, 0.5, "mu_integer"),
        (50.0, 0.3, "mu_integer"),
        (2.0, 0.3, "mu_too_small"),
        (1.5, 0.3, "mu_too_small"),
        (100.0, 0.3, "mu_too_large"),
        (250.0, 0.3, "mu_too_large"),
        (61.81, 0.0, "x0_out_of_range"),
        (61.81, 1.0, "x0_out_of_range"),
        (61.81, -0.2, "x0_out_of_range"),
        (61.81, 1.5, "x0_out_of_range"),
        (float("nan"), 0.3, "non_finite"),
        (float("inf"), 0.3, "non_finite"),
        (61.81, float("nan"), "non_finite"),
    ])
    def test_rejections(self, mu, x0, kind):
        with pytest.raises(InvalidKeyError) as err:
            make_key(mu, x0)
        assert err.value.kind == kind

    def test_region_symmetry_within_one_ulp(self):
        for key in random_keys(500, seed=11):
            assert abs(key.n1 + key.n2 - 1.0) <= np.spacing(1.0)

    def test_fingerprint_depends_on_exact_bits(self):
        a = make_key(61.81, 0.23)
        b = make_key(61.81, 0.23 + 2.0 ** -48)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == make_key(61.81, 0.23).fingerprint()


class TestCtmKey:
    def test_accepts_tent_range(self):
        key = ctm_key(2.0, 0.3)
        assert key.is_ctm
        assert key.mu == 2.0

    @pytest.mark.parametrize("mu", [0.0, -1.0, 2.5])
    def test_rejects_outside_tent_range(self, mu):
        with pytest.raises(InvalidKeyError) as err:
            ctm_key(mu, 0.3)
        assert err.value.kind == "mu_out_of_ctm_range"


class TestCtmStep:
    """rctm_step on a tent-arm key takes the classical tent map step."""

    def test_below_half(self):
        assert rctm_step(0.25, ctm_key(2.0, 0.3)) == 0.5

    def test_at_half_takes_upper_branch(self):
        assert rctm_step(0.5, ctm_key(2.0, 0.3)) == 1.0

    def test_upper_branch(self):
        assert rctm_step(0.75, ctm_key(1.5, 0.3)) == 0.375

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rctm_step(float("nan"), ctm_key(2.0, 0.3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rctm_step(1.5, ctm_key(2.0, 0.3))


class TestRctmStep:
    @pytest.fixture
    def key(self):
        return make_key(2.75, 0.23)

    def test_external_branch(self, key):
        # (2.75 * 0.23) mod 1
        assert rctm_step(0.23, key) == pytest.approx(0.6325, abs=1e-12)

    def test_internal_branch_below_half(self, key):
        # (1.1 mod 1) / 0.375
        assert rctm_step(0.4, key) == pytest.approx(0.1 / 0.375, abs=1e-12)

    def test_internal_branch_above_half(self, key):
        # (2.75 * 0.3675 mod 1) / 0.375
        assert rctm_step(0.6325, key) == pytest.approx(0.010625 / 0.375, abs=1e-12)

    def test_half_maps_to_one(self, key):
        # x = 0.5 sits inside [n1, n2]; numerator equals the scale exactly
        assert rctm_step(0.5, key) == 1.0

    def test_endpoints_are_fixed_near_zero(self, key):
        assert rctm_step(0.0, key) == 0.0
        assert rctm_step(1.0, key) == 0.0

    def test_boundary_states_map_near_zero(self):
        for key in random_keys(100, seed=3):
            for x in (key.n1, key.n2):
                v = rctm_step(x, key)
                assert 0.0 <= v <= 1e-9

    def test_tent_key_takes_no_mod_and_no_scaled_branch(self):
        # at mu = 1.5 the region [n1, n2] is all of [0, 1] and the scale is 0.75
        key = ctm_key(1.5, 0.3)
        assert key.n1 <= 0.8 <= key.n2
        assert rctm_step(0.8, key) == 1.5 * (1.0 - 0.8)
        assert rctm_step(0.5, ctm_key(2.0, 0.3)) == 1.0  # a mod would give 0

    @pytest.mark.parametrize("key", [make_key(61.81, 0.23), ctm_key(2.0, 0.3)])
    @pytest.mark.parametrize("x, message", [
        (float("nan"), "must be finite"), (float("inf"), "must be finite"),
        (float("-inf"), "must be finite"), (-5e-324, "must lie in"), (1.5, "must lie in"),
    ])
    def test_bad_states_raise_the_state_check_errors(self, key, x, message):
        with pytest.raises(ValueError, match=f"^state {message}"):
            rctm_step(x, key)

    def test_range_closure_random_points(self):
        rng = np.random.default_rng(17)
        for key in random_keys(200, seed=23):
            xs = rng.uniform(0.0, 1.0, size=50)
            probes = np.concatenate([xs, [0.0, 0.5, 1.0, key.n1, key.n2,
                                          np.nextafter(key.n1, 0.0),
                                          np.nextafter(key.n2, 1.0)]])
            for x in probes:
                v = rctm_step(float(x), key)
                assert 0.0 <= v <= 1.0


class TestIterate:
    def test_chains_step_examples(self):
        key = make_key(2.75, 0.23)
        traj = iterate(key, 3)
        assert traj.values[0] == 0.23
        assert traj.values[1] == pytest.approx(0.6325, abs=1e-12)
        assert traj.values[2] == pytest.approx(0.02833333, abs=1e-8)

    def test_single_sample_is_seed(self):
        key = make_key(61.81, 0.23)
        assert iterate(key, 1).values.tolist() == [0.23]

    def test_deterministic(self):
        key = make_key(61.81, 0.23)
        a = iterate(key, 5000)
        b = iterate(key, 5000)
        assert np.array_equal(a.values, b.values)

    def test_burn_in_shifts_the_orbit(self):
        key = make_key(61.81, 0.23)
        full = iterate(key, 1300).values
        assert np.array_equal(iterate(key, 1000, burn_in=300).values, full[300:])

    def test_matches_scalar_step(self):
        key = make_key(7.39, 0.41)
        traj = iterate(key, 400)
        x = key.x0
        for v in traj.values:
            assert v == x
            x = rctm_step(x, key)

    def test_orbit_stays_in_unit_interval(self):
        for key in random_keys(100, seed=5):
            v = iterate(key, 2000).values
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_rejects_bad_counts(self):
        key = make_key(61.81, 0.23)
        with pytest.raises(ValueError):
            iterate(key, 0)
        with pytest.raises(ValueError):
            iterate(key, 10, burn_in=-1)


    @pytest.mark.parametrize("burn_in", [0, 100])
    @pytest.mark.parametrize("key", [make_key(61.81, 0.23), ctm_key(1.7, 0.3)])
    def test_values_are_row_0_of_a_one_key_batch(self, kernel, key, burn_in):
        traj = iterate(key, 500, burn_in)
        assert traj.values.shape == (500,)
        assert np.array_equal(traj.values, iterate_batch([key], 500, burn_in)[0])
        assert not traj.values.flags.writeable
        with pytest.raises(ValueError):
            traj.values[0] = 0.5


class TestBranchAgreement:
    @pytest.mark.parametrize("mu", [0.7, 1.2, 1.9, 2.0])
    def test_tent_arm_equals_ctm_step(self, mu):
        """A tent-arm orbit chains rctm_step's classical tent map step."""
        key = ctm_key(mu, 0.37)
        traj = iterate(key, 500)
        x = key.x0
        for v in traj.values:
            assert v == x
            x = rctm_step(x, key)


class TestIterateBatch:
    def test_bit_identical_to_scalar(self):
        keys = random_keys(20, seed=31) + [ctm_key(1.7, 0.3), ctm_key(2.0, 0.61)]
        batch = iterate_batch(keys, 300, burn_in=50)
        for row, key in enumerate(keys):
            assert np.array_equal(batch[row], iterate(key, 300, burn_in=50).values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            iterate_batch([], 10)

    def test_out_is_filled_and_returned(self):
        keys = random_keys(6, seed=3)
        out = np.full((6, 40), np.nan)
        assert iterate_batch(keys, 40, 7, out=out) is out
        assert np.array_equal(out, iterate_batch(keys, 40, 7))

    @pytest.mark.parametrize("out", [
        np.empty((3, 40)),              # a row short
        np.empty((4, 41)),              # a sample long
        np.empty(160),                  # the right size, flat
        np.empty((4, 40), np.float32),
        np.empty((4, 80))[:, ::2],      # strided rows
        np.empty((40, 4)).T,            # Fortran order
        np.empty((4, 40)).tolist(),
    ])
    def test_out_must_be_a_contiguous_float64_array_of_the_batch_shape(self, out):
        with pytest.raises(ValueError, match="^out must"):
            iterate_batch(random_keys(4), 40, out=out)

    def test_read_only_out_refused(self):
        out = np.empty((4, 40))
        out.flags.writeable = False
        with pytest.raises(ValueError, match="^out must"):
            iterate_batch(random_keys(4), 40, out=out)


class TestKeyBlocks:
    @pytest.mark.parametrize("chunk,n,count,sizes", [
        (37, 9, 10, [4, 4, 2]),     # 37 // 9 = 4 rows: a partial last block
        (37, 3, 10, [10]),          # 12 rows fit, capped at the keys given
        (37, 40, 6, [4, 2]),        # no row fits: one lockstep group a block
        (None, 1000, 600, [260, 260, 80]),
        (None, 1000, 3, [3]),       # fewer than 4 keys: one block of 3 rows
        (None, 10**5, 6, [4, 2]),
    ])
    def test_blocks_are_one_batch_in_one_reused_buffer(self, monkeypatch, chunk, n, count,
                                                       sizes):
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
        keys = random_keys(count, seed=8)
        expected = iterate_batch(keys, n, 5)
        blocks = [(block, states.copy(), states) for block, states in core._key_blocks(keys, n, 5)]
        assert [len(block) for block, _, _ in blocks] == sizes
        assert [key for block, _, _ in blocks for key in block] == keys
        assert np.concatenate([rows for _, rows, _ in blocks]).tobytes() == expected.tobytes()
        first = blocks[0][2]
        assert all(np.shares_memory(states, first) for _, _, states in blocks)

    @pytest.mark.parametrize("keys,n,burn_in,message", [
        ([], 10, 0, "keys must be non-empty"),
        (["not drawn"], 0, 0, "n must be >= 1, got 0"),
        (["not drawn"], 10, -1, "burn_in must be >= 0, got -1"),
    ])
    def test_counts_and_keys_checked_before_any_orbit(self, keys, n, burn_in, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(core._key_blocks(keys, n, burn_in))


class TestOrbitBuffers:
    def test_kernel_calls_leave_no_cyclic_garbage(self, kernel):
        keys = random_keys(5)
        iterate_batch(keys, 10)
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(100):
                iterate_batch(keys, 10)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert not garbage, sorted({type(obj).__name__ for obj in garbage})

    @pytest.mark.parametrize("name", ["x", "out"])
    @pytest.mark.parametrize("fault", ["float32", "strided", "read-only"])
    def test_states_and_output_are_checked_on_either_kernel(self, kernel, name, fault):
        arrays = {"x": np.array([0.3, 0.4]), "out": np.empty((2, 5))}
        arr = arrays[name]
        if fault == "float32":
            arr = arr.astype(np.float32)
        elif fault == "strided":
            arr = np.repeat(arr, 2, axis=-1)[..., ::2]
        else:
            arr.flags.writeable = False
        arrays[name] = arr
        with pytest.raises(ValueError, match=f"^{name} must be a C-contiguous, writeable float64"):
            core._orbit([make_key(61.81, 0.23)] * 2, arrays["x"], 0, arrays["out"])


class TestLogDerivative:
    def test_external_slope(self):
        key = make_key(2.75, 0.23)
        assert log_derivative(0.23, key) == pytest.approx(math.log(2.75), abs=1e-12)

    def test_internal_slope(self):
        key = make_key(2.75, 0.23)
        assert log_derivative(0.4, key) == pytest.approx(math.log(2.75 / 0.375), abs=1e-12)

    def test_tent_mode_slope(self):
        key = ctm_key(2.0, 0.25)
        assert log_derivative(0.25, key) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_boundary_tie_uses_internal_slope(self):
        key = make_key(61.81, 0.23)
        internal = math.log(key.mu / key.scale)
        assert log_derivative(key.n1, key) == internal
        assert log_derivative(key.n2, key) == internal


class TestSensitivity:
    def test_seed_perturbation_decorrelates(self):
        from rctm.analysis import pearson_correlation
        a = iterate(make_key(61.81, 0.23), 1000, burn_in=100).values
        b = iterate(make_key(61.81, 0.23 + 2.0 ** -48), 1000, burn_in=100).values
        assert abs(pearson_correlation(a, b)) <= 0.15


class TestTrajectoryType:
    def test_values_are_read_only(self):
        traj = iterate(make_key(61.81, 0.23), 10)
        with pytest.raises(ValueError):
            traj.values[0] = 0.5

    def test_region_bounds_helper_matches_key(self):
        key = make_key(61.81, 0.23)
        assert region_bounds(61.81) == (key.n1, key.n2)
        assert isinstance(key, MapKey)


def _reference_orbit(key, n):
    """Chained reference steps: the oracle every orbit path must match."""
    x = key.x0
    out = []
    for _ in range(n):
        out.append(x)
        x = rctm_step(x, key)
    return np.array(out)


def edge_keys():
    """Random and tent keys started on and just outside the region bounds,
    at 1/2 (which goes 1/2 -> 1 -> 0) and at a tiny state."""
    keys = []
    for base in random_keys(200, seed=11) + [ctm_key(1.7, 0.3), ctm_key(2.0, 0.61),
                                             ctm_key(0.9, 0.4)]:
        starts = (base.n1, base.n2, np.nextafter(base.n1, 0.0), np.nextafter(base.n2, 1.0),
                  0.5, 1e-300)
        keys += [replace(base, x0=float(x0)) for x0 in starts if 0.0 < x0 < 1.0]
    return keys


class TestKernel:
    def test_orbit_paths_equal_chained_reference_steps(self, kernel, monkeypatch):
        monkeypatch.setattr(core, "_CHUNK", 37)  # odd chunk boundaries inside the orbit
        keys = edge_keys()
        batch = iterate_batch(keys, 150)
        for key, row in zip(keys, batch):
            expected = _reference_orbit(key, 150)
            assert np.array_equal(iterate(key, 150).values, expected)
            assert np.array_equal(row, expected)
            chunks = np.concatenate(list(orbit_chunks(key, 140, burn_in=10)))
            assert np.array_equal(chunks, expected[10:])

    def test_one_step_equals_reference_step_at_edge_states(self, kernel):
        """One and two loop steps from every state where a min/round rewrite of
        the reflection and the floor, or the reflection carried from one step
        to the next, could part from the reference branch and floor."""
        near = lambda v: (np.nextafter(v, -1.0), v, np.nextafter(v, 2.0))
        keys = random_keys(12, seed=5) + [
            make_key(mu, 0.3) for mu in (float(np.nextafter(2.0, 3.0)), 2.0 + 2.0 ** -30, 2.5,
                                         float(np.nextafter(3.0, 2.0)), 61.81, 97.3, 99.99,
                                         float(np.nextafter(100.0, 0.0)))
        ] + [ctm_key(mu, 0.3) for mu in (2.0, float(np.nextafter(2.0, 0.0)), 1.7, 1.0, 0.9)]
        on_integer, on_half, below_half = 0, 0, 0
        ties = {0: 0, 1: 0}  # t exactly k + 1/2, by the parity of k
        for key in keys:
            states = {0.0, 1.0, *near(0.5), *near(key.n1), *near(key.n2)}
            # mu*x and mu*(1-x) on each integer up to mu/2 and one ulp under it
            for k in range(1, int(key.mu / 2) + 1):
                for base in (k / key.mu, 1.0 - k / key.mu):
                    for x in (*near(np.nextafter(base, -1.0)), *near(np.nextafter(base, 2.0))):
                        t = key.mu * (x if x < 0.5 else 1.0 - x)
                        if t in (k, np.nextafter(k, 0.0)):
                            states.add(x)
                            on_integer += 1
            # t on k + 1/2 and one ulp on either side: the ties of rounding t
            # to an integer with 2^52, where t - round(t) is +-1/2
            for k in range(int(key.mu / 2 + 0.5)):
                for base in ((k + 0.5) / key.mu, 1.0 - (k + 0.5) / key.mu):
                    for x in (*near(np.nextafter(base, -1.0)), *near(np.nextafter(base, 2.0))):
                        t = key.mu * (x if x < 0.5 else 1.0 - x)
                        if t in near(k + 0.5):
                            states.add(x)
                            on_half += 1
                            ties[k % 2] += t == k + 0.5
            # t in (0, 1/2), which rounds to 0
            for x in (5e-324, 2.0 ** -1022, 1e-300, 0.25 / key.mu, 1.0 - 0.25 / key.mu,
                      1.0 - 2.0 ** -53):
                t = key.mu * (x if x < 0.5 else 1.0 - x)
                if 0.0 < t < 0.5:
                    states.add(x)
                    below_half += 1
            # every state is one row of a single n = 1 call, so the states
            # pass through the four-lane groups and the remainder loop
            xs = sorted(float(x) for x in states if 0.0 <= x <= 1.0)
            got, out = np.array(xs), np.empty((len(xs), 1))
            core._orbit([key] * len(xs), got, 0, out)
            assert out[:, 0].tolist() == xs
            for x, y in zip(xs, got.tolist()):
                assert y.hex() == rctm_step(x, key).hex(), (key.mu, x.hex())
            # a second step reads the reflection the loop carried from the first
            got = np.array(xs)
            core._orbit([key] * len(xs), got, 1, out)
            for x, y in zip(xs, got.tolist()):
                assert y.hex() == rctm_step(rctm_step(x, key), key).hex(), (key.mu, x.hex())
        assert on_integer > 500
        assert on_half > 500 and min(ties.values()) > 100
        assert below_half > 100

    @pytest.mark.parametrize("burn_in", [0, 1, 1000])
    def test_every_lane_equals_the_one_key_orbit(self, kernel, burn_in, monkeypatch):
        """1 to 9 rows: no group, one or two four-lane groups, and 0-3 rows left
        over, with tent and robust keys mixed inside a group."""
        keys = [make_key(61.81, 0.23), ctm_key(1.7, 0.3), make_key(2.5, 0.3),
                ctm_key(2.0, 0.61), make_key(97.3, 0.611), make_key(49.13, 0.28),
                ctm_key(0.9, 0.4), make_key(7.39, 0.41), make_key(3.75, 0.5)]
        for n in (1, 60):
            expected = [_reference_orbit(key, burn_in + n)[burn_in:] for key in keys]
            for rows in range(1, len(keys) + 1):
                batch = iterate_batch(keys[:rows], n, burn_in)
                for key, row, ref in zip(keys, batch, expected):
                    assert np.array_equal(row, iterate(key, n, burn_in).values)
                    assert np.array_equal(row, ref)
        monkeypatch.setattr(core, "_CHUNK", 37)
        for key in keys:
            chunks = np.concatenate(list(orbit_chunks(key, 100, burn_in)))
            assert np.array_equal(chunks, iterate(key, 100, burn_in).values)

    def test_rows_of_states_and_output_must_match_the_keys(self):
        key = make_key(61.81, 0.23)
        with pytest.raises(ValueError):
            core._orbit([key, key], np.array([0.3]), 0, np.empty((2, 5)))
        with pytest.raises(ValueError):
            core._orbit([key, key], np.array([0.3, 0.4]), 0, np.empty(5))

    def test_kernel_attribute_is_read_only(self, kernel):
        assert core.KERNEL == kernel
        with pytest.raises(AttributeError):
            core.KERNEL = "c"

    def test_missing_compiler_falls_back_to_the_chained_reference_step(self, tmp_path,
                                                                      monkeypatch):
        core._kernel.cache_clear()
        monkeypatch.setattr(core, "_CC", (str(tmp_path / "no-such-cc"), "-o"))
        try:
            assert core.KERNEL == "python"
            key = make_key(61.81, 0.23)
            assert np.array_equal(iterate(key, 500, burn_in=10).values,
                                  _reference_orbit(key, 510)[10:])
        finally:
            core._kernel.cache_clear()

    def test_failed_build_leaves_no_partial_library(self, monkeypatch):
        cache = core._SOURCE.parent / "__pycache__" / "rctm_orbit"
        before = sorted(cache.iterdir()) if cache.exists() else []
        monkeypatch.setattr(core, "_CC", FAILING_CC)
        with pytest.raises(subprocess.CalledProcessError):
            core._build()
        assert sorted(cache.iterdir()) == before

    def test_build_refuses_a_cache_others_can_write(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_SOURCE", tmp_path / "_orbit.c")
        shutil.copy(Path(core.__file__).with_name("_orbit.c"), core._SOURCE)
        cache = tmp_path / "__pycache__" / "rctm_orbit"
        cache.mkdir(parents=True)
        cache.chmod(0o777)
        with pytest.raises(PermissionError):
            core._build()
        assert list(cache.iterdir()) == []
        cache.chmod(0o700)
        lib = core._build()
        assert list(cache.iterdir()) == [lib]
        assert ctypes.CDLL(str(lib)).rctm_orbit

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs a C compiler")
    def test_successful_build_prunes_stale_libraries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_SOURCE", tmp_path / "_orbit.c")
        shutil.copy(Path(core.__file__).with_name("_orbit.c"), core._SOURCE)
        first = core._build()
        monkeypatch.setattr(core, "_CC", tuple("-O1" if a == "-O2" else a for a in core._CC))
        second = core._build()
        assert second != first
        assert list(second.parent.iterdir()) == [second]
        # a failed build removes nothing
        monkeypatch.setattr(core, "_CC", FAILING_CC)
        with pytest.raises(subprocess.CalledProcessError):
            core._build()
        assert list(second.parent.iterdir()) == [second]

    def test_concurrent_first_builds_all_load_one_library(self, tmp_path):
        shutil.copy(Path(core.__file__).with_name("_orbit.c"), tmp_path / "_orbit.c")
        script = ("import sys, pathlib; from rctm import core; "
                  "core._SOURCE = pathlib.Path(sys.argv[1]); print(core.KERNEL)")
        env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).parents[1])}
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path / "_orbit.c")],
                                  env=env, stdout=subprocess.PIPE, text=True)
                 for _ in range(4)]
        outputs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert [p.returncode for p in procs] == [0] * 4
        assert outputs == ["c"] * 4
        built = list((tmp_path / "__pycache__" / "rctm_orbit").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"


# Known answers for the binary64 orbit's measured weaknesses, on the compiled
# loop (the pinned digests hold the fallback equal to it).
class TestMeasuredWeaknesses:
    @pytest.mark.parametrize("kernel", ["c"], indirect=True)
    @pytest.mark.parametrize("mu,x0,first_repeat,earlier", [
        (49.13, 0.28, 10_685_535, 2_712_101),  # the paper's sensitivity key
        (97.3, 0.611, 5_826_271, 3_921_920),
    ])
    def test_first_repeat_of_the_orbit(self, kernel, mu, x0, first_repeat, earlier):
        x = iterate(make_key(mu, x0), first_repeat + 1).values
        assert x[first_repeat] == x[earlier]
        assert np.unique(x[:first_repeat]).size == first_repeat

    @pytest.mark.parametrize("kernel", ["c"], indirect=True)
    @pytest.mark.parametrize("mu,x0", [(61.81, 0.77), (49.13, 0.9), (97.3, 0.611)])
    def test_mirror_twin_keys_give_one_orbit_after_the_first_step(self, kernel, mu, x0):
        # for x >= 1/2, 1 - x is exact and the branch and region are symmetric
        key, twin = make_key(mu, x0), make_key(mu, 1.0 - x0)
        assert np.array_equal(iterate(key, 10**5, burn_in=1).values,
                              iterate(twin, 10**5, burn_in=1).values)
        assert not np.array_equal(iterate(key, 10**5).values, iterate(twin, 10**5).values)
