"""Chaos diagnostics: bifurcation sampling, Lyapunov exponents, ergodicity.

The Lyapunov estimator is the orbit average of the analytic branch
log-slopes (exact derivatives are available per branch, so no two-orbit
renormalization scheme is needed).  Phase coverage measures the fraction of
equal-width cells of [0, 1] an orbit visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (MU_MIN, InvalidKeyError, MapKey, _branch_log_slopes, _check_x0, _key_blocks,
                   ctm_key, iterate, iterate_batch, make_key)

@dataclass(frozen=True)
class LyapunovEstimate:
    """Time-averaged log branch slope, in nats per iteration."""

    mu: float
    exponent: float
    n_samples: int


@dataclass(frozen=True, eq=False)
class BifurcationResult:
    """Attractor samples ``x[i]`` at ``mu[i]`` in grid order, ``keep`` per
    supported grid value, plus the sampling parameters."""

    mu: np.ndarray
    x: np.ndarray
    skipped_mu: list[float]
    settle: int
    keep: int
    x0: float


def grid_keys(mu_grid: Sequence[float], x0: float) -> tuple[list[MapKey], list[float]]:
    """Keys for the supported grid values in grid order, and the values skipped.

    x0 is checked once, so a bad x0 is refused, not skipped.  A value in
    (0, 2] goes to :func:`ctm_key` and any other to :func:`make_key`; it is
    skipped exactly when that constructor refuses it.  A grid with no
    supported value, an empty one included, is refused.
    """
    _check_x0(float(x0))
    keys, skipped = [], []
    for mu in mu_grid:
        mu = float(mu)
        try:
            keys.append((ctm_key if 0.0 < mu <= MU_MIN else make_key)(mu, x0))
        except InvalidKeyError:
            skipped.append(mu)
    if not keys:
        raise ValueError("no supported mu values in grid")
    return keys, skipped


def bifurcation_sample(mu_grid: Sequence[float], x0: float,
                       settle: int = 1000, keep: int = 200) -> BifurcationResult:
    """Sample `keep` successive states per grid value after `settle` iterates.

    Grid values :func:`grid_keys` skips are reported in the result.  Output
    holds keep * (supported values) samples in grid order.
    """
    if settle < 0:
        raise ValueError(f"settle must be >= 0, got {settle}")
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    keys, skipped = grid_keys(mu_grid, x0)
    states = iterate_batch(keys, keep, burn_in=settle)
    return BifurcationResult(mu=np.repeat([key.mu for key in keys], keep), x=states.ravel(),
                             skipped_mu=skipped, settle=settle, keep=keep, x0=x0)


def lyapunov(key: MapKey, n: int, burn_in: int = 100) -> LyapunovEstimate:
    """Estimate the Lyapunov exponent along one orbit.

    Averages ln|slope| of the branch taken at each of the n samples after
    burn_in.  For the tent arm the slope magnitude is mu everywhere, so the
    estimate equals ln(mu) exactly; n >= 1000 is recommended for stable
    estimates above mu = 2.
    """
    traj = iterate(key, n, burn_in)
    slopes = _branch_log_slopes(traj.values, key)
    return LyapunovEstimate(mu=key.mu, exponent=float(slopes.mean()), n_samples=n)


def lyapunov_expected(mu: float) -> float:
    """Space-average prediction of the exponent for mu > 2.

    The map preserves Lebesgue measure (branch widths are reciprocal
    slopes summing to one), so the orbit average converges to
    ln(mu) - (2 s / mu) ln(s) with s = (mu/2) mod 1.
    """
    if mu <= MU_MIN:
        return math.log(mu)
    s = (0.5 * mu) % 1.0
    return math.log(mu) - (2.0 * s / mu) * math.log(s)


def lyapunov_grid(mu_values: Sequence[float], x0: float, n: int = 100_000,
                  burn_in: int = 100) -> list[LyapunovEstimate]:
    """Lyapunov estimates over a mu grid, less the values :func:`grid_keys` skips."""
    keys, _ = grid_keys(mu_values, x0)
    return [
        LyapunovEstimate(mu=key.mu, exponent=float(_branch_log_slopes(row, key).mean()),
                         n_samples=n)
        for block, states in _key_blocks(keys, n, burn_in) for key, row in zip(block, states)
    ]


def phase_coverage(key: MapKey, n: int = 100_000, bins: int = 1000) -> float:
    """Fraction of `bins` equal cells of [0, 1] visited in n iterates."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    traj = iterate(key, n)
    counts, _ = np.histogram(traj.values, bins=bins, range=(0.0, 1.0))
    return float(np.count_nonzero(counts)) / bins
