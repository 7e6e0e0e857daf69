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

from .core import (MU_MAX, MU_MIN, MapKey, _branch_log_slopes, ctm_key, iterate,
                   iterate_batch, make_key)

DEFAULT_SETTLE = 1000
DEFAULT_KEEP = 200


@dataclass(frozen=True)
class BifurcationPoint:
    mu: float
    x: float


@dataclass(frozen=True)
class LyapunovEstimate:
    """Time-averaged log branch slope, in nats per iteration."""

    mu: float
    exponent: float
    n_samples: int


@dataclass(frozen=True)
class BifurcationResult:
    """Attractor samples per grid point, plus the sampling parameters."""

    points: list[BifurcationPoint]
    skipped_mu: list[float]
    settle: int
    keep: int
    x0: float


def _grid_key(mu: float, x0: float) -> MapKey | None:
    """Key for a grid value, or None for values the map does not support.

    Tent-arm values (0 < mu <= 2, integers included: no division there) and
    non-integer mu in (2, 100) are usable; everything else is skipped.
    """
    if not math.isfinite(mu):
        return None
    if 0.0 < mu <= MU_MIN:
        return ctm_key(mu, x0)
    if MU_MIN < mu < MU_MAX and mu != int(mu):
        return make_key(mu, x0)
    return None


def bifurcation_sample(mu_grid: Sequence[float], x0: float,
                       settle: int = DEFAULT_SETTLE,
                       keep: int = DEFAULT_KEEP) -> BifurcationResult:
    """Sample `keep` successive states per grid value after `settle` iterates.

    Unsupported grid values (integers above 2, values outside (0, 100)) are
    skipped and reported in the result.  Output holds keep * (valid points)
    samples in grid order.
    """
    mu_grid = list(mu_grid)
    if not mu_grid:
        raise ValueError("mu_grid must be non-empty")
    if settle < 0:
        raise ValueError(f"settle must be >= 0, got {settle}")
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    keys, valid_mu, skipped = [], [], []
    for mu in mu_grid:
        key = _grid_key(float(mu), x0)
        if key is None:
            skipped.append(float(mu))
        else:
            keys.append(key)
            valid_mu.append(float(mu))
    points: list[BifurcationPoint] = []
    if keys:
        states = iterate_batch(keys, keep, burn_in=settle)
        for row, mu in enumerate(valid_mu):
            points.extend(BifurcationPoint(mu=mu, x=float(x)) for x in states[row])
    return BifurcationResult(points=points, skipped_mu=skipped,
                             settle=settle, keep=keep, x0=x0)


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


def lyapunov_grid(mu_values: Sequence[float], x0: float, n: int,
                  burn_in: int = 100) -> list[LyapunovEstimate]:
    """Lyapunov estimates over a mu grid; unsupported values are dropped."""
    keys = [k for mu in mu_values if (k := _grid_key(float(mu), x0)) is not None]
    if not keys:
        raise ValueError("no supported mu values in grid")
    # blocks of 8 keys (two lockstep groups of the orbit loop) keep memory flat
    return [
        LyapunovEstimate(mu=key.mu, exponent=float(_branch_log_slopes(row, key).mean()),
                         n_samples=n)
        for i in range(0, len(keys), 8)
        for key, row in zip(keys[i:i + 8], iterate_batch(keys[i:i + 8], n, burn_in))
    ]


def phase_coverage(key: MapKey, n: int, bins: int) -> float:
    """Fraction of `bins` equal cells of [0, 1] visited in n iterates."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    traj = iterate(key, n)
    counts, _ = np.histogram(traj.values, bins=bins, range=(0.0, 1.0))
    return float(np.count_nonzero(counts)) / bins
