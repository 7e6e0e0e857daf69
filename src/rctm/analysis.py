"""Security analyses: correlation, key sensitivity, differential metrics,
entropy sweeps and key-space accounting (histogram uniformity is in ``ent``).

Perturbation sweeps build keys at base + k*delta on the varied parameter.
Offsets whose perturbed value rounds back to the base parameter in binary64
(possible when delta is at or below half an ulp of the parameter) produce
no pair; they are skipped, reported in the result, and further offsets are
drawn until the requested pair count is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MU_MAX, MU_MIN, MapKey, Trajectory, _key_blocks, iterate_batch, make_key
from .ent import byte_entropy
from .prbg import quantize_values

DEFAULT_DELTA = 2.0 ** -48
SENSITIVITY_PREVIEW = 30


@dataclass(frozen=True)
class KeySpaceReport:
    """Key count accounting at a decimal precision of 10**precision_exponent."""

    precision_exponent: int
    component_counts: dict[str, float]
    total_bits: float
    weak_key_adjusted_bits: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-pair metrics of a perturbation sweep plus their aggregates."""

    base_key: MapKey
    vary: str
    delta: float
    length: int
    burn_in: int
    correlations: np.ndarray
    uaci_pct: np.ndarray
    npcr_pct: np.ndarray
    skipped_offsets: tuple[int, ...] = ()

    @property
    def pairs(self) -> int:
        return self.correlations.size

    def aggregates(self) -> dict[str, dict[str, float]]:
        out = {}
        for name, arr in (("correlation", self.correlations),
                          ("uaci_pct", self.uaci_pct),
                          ("npcr_pct", self.npcr_pct)):
            out[name] = {
                "min": float(arr.min()),
                "max": float(arr.max()),
                "mean": float(arr.mean()),
                "mean_abs": float(np.abs(arr).mean()),
            }
        return out


@dataclass(frozen=True, eq=False)
class KeySensitivityResult:
    """Orbits of the perturbed keys with their pairwise correlation matrix."""

    vary: str
    base_key: MapKey
    delta: float
    burn_in: int
    keys: tuple[MapKey, ...]
    states: np.ndarray  # row i is the orbit of keys[i]
    pairwise_correlations: np.ndarray
    preview: np.ndarray  # view of the first samples of each row, for plotting
    offsets: tuple[int, ...] = ()
    skipped_offsets: tuple[int, ...] = ()

    def max_off_diagonal(self) -> float:
        r = self.pairwise_correlations
        mask = ~np.eye(r.shape[0], dtype=bool)
        return float(np.abs(r[mask]).max())


@dataclass(frozen=True, eq=False)
class EntropySweepResult:
    """Mean 8-bit entropy over sequences seeded at fixed x0 increments."""

    mean_entropy: float
    entropies: np.ndarray
    seed_increment: float
    sequences: int
    length: int
    burn_in: int


def pearson_correlation(x, y) -> float:
    """Correlation coefficient of two equal-length sequences.

    Computed from the raw sums L*sum(xy) - sum(x)*sum(y) over the root of
    the variance products.  Zero-variance input is an error rather than a
    silent zero.
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"sequences must be 1-d and equal length, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least two samples")
    L = float(a.size)
    sx, sy = float(a.sum()), float(b.sum())
    vx = L * float(np.dot(a, a)) - sx * sx
    vy = L * float(np.dot(b, b)) - sy * sy
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("zero-variance sequence: correlation undefined")
    return (L * float(np.dot(a, b)) - sx * sy) / math.sqrt(vx * vy)


def differential(t1: Trajectory | np.ndarray, t2: Trajectory | np.ndarray):
    """(UACI %, NPCR %) of a trajectory, or of each row of a batch, against t2.

    UACI is the mean absolute difference of the raw samples in [0, 1],
    scaled to percent; NPCR is the percentage of positions whose 8-bit
    quantizations differ.  Both reduce over the last axis: one trajectory
    gives two float64 scalars, rows of trajectories two arrays.
    """
    a = t1.values if isinstance(t1, Trajectory) else np.asarray(t1, dtype=np.float64)
    b = t2.values if isinstance(t2, Trajectory) else np.asarray(t2, dtype=np.float64)
    if b.ndim != 1 or b.size < 1 or a.ndim not in (1, 2) or a.shape[-1] != b.size:
        raise ValueError("t1 must be a trajectory or rows of trajectories as long as the "
                         f"1-d, non-empty t2, got {a.shape} vs {b.shape}")
    uaci = 100.0 * np.abs(a - b).mean(axis=-1)
    npcr = 100.0 * np.mean(quantize_values(a) != quantize_values(b), axis=-1)
    return uaci, npcr


def _key_at(base: MapKey, vary: str, value: float) -> MapKey:
    """``base`` with its ``vary`` parameter ("mu" or "x0") set to ``value``."""
    return make_key(value, base.x0) if vary == "mu" else make_key(base.mu, value)


def _check_vary(vary: str) -> None:
    if vary not in ("mu", "x0"):
        raise ValueError(f"vary must be 'mu' or 'x0', got {vary!r}")


def _perturbed_keys(base: MapKey, vary: str, delta: float,
                    count: int) -> tuple[list[MapKey], list[int]]:
    """Keys at base + k*delta for k = 1, 2, ...; no-op roundings skipped."""
    _check_vary(vary)
    if not math.isfinite(delta) or delta == 0.0:
        raise ValueError("delta must be finite and non-zero")
    base_value = getattr(base, vary)
    keys: list[MapKey] = []
    skipped: list[int] = []
    k = 0
    limit = 10 * count + 100
    while len(keys) < count:
        k += 1
        if k > limit:
            raise ValueError(f"delta {delta!r} is below the representable resolution of {vary}")
        value = base_value + k * delta
        if value == base_value:
            skipped.append(k)
            continue
        keys.append(_key_at(base, vary, value))
    return keys, skipped


def correlation_sweep(base: MapKey, delta: float = DEFAULT_DELTA, pairs: int = 1000,
                      length: int = 1000, vary: str = "mu", burn_in: int = 100) -> SweepResult:
    """Correlate the base trajectory against `pairs` perturbed trajectories.

    Each pair also gets its UACI/NPCR so one sweep serves both the
    correlation and the differential analyses.  The perturbed orbits are
    drawn a block at a time, so memory stays flat in `pairs`.  Raises when
    a perturbed parameter leaves its valid range or delta is zero.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    keys, skipped = _perturbed_keys(base, vary, delta, pairs)
    base_values = iterate_batch([base], length, burn_in)[0]
    correlations, diffs = [], []
    for _, states in _key_blocks(keys, length, burn_in):
        correlations += [pearson_correlation(base_values, row) for row in states]
        diffs.append(differential(states, base_values))
    uaci, npcr = (np.concatenate(metric) for metric in zip(*diffs))
    return SweepResult(base_key=base, vary=vary, delta=delta, length=length,
                       burn_in=burn_in, correlations=np.array(correlations),
                       uaci_pct=uaci, npcr_pct=npcr,
                       skipped_offsets=tuple(skipped))


def key_sensitivity_run(base: MapKey, vary: str = "mu", delta: float = DEFAULT_DELTA,
                        sequences: int = 5, length: int = 3000,
                        burn_in: int = 0) -> KeySensitivityResult:
    """Orbits at base + k*delta (k = 0..sequences-1) on one parameter.

    ``vary`` selects the perturbed parameter: ``mu`` or ``x0``.  Returns the
    keys, their orbits (one row each, from x0 by default as in the paper's
    preview) and the pairwise correlation matrix.  delta = 0 is allowed and
    yields identical orbits with unit correlations.

    A non-zero delta must produce `sequences` bitwise-distinct keys;
    offsets whose perturbed value rounds onto an already-used key are
    skipped (reported in the result) and further offsets are drawn.
    """
    _check_vary(vary)
    if sequences < 2:
        raise ValueError(f"sequences must be >= 2, got {sequences}")
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    if not math.isfinite(delta):
        raise ValueError("delta must be finite")
    base_value = getattr(base, vary)
    keys = [_key_at(base, vary, base_value)]
    offsets = [0]
    skipped: list[int] = []
    if delta == 0.0:
        keys = keys * sequences
        offsets = [0] * sequences
    else:
        k = 0
        limit = 50 * sequences + 100
        while len(keys) < sequences:
            k += 1
            if k > limit:
                raise ValueError(f"delta {delta!r} cannot produce {sequences} "
                                 f"distinct values of {vary}")
            value = base_value + k * delta
            # base + k*delta is monotone in k: a used value can only be the last one
            if value == getattr(keys[-1], vary):
                skipped.append(k)
                continue
            keys.append(_key_at(base, vary, value))
            offsets.append(k)
    states = iterate_batch(keys, length, burn_in)
    r = np.eye(sequences)
    for i in range(sequences):
        for j in range(i + 1, sequences):
            r[i, j] = r[j, i] = pearson_correlation(states[i], states[j])
    return KeySensitivityResult(vary=vary, base_key=base, delta=delta,
                                burn_in=burn_in, keys=tuple(keys), states=states,
                                pairwise_correlations=r,
                                preview=states[:, :SENSITIVITY_PREVIEW],
                                offsets=tuple(offsets), skipped_offsets=tuple(skipped))


def entropy_sweep(base: MapKey, sequences: int = 100, length: int = 100_000,
                  seed_increment: float = 2.0 ** -20,
                  burn_in: int = 0) -> EntropySweepResult:
    """Mean 8-bit entropy over sequences seeded at x0 + k*seed_increment."""
    if sequences < 1:
        raise ValueError(f"sequences must be >= 1, got {sequences}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not math.isfinite(seed_increment):  # k = 0 would give x0 + 0 * inf, a NaN x0
        raise ValueError(f"seed_increment must be finite, got {seed_increment!r}")
    keys = [make_key(base.mu, base.x0 + k * seed_increment) for k in range(sequences)]
    entropies = np.array([byte_entropy(quantize_values(row))
                          for _, states in _key_blocks(keys, length, burn_in) for row in states])
    return EntropySweepResult(mean_entropy=float(entropies.mean()),
                              entropies=entropies,
                              seed_increment=seed_increment,
                              sequences=sequences, length=length,
                              burn_in=burn_in)


def keyspace_report(precision_exponent: int = -16) -> KeySpaceReport:
    """Count distinguishable keys at decimal precision 10**precision_exponent.

    Components: x0 over (0, 1) gives 10**-p values; mu over (2, 100) gives
    98 * 10**-p; each derived bound contributes three fewer decimal digits,
    10**-(p + 3).  Total bits is log2 of the product; the weak-key-adjusted
    figure halves the space (one bit).  p must lie in [-306, -3], where every
    component counts at least one value and stays finite in binary64.
    """
    if not float(precision_exponent).is_integer():
        raise ValueError(f"precision_exponent must be an integer, got {precision_exponent!r}")
    p = int(precision_exponent)
    if not -306 <= p <= -3:
        raise ValueError(f"precision_exponent must lie in [-306, -3], got {p}")
    counts = {
        "x0": 10.0 ** (-p),
        "mu": (MU_MAX - MU_MIN) * 10.0 ** (-p),
        "n1": 10.0 ** (-(p + 3)),
        "n2": 10.0 ** (-(p + 3)),
    }
    total_bits = float(sum(math.log2(v) for v in counts.values()))
    return KeySpaceReport(precision_exponent=p, component_counts=counts,
                          total_bits=total_bits,
                          weak_key_adjusted_bits=total_bits - 1.0)
