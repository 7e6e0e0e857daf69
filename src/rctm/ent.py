"""ENT-style byte statistics: entropy, chi-square, mean, Monte Carlo pi,
serial correlation and the entropy-derived compression percentage.

Conventions follow the classic ENT tool: the chi-square percentile is the
percentage of the time a truly random sequence would exceed the observed
statistic; Monte Carlo pi consumes non-overlapping 6-byte groups as 24-bit
(x, y) points inside the square circumscribing a quarter circle; serial
correlation is the lag-1 coefficient with the last byte paired back to the
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nist import _gamma_q

_MC_RADIUS_SQ = (256.0 ** 3 - 1.0) ** 2


@dataclass(frozen=True)
class EntReport:
    entropy_bits_per_byte: float
    optimum_compression_pct: float
    chi_square_stat: float
    chi_square_percentile: float
    arithmetic_mean: float
    monte_carlo_pi: float
    monte_carlo_pi_error_pct: float
    serial_correlation: float
    n_bytes: int


def _as_bytes(data) -> np.ndarray:
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = np.frombuffer(bytes(data), dtype=np.uint8)
    arr = np.asarray(data)
    if arr.dtype != np.uint8:
        raise ValueError("byte input must be uint8 or bytes-like")
    if arr.size == 0:
        raise ValueError("byte input must be non-empty")
    return arr


def byte_entropy(data) -> float:
    """Shannon entropy of the 8-bit symbol distribution, in bits per byte."""
    arr = _as_bytes(data)
    counts = np.bincount(arr, minlength=256)
    p = counts[counts > 0] / arr.size
    return float(-np.sum(p * np.log2(p)))


def histogram_uniformity(data) -> tuple[np.ndarray, float, float]:
    """Counts of the 256 byte values plus chi-square goodness of fit against uniform.

    Returns (counts, chi_square, p_value) with 255 degrees of freedom.
    """
    arr = _as_bytes(data)
    counts = np.bincount(arr, minlength=256)
    expected = arr.size / 256
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return counts, chi2, _gamma_q(255 / 2.0, chi2 / 2.0)


def _monte_carlo_pi(arr: np.ndarray) -> tuple[float, float]:
    groups = arr[:(arr.size // 6) * 6].astype(np.float64).reshape(-1, 6)
    if groups.shape[0] == 0:
        return float("nan"), float("nan")
    mx = groups[:, 0] * 65536.0 + groups[:, 1] * 256.0 + groups[:, 2]
    my = groups[:, 3] * 65536.0 + groups[:, 4] * 256.0 + groups[:, 5]
    inside = int(np.count_nonzero(mx * mx + my * my <= _MC_RADIUS_SQ))
    pi_est = 4.0 * inside / groups.shape[0]
    return pi_est, abs(pi_est - math.pi) / math.pi * 100.0


def _serial_correlation(arr: np.ndarray) -> float:
    x = arr.astype(np.float64)
    n = float(x.size)
    t1 = float(np.dot(x, np.roll(x, -1)))
    t2 = float(x.sum()) ** 2
    t3 = float(np.dot(x, x))
    den = n * t3 - t2
    if den == 0.0:
        return float("nan")
    return (n * t1 - t2) / den


def ent_battery(data) -> EntReport:
    """Compute the six ENT statistics over a byte sequence.

    At least 256 bytes are needed for the chi-square to be meaningful;
    shorter inputs still produce a report.  Undefined statistics (serial
    correlation of a constant stream, pi with fewer than six bytes) come
    back as NaN.
    """
    arr = _as_bytes(data)
    counts, chi2, chi2_p = histogram_uniformity(arr)
    n = arr.size
    p = counts[counts > 0] / n
    entropy = float(-np.sum(p * np.log2(p)))
    compression = float(round((8.0 - entropy) / 8.0 * 100.0))
    pi_est, pi_err = _monte_carlo_pi(arr)
    return EntReport(
        entropy_bits_per_byte=entropy,
        optimum_compression_pct=compression,
        chi_square_stat=chi2,
        chi_square_percentile=chi2_p * 100.0,
        arithmetic_mean=float(arr.mean()),
        monte_carlo_pi=pi_est,
        monte_carlo_pi_error_pct=pi_err,
        serial_correlation=_serial_correlation(arr),
        n_bytes=int(n),
    )
