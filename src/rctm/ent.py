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

_MC_RADIUS_SQ = (2 ** 24 - 1) ** 2


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
    if arr.ndim != 1:
        raise ValueError(f"byte input must be one-dimensional, got {arr.ndim} dimensions")
    if arr.size == 0:
        raise ValueError("byte input must be non-empty")
    return arr


# Every sum below runs over slices of _SLICE bytes in exact integer arithmetic,
# so no whole-length float64 or intp copy of the data is made.  Each sum then
# goes into the float formulas of the classic tool, which it matches bit for
# bit while it is exact in binary64: the largest, sum x^2, stays below 2^53 up
# to 2^53 / 255^2, about 1.4 x 10^11 bytes.
_SLICE = 1 << 16
_VALUES = np.arange(256, dtype=np.int64)


def _counts(arr: np.ndarray) -> np.ndarray:
    """Occurrences of each of the 256 byte values (intp, as ``np.bincount``)."""
    counts = np.zeros(256, dtype=np.intp)
    for i in range(0, arr.size, _SLICE):
        counts += np.bincount(arr[i:i + _SLICE], minlength=256)
    return counts


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log2(p)))


def byte_entropy(data) -> float:
    """Shannon entropy of the 8-bit symbol distribution, in bits per byte."""
    arr = _as_bytes(data)
    return _entropy(_counts(arr), arr.size)


def histogram_uniformity(data) -> tuple[np.ndarray, float, float]:
    """Counts of the 256 byte values plus chi-square goodness of fit against uniform.

    Returns (counts, chi_square, p_value) with 255 degrees of freedom.
    """
    arr = _as_bytes(data)
    counts = _counts(arr)
    expected = arr.size / 256
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return counts, chi2, _gamma_q(255 / 2.0, chi2 / 2.0)


def _monte_carlo_pi(arr: np.ndarray) -> tuple[float, float]:
    """Pi from the share of 6-byte groups, as 24-bit points (x, y), with
    x^2 + y^2 <= (2^24 - 1)^2; and its error in percent."""
    groups = arr[:(arr.size // 6) * 6].reshape(-1, 6)
    if groups.shape[0] == 0:
        return float("nan"), float("nan")
    inside = 0
    for i in range(0, groups.shape[0], _SLICE // 6):
        g = groups[i:i + _SLICE // 6].astype(np.int64)
        mx = (g[:, 0] << 16) | (g[:, 1] << 8) | g[:, 2]
        my = (g[:, 3] << 16) | (g[:, 4] << 8) | g[:, 5]
        inside += int(np.count_nonzero(mx * mx + my * my <= _MC_RADIUS_SQ))
    pi_est = 4.0 * inside / groups.shape[0]
    return pi_est, abs(pi_est - math.pi) / math.pi * 100.0


def _serial_correlation(arr: np.ndarray, counts: np.ndarray) -> float:
    """Lag-1 correlation, the last byte paired back to the first."""
    total = int(_VALUES @ counts)
    squares = int((_VALUES * _VALUES) @ counts)
    lagged = int(arr[-1]) * int(arr[0])
    for i in range(0, arr.size - 1, _SLICE):
        j = min(i + _SLICE, arr.size - 1)
        lagged += int(np.multiply(arr[i:j], arr[i + 1:j + 1], dtype=np.int64).sum())
    n = float(arr.size)
    t1, t2, t3 = float(lagged), float(total) ** 2, float(squares)
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
    entropy = _entropy(counts, n)
    compression = float(round((8.0 - entropy) / 8.0 * 100.0))
    pi_est, pi_err = _monte_carlo_pi(arr)
    return EntReport(
        entropy_bits_per_byte=entropy,
        optimum_compression_pct=compression,
        chi_square_stat=chi2,
        chi_square_percentile=chi2_p * 100.0,
        arithmetic_mean=float(_VALUES @ counts) / n,
        monte_carlo_pi=pi_est,
        monte_carlo_pi_error_pct=pi_err,
        serial_correlation=_serial_correlation(arr, counts),
        n_bytes=int(n),
    )
