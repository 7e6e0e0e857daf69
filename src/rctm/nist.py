"""In-house subset of the NIST SP 800-22 statistical tests.

Implements monobit, block frequency, runs, longest run of ones, cumulative
sums (both directions), approximate entropy, serial and the spectral (DFT)
test, following the SP 800-22 reference definitions.  Each test returns a
(statistic, p-value) pair; a stream passes a test when p >= ALPHA (0.01).
The p-values come from ``math.erfc``, the normal CDF ``_normal_cdf`` and
the chi-square tail ``_gamma_q`` (which ENT's chi-square uses too); the
tests hold them to SciPy within a relative 1e-12.

No test allocates a temporary the size of the stream.  The spectral test
takes its DFT as a four-step transform: passes of 1000-point transforms
over a 1000 x 1000 layout at 10^6 bits, in buffers that a battery reuses
for all its streams, while one worker thread counts each stream's moduli
beside the other eight tests.

The remaining SP 800-22 tests (rank, universal, linear complexity,
template matching, random excursions) carry large constant tables and are
left to external suites; use the exporters to feed them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .prbg import BitStream, _as_stream, _bits_at

ALPHA = 0.01

# every test, in report order, with its structural floor; 10^6-bit streams
# are the recommended battery size
_MIN_BITS = {
    "monobit": 1,
    "block_frequency": 8,
    "runs": 2,
    "longest_run": 128,
    "cusum_forward": 2,
    "cusum_reverse": 2,
    "approximate_entropy": 8,
    "serial": 8,
    "dft": 8,
}

TEST_NAMES = tuple(_MIN_BITS)

# the whole subset runs from the largest floor, which fits block_frequency's default block
SUBSET_MIN_BITS = max(_MIN_BITS.values())

# entries emitted per stream: serial contributes its second p-value too
ENTRY_NAMES = TEST_NAMES[:8] + ("serial_2", "dft")

# bits per pass of the sliced loops: a slice's temporaries stay small and
# cache-resident however long the stream
_SLICE = 2 ** 16


@dataclass(frozen=True)
class TestOutcome:
    """One test on one stream."""

    test: str
    statistic: float
    p_value: float
    passed: bool


@dataclass(frozen=True)
class ProportionLine:
    """One test aggregated across battery streams."""

    test: str
    passed_count: int
    stream_count: int
    proportion: float
    min_proportion: float
    passed: bool


@dataclass(frozen=True)
class TestReport:
    """Named results of one battery run: one ProportionLine per test entry."""

    battery: str
    stream_meta: dict
    entries: tuple[ProportionLine, ...]
    passed: bool


def _normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


_EPS = 2.0 ** -53  # unit roundoff of binary64

# Stirling's series for ln Gamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2], the
# coefficients of 1/a, 1/a^3, ...; from a = 20 the first omitted term is below 1e-19
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_MIN_A = 20


def _log1pmx(t: float) -> float:
    """ln(1 + t) - t for t > -1, without the plain difference's cancellation near t = 0."""
    if abs(t) > 0.5:
        return math.log1p(t) - t
    # ln(1 + t) = 2 atanh(u) = 2 (u + u^3/3 + u^5/5 + ...) and 2u - t = -t u, with |u| <= 1/3
    u = t / (2.0 + t)
    u2 = u * u
    power, total, k = u * u2, 0.0, 3
    while True:
        term = power / k
        total += term
        if abs(term) <= _EPS * abs(total):
            return 2.0 * total - t * u
        power *= u2
        k += 2


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), for x > 0."""
    if a < _STIRLING_MIN_A or x <= 0.5 * a:
        return math.exp(a * math.log(x) - x - math.lgamma(a))
    # a ln x - x - ln Gamma(a) = a (ln(1 + t) - t) + [a ln a - a - ln Gamma(a)], t = (x - a)/a,
    # with the bracket from Stirling's series: the plain sum cancels terms of size a ln a
    # (3e4 at block frequency's a = 3906), which costs about 1e-11 of the result
    stirling = sum(c / a ** (2 * i + 1) for i, c in enumerate(_STIRLING))
    return math.exp(a * _log1pmx((x - a) / a) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling)


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a), for a > 0.

    Q(k/2, chi2/2) is the chi-square tail with k degrees of freedom.  Below
    x = a + 1 it is 1 minus a series, above it Lentz's continued fraction
    (Press et al., Numerical Recipes, 2nd ed., section 6.2).
    """
    if not 0.0 < x < math.inf:
        # SciPy's values at the edges: a negative statistic (from rounding) has no tail
        return 1.0 if x == 0.0 else (0.0 if x > 0.0 else math.nan)
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > _EPS * total:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - total * _gamma_prefactor(a, x)
    # from x >= a + 1 every b is at least 2; over 10^5 (a, x) from a = 0.05 to
    # 2e5 no denominator fell below 3.5, so Lentz's guard against a zero one is left out
    b = x + 1.0 - a
    c, d = math.inf, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            return h * _gamma_prefactor(a, x)


def _require(name: str, bits) -> tuple[np.ndarray, int]:
    """The packed bytes and the bit count of a BitStream or a 0/1 array,
    checked against the floor of test ``name``."""
    stream = _as_stream(bits)
    n = len(stream)
    if n < _MIN_BITS[name]:
        raise ValueError(f"{name} needs at least {_MIN_BITS[name]} bits, got {n}")
    return stream.packed, n


def monobit(bits) -> tuple[float, float]:
    """Frequency test: |sum of +/-1 bits| / sqrt(n) against erfc."""
    packed, n = _require("monobit", bits)
    # the pad bits are zero, so the bytes' popcounts count the ones
    s_obs = abs(2 * int(np.bitwise_count(packed).sum()) - n) / math.sqrt(n)
    return s_obs, math.erfc(s_obs / math.sqrt(2.0))


def block_frequency(bits, block_size: int = 128) -> tuple[float, float]:
    """Ones-proportion chi-square over disjoint blocks of block_size bits,
    unpacked one slice of whole blocks at a time."""
    packed, n = _require("block_frequency", bits)
    if block_size < 1 or block_size > n:
        raise ValueError(f"block_size must lie in [1, {n}], got {block_size}")
    nblocks = n // block_size
    step = max(1, _SLICE // block_size) * block_size  # whole blocks per slice
    ones = np.concatenate([
        _bits_at(packed, start, min(step, nblocks * block_size - start))
        .reshape(-1, block_size).sum(axis=1)
        for start in range(0, nblocks * block_size, step)])
    # each block's ones over block_size is its mean, to the bit
    pis = ones / block_size
    chi2 = 4.0 * block_size * float(np.sum((pis - 0.5) ** 2))
    return chi2, _gamma_q(nblocks / 2.0, chi2 / 2.0)


def runs(bits) -> tuple[float, float]:
    """Total number of runs against its normal approximation.

    Returns p = 0 without the runs count when the ones proportion already
    fails the monobit precondition |pi - 1/2| < 2/sqrt(n).
    """
    packed, n = _require("runs", bits)
    pi = int(np.bitwise_count(packed).sum()) / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return float("nan"), 0.0
    # one more run at each change; each window also holds the next slice's first bit
    v = 1 + sum(int(np.count_nonzero(w[1:] != w[:-1]))
                for w in (_bits_at(packed, i, min(_SLICE + 1, n - i))
                          for i in range(0, n - 1, _SLICE)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    return float(v), math.erfc(num / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))


# block size -> (degrees of freedom, run-length class bounds, class probabilities)
_LONGEST_RUN_TABLES = {
    8: (3, (1, 4), (0.2148, 0.3672, 0.2305, 0.1875)),
    128: (5, (4, 9), (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    10000: (6, (10, 16), (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
}


def longest_run(bits) -> tuple[float, float]:
    """Longest run of ones per block, classed against tabulated frequencies.

    The block size follows the SP 800-22 tiers: 8 for short streams, 128
    from 6272 bits, and 10^4 from 750000 bits.
    """
    packed, n = _require("longest_run", bits)
    block = 8 if n < 6272 else (128 if n < 750000 else 10000)
    dof, (lo, hi), probs = _LONGEST_RUN_TABLES[block]
    nblocks = n // block
    counts = np.zeros(len(probs), dtype=np.intp)
    step = max(1, _SLICE // block) * block  # whole blocks per slice, unpacked one slice at a time
    for start in range(0, nblocks * block, step):
        longest = _longest_runs(_bits_at(packed, start, min(step, nblocks * block - start)), block)
        counts += np.bincount(np.clip(longest, lo, hi) - lo, minlength=len(probs))
    expected = nblocks * np.asarray(probs)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return chi2, _gamma_q(dof / 2.0, chi2 / 2.0)


def _longest_runs(b: np.ndarray, block: int) -> np.ndarray:
    """The longest run of ones in each of the whole blocks that make up b."""
    nblocks = b.size // block
    # a zero on both sides of every block keeps each run inside its block, so
    # the changes along the flat array alternate: a run starts, then it ends
    padded = np.zeros((nblocks, block + 2), dtype=np.uint8)
    padded[:, 1:-1] = b.reshape(nblocks, block)
    flat = padded.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # each block's runs, from its first one; reduceat gives a block without
    # runs the next block's first run (or the appended 0), so it is reset to 0
    first = np.searchsorted(starts, np.arange(nblocks) * (block + 2))
    longest = np.maximum.reduceat(np.append(ends - starts, 0), first)
    longest[np.diff(first, append=starts.size) == 0] = 0
    return longest


# the normal CDF rounds to exactly 1.0 from 8.3 and to exactly 0.0 below -38.5
_CDF_ZERO, _CDF_ONE = -39.0, 8.5


def _cusum_p(z: int, n: int) -> float:
    """The cusum p-value for a largest excursion z over n bits (SP 800-22 section 2.13):
    1 - sum_k [Phi((4k+1)u) - Phi((4k-1)u)] + sum_k [Phi((4k+3)u) - Phi((4k+1)u)], u = z / sqrt n.

    A term whose two arguments both lie below _CDF_ZERO or both above
    _CDF_ONE is exactly 0 and is skipped, and Phi is taken once per odd
    multiple of u.  Of the n/(2z) terms per sum, about 12 sqrt(n)/z remain:
    12 on a typical stream (z near sqrt n), 12000 on an alternating
    10^6-bit one (z = 1).  The sums' rounding can carry the result past 1
    when z is small against sqrt n (1.0004 at n = 10, z = 1), so it is
    clamped to [0, 1].
    """
    sq = math.sqrt(n)
    jlo = math.ceil(_CDF_ZERO * sq / z) | 1
    jhi = (math.floor(_CDF_ONE * sq / z) - 1) | 1
    cdf = {j: _normal_cdf(j * z / sq) for j in range(jlo, jhi + 1, 2)}

    def terms(lo: int, hi: int, shift: int) -> float:
        # Phi((4k + shift + 1) u) - Phi((4k + shift - 1) u), from the smallest terms up
        lo = max(lo, math.ceil((jlo - shift - 1) / 4))
        hi = min(hi, (jhi - shift + 1) // 4)
        return sum(cdf.get(4 * k + shift + 1, 1.0) - cdf.get(4 * k + shift - 1, 0.0)
                   for k in range(lo, hi + 1))

    # summation bounds truncate toward zero, as in the reference code
    p = (1.0 - terms(int((-n / z + 1) / 4), int((n / z - 1) / 4), 0)
         + terms(int((-n / z - 3) / 4), int((n / z - 1) / 4), 2))
    return min(max(p, 0.0), 1.0)


def _byte_walks() -> np.ndarray:
    """Three rows over the byte values, for the +/-1 walk over a byte's 8 bits,
    most significant first: its net step, and its highest and its lowest
    partial sum, each less the net.

    Built in Python: the NumPy routines that could build it would page in
    their code at import, about 0.26 MiB, for programs that run no cusum.
    """
    rows = []
    for value in range(256):
        walk = list(itertools.accumulate(1 if value >> k & 1 else -1 for k in range(7, -1, -1)))
        rows.append((walk[-1], max(walk) - walk[-1], min(walk) - walk[-1]))
    return np.array(list(zip(*rows)), dtype=np.int32)


_BYTE_NET, _BYTE_TOP, _BYTE_BOTTOM = _byte_walks()


def _cusum(bits, reverse: bool) -> tuple[float, float]:
    """z and p of the cusum test in one direction.

    Walks the packed bytes one slice of _SLICE // 8 bytes per pass:
    ``np.take`` reads each byte's net step and its highest and lowest
    partial sums from the byte tables, one cumsum gives S at each byte's
    end, and S carries from slice to slice as a Python int.  The 0-7 tail
    bits are walked in Python.
    """
    packed, n = _require("cusum_reverse" if reverse else "cusum_forward", bits)
    # forward: z = max |S_k| over the +/-1 walk S_k, k = 0..n, S_0 = 0; reverse:
    # the partial sums of the reversed bits are S_n - S_j for j = 0..n-1, so
    # nothing is reversed, but S_n stays out of the extremes: the last bit is
    # left to the tail walk below
    head = (n - reverse) // 8 * 8  # the bits walked a byte at a time
    s = top = bottom = 0
    for start in range(0, head, _SLICE):
        walked = packed[start // 8:min(start + _SLICE, head) // 8]
        # S at each byte's end, less the S carried in; within 2^16 bits it fits int32
        ends = np.cumsum(np.take(_BYTE_NET, walked), dtype=np.int32)
        top = max(top, s + int((ends + np.take(_BYTE_TOP, walked)).max()))
        bottom = min(bottom, s + int((ends + np.take(_BYTE_BOTTOM, walked)).min()))
        s += int(ends[-1])
    tail = _bits_at(packed, head, n - head).tolist()
    for bit in tail[:len(tail) - reverse]:
        s += 2 * bit - 1
        top, bottom = max(top, s), min(bottom, s)
    end = s + 2 * tail[-1] - 1 if reverse else 0
    z = max(top - end, end - bottom)
    return float(z), _cusum_p(z, n)


def cusum_forward(bits) -> tuple[float, float]:
    """Maximum absolute partial sum of the +/-1 walk, forward direction."""
    return _cusum(bits, reverse=False)


def cusum_reverse(bits) -> tuple[float, float]:
    """Cumulative sums test over the reversed sequence."""
    return _cusum(bits, reverse=True)


def _pattern_counts(packed: np.ndarray, n: int, m: int) -> list[np.ndarray]:
    """Counts of the n overlapping wrapped k-bit patterns of n packed bits,
    item k for k = 0..m.

    Size m is counted from the packed bytes, one slice of _SLICE // 8 bytes
    per pass (more when the histogram below outnumbers a slice's indices).
    Each whole byte gets a window of its 8 bits and the m - 1 bits after
    it; past the last whole byte the window reads the 0-7 tail bits, then
    wraps to the stream's start.  Each window is cut into 8/g indices of
    g + m - 1 bits, with g the largest of 8, 4, 2 and 1 that keeps them
    within 16 bits where m allows, and all of them go into one histogram
    of 2^(g+m-1) bins.  An index holds g patterns, so folding the
    histogram g ways gives the 2^m counts (Sys & Riha, SPACE 2014).  The
    last n mod 8 window starts are counted one by one.  With wraparound
    each smaller size is the exact marginal of the next (pattern p counts
    patterns 2p and 2p+1)."""
    g = next((g for g in (8, 4, 2) if g + m - 1 <= 16), 1)
    width = 8 + m - 1  # a byte's window
    # the narrowest that holds the window; int64, not uint64, for bincount
    dtype = np.uint16 if width <= 16 else (np.uint32 if width <= 32 else np.int64)
    extra = -(-(m - 1) // 8)  # bytes after a byte that its window reads
    whole = n // 8
    bins = 2 ** (g + m - 1)
    # an index's offset from the window's low end, one row per index
    shifts = np.arange(8 - g, -1, -g, dtype=dtype)[:, None]
    # the bits after the last whole byte: the tail, then the stream's start
    after = np.concatenate([_bits_at(packed, 8 * whole, n - 8 * whole),
                            _bits_at(packed, 0, m - 1)])
    step = max(_SLICE // 8, bins * g // 8)  # bytes per slice: no fewer indices than bins
    hist = np.zeros(bins, dtype=np.intp)
    for start in range(0, whole, step):
        size = min(step, whole - start)
        read = packed[start:min(start + size + extra, whole)]
        if read.size < size + extra:
            read = np.concatenate([read, np.packbits(after)[:size + extra - read.size]])
        windows = read[:size].astype(dtype)
        for j in range(1, extra + 1):
            windows <<= 8
            windows |= read[j:j + size]
        windows >>= 8 * extra - (m - 1)
        hist += np.bincount(((windows >> shifts) & dtype(bins - 1)).ravel(), minlength=bins)
    # index bits j .. j + m - 1, from the high end, hold the pattern of the j-th start
    total = sum(hist.reshape(2 ** j, 2 ** m, 2 ** (g - 1 - j)).sum(axis=(0, 2))
                for j in range(g))
    tail = after.tolist()
    for s in range(n - 8 * whole):
        total[int("".join(map(str, tail[s:s + m])), 2)] += 1
    counts = [total]
    for _ in range(m):
        counts.append(counts[-1].reshape(-1, 2).sum(axis=1))
    return counts[::-1]


def _check_pattern_size(m: int, n: int) -> None:
    """Reject a pattern size m outside [1, log2 n]: above it the 2^m counters
    outnumber the n patterns, and m = 0 counts nothing."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if 2 ** m > n:
        raise ValueError(f"m = {m} needs 2^m <= n bits, got n = {n}")


def approximate_entropy(bits, m: int = 2) -> tuple[float, float]:
    """ApEn(m) = phi(m) - phi(m+1) over overlapping wrapped patterns.

    Raises ValueError unless 1 <= m and 2^m <= n.  SP 800-22 advises
    m < floor(log2 n) - 5; that is not enforced, as its own worked example
    (n = 10, m = 3) breaks it.
    """
    packed, n = _require("approximate_entropy", bits)
    _check_pattern_size(m, n)
    phi = []
    for counts in _pattern_counts(packed, n, m + 1)[m:]:
        c = counts[counts > 0] / n
        phi.append(float(np.sum(c * np.log(c))))
    apen = phi[0] - phi[1]
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return apen, _gamma_q(2 ** (m - 1), chi2 / 2.0)


def _psi_squared(counts: np.ndarray) -> float:
    """psi^2 from the 2^m pattern counts of one size m >= 1."""
    n = int(counts.sum())
    c = counts.astype(np.float64)
    return float((counts.size / n) * np.sum(c * c) - n)


def serial(bits, m: int = 2) -> tuple[tuple[float, float], tuple[float, float]]:
    """Serial test: first and second differences of psi^2 over pattern sizes.

    Returns ((delta_psi2, p1), (delta2_psi2, p2)); a stream passes when
    both p-values clear ALPHA.  Raises ValueError unless 1 <= m and
    2^m <= n.  SP 800-22 advises m < floor(log2 n) - 2; that is not
    enforced, as its own worked example (n = 10, m = 3) breaks it.
    """
    packed, n = _require("serial", bits)
    _check_pattern_size(m, n)
    counts = _pattern_counts(packed, n, m)
    # psi^2 is 0 by definition below size 1 (not (1/n) n^2 - n, which may round away from 0)
    psi_m, psi_m1, psi_m2 = (_psi_squared(counts[k]) if k >= 1 else 0.0
                             for k in (m, m - 1, m - 2))
    d1 = psi_m - psi_m1
    d2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _gamma_q(2 ** (m - 2), d1 / 2.0)
    p2 = _gamma_q(2 ** (m - 3), d2 / 2.0)
    return (d1, p1), (d2, p2)


# rows of the four-step layout per pass, and of each twiddle table
_ROWS = 32


class _FourStep:
    """The buffers and twiddle tables of the DFT of n points as a four-step
    transform: n = n1 n2, with n1 the largest divisor of n at or below
    sqrt n (1000 x 1000 at 10^6; n1 = 1 for a prime n, whose transform is
    one rfft).  Built per call that needs them: no table is cached on the
    module or built at import."""

    def __init__(self, n: int):
        self.n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
        self.n2 = n // self.n1
        k2 = np.arange(self.n2 // 2 + 1)
        rows = min(_ROWS, self.n1)
        # X[k2 + n2 k1] at [k1, k2], and whether its modulus lies below the threshold
        self.spectrum = np.empty((self.n1, k2.size), dtype=np.complex128)
        self.below = np.empty(self.spectrum.shape, dtype=bool)
        # one pass's rows of +/-1 values
        self.values = np.empty((rows, self.n2), dtype=np.float64)
        # W_n^(c k2) at [c, k2] for c < _ROWS, and W_n^(_ROWS a k2) at [a, k2] for
        # _ROWS a < n1; the exponent is reduced mod n in integers before it
        # becomes an angle
        self.near, self.far = (
            np.exp((np.arange(count)[:, None] * step * k2 % n) * (-2j * math.pi / n))
            for step, count in ((1, rows), (_ROWS, -(-self.n1 // _ROWS))))


def _spectral_count(packed: np.ndarray, n: int, plan: _FourStep) -> int:
    """How many of the moduli |X_k|, k < n // 2, of the DFT of the +/-1
    values of n packed bits lie below the spectral test's threshold
    T = sqrt(n ln 20).

    A four-step transform (Bailey, J. Supercomputing 4, 1990) in plan's
    buffers, with j = i1 + n1 i2 and k = k2 + n2 k1:
    X_k = sum_i1 W_n1^(i1 k1) W_n^(i1 k2) sum_i2 W_n2^(i2 k2) x_j.
    The first pass takes rows i1 of the layout, _ROWS at a time: it
    unpacks their bits into float64, has ``rfft`` of length n2 write row
    by row into the spectrum buffer (k2 <= n2/2 only, the input being
    real), and multiplies by the twiddles
    W_n^(i1 k2) = near[c, k2] far[a, k2], i1 = _ROWS a + c, one table at a
    time.  The second pass is
    one in-place ``fft`` of length n1 down axis 0.  Each pass's
    transforms are 1000 points long at n = 10^6, so they stay in cache.

    Column k2 then holds X_k for k = k2 + n2 k1.  In a column 0 < k2 < n2/2
    each term also stands for its mirror X_{n-k} (equal modulus, column
    n2 - k2, not kept), so it counts twice; columns 0 and n2/2 hold their
    own mirrors and count once.  Over all n terms that gives
    c_0 + 2 (c_1 + ... + c_{n//2 - 1}) + c_{n//2} for even n, and
    + 2 c_{n//2} for odd n, from which X_0's and X_{n//2}'s own terms give
    the count over k < n // 2.

    Exactness: the moduli are not those of ``rfft`` to the bit, but each
    differs by far less than the distance from any modulus to T, so each
    comparison, and with it the count, is the same.  Held by a test on the
    20 criterion-1 streams: every modulus within 1e-11 of ``rfft``'s
    (2.7e-12 measured, 1.8e-12 near T = 1731, where an ulp is 2.3e-13),
    and none within 1e-11 of T (the nearest lies 1.2e-4 away).
    """
    n1, n2, spectrum, values, below = plan.n1, plan.n2, plan.spectrum, plan.values, plan.below
    # x_j at [i2, i1] in bits, each row of n1 bits in its own whole bytes: the
    # packed bytes themselves when n1 is a multiple of 8, or else repacked,
    # a slice of rows at a time
    if n1 % 8 == 0:
        layout = packed[:n // 8].reshape(n2, n1 // 8)
    else:
        step = -(-_SLICE // n1)  # rows per slice
        layout = np.concatenate([
            np.packbits(_bits_at(packed, n1 * i, n1 * min(step, n2 - i)).reshape(-1, n1), axis=1)
            for i in range(0, n2, step)])
    for a, r in enumerate(range(0, n1, _ROWS)):
        rows = spectrum[r:r + _ROWS]
        k = rows.shape[0]
        x = values[:k]
        # a pass's rows start at a multiple of _ROWS, and so of 8: they are whole bytes
        np.multiply(np.unpackbits(layout[:, r // 8:(r + k + 7) // 8], axis=1, count=k).T, 2.0,
                    out=x)
        x -= 1.0
        np.fft.rfft(x, axis=1, out=rows)
        rows *= plan.near[:rows.shape[0]]
        rows *= plan.far[a]
    np.fft.fft(spectrum, axis=0, out=spectrum)
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    for r in range(0, n1, _ROWS):
        np.less(np.abs(spectrum[r:r + _ROWS]), threshold, out=below[r:r + _ROWS])
    full = 2 * int(np.count_nonzero(below)) - int(np.count_nonzero(below[:, 0]))
    if n2 % 2 == 0:
        full -= int(np.count_nonzero(below[:, -1]))
    # h2 is 0 for even n1 and n2 // 2 for odd n1, so X_{n//2} is kept itself
    h1, h2 = divmod(n // 2, n2)
    return (full + int(below[0, 0]) - (1 + n % 2) * int(below[h1, h2])) // 2


def dft(bits, *, count: int | None = None) -> tuple[float, float]:
    """Spectral test: count of DFT peaks below the 95% threshold.

    Uses the moduli of the first n/2 transform terms and the corrected
    variance n * 0.95 * 0.05 / 4.  ``count``, when given, is the number of
    those moduli below the threshold, as :func:`_spectral_count` gives it,
    and is only checked to be an integer in [0, n // 2]; without it the
    call counts its own.
    """
    packed, n = _require("dft", bits)
    if count is None:
        count = _spectral_count(packed, n, _FourStep(n))
    elif isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {count}")
    elif not 0 <= count <= n // 2:
        raise ValueError(f"count must lie in [0, {n // 2}], got {count}")
    n0 = 0.95 * n / 2.0
    d = (count - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return d, math.erfc(abs(d) / math.sqrt(2.0))


def stream_outcomes(bits) -> list[TestOutcome]:
    """All subset tests on one stream, serial's second p-value as its own row.

    Runs the battery's loop on the one stream, so the rows are the ones
    :func:`nist_battery` counts.  A 0/1 array is checked and packed once.
    """
    stream = _as_stream(bits)
    return _subset_rows([stream], len(stream))[0]


def _subset_rows(streams: Sequence[BitStream], n: int) -> list[list[TestOutcome]]:
    """The rows of :func:`stream_outcomes` for each of the n-bit BitStreams.

    One worker thread transforms and counts each stream's spectrum in one
    set of four-step buffers while the calling thread runs the other
    eight tests; dft then takes the count.  Every
    result is the one the tests give called one by one.  Each test gets
    the BitStream itself and reads its packed bytes unchecked.  Only the
    untraced count runs on the worker: the tests are looked up on the
    module when called, so a wrapper set there (as the benchmark's tracer,
    which keeps one span stack) sees every call.  One thread and one set
    of buffers serve all the streams, one stream at a time.  An exception
    on either thread reaches the caller after the worker has ended.
    """
    if n < SUBSET_MIN_BITS:
        raise ValueError(f"the NIST subset needs at least {SUBSET_MIN_BITS} bits, got {n}")
    # imported here, not with the module: it costs about 4 ms, and most
    # programs that import rctm run no battery
    from concurrent.futures import ThreadPoolExecutor

    plan = _FourStep(n)
    rows = []
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="rctm-spectral") as worker:
        for s in streams:
            pending = worker.submit(_spectral_count, s.packed, n, plan)
            results = [globals()[name](s) for name in TEST_NAMES[:-1]]
            # a count that failed raises here
            results.append(globals()["dft"](s, count=pending.result()))
            results[7:8] = results[7]  # serial's two results are the serial and serial_2 rows
            rows.append([TestOutcome(entry, stat, p, p >= ALPHA)
                         for entry, (stat, p) in zip(ENTRY_NAMES, results)])
    return rows


def min_proportion(streams: int) -> float:
    """Smallest acceptable pass proportion: p - 3 sqrt(p (1-p) / m), p = 1 - ALPHA."""
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    p_hat = 1.0 - ALPHA
    return p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / streams)


def nist_battery(streams: Sequence[BitStream | np.ndarray]) -> TestReport:
    """Run every subset test on every stream and aggregate pass proportions.

    Parameters
    ----------
    streams : sequence of BitStream or 0/1 arrays
        Typically disjoint segments of one long generator run, each of at
        least SUBSET_MIN_BITS bits.

    Returns
    -------
    TestReport
        One ProportionLine per test entry; the battery passes when every
        proportion reaches the minimum-proportion bound for the stream
        count.
    """
    # a 0/1 array is checked and packed here, once; a BitStream is used as it is
    bitstreams = [_as_stream(s) for s in streams]
    lengths = sorted({len(s) for s in bitstreams})
    if len(lengths) != 1:
        raise ValueError(f"battery needs one or more streams of one length, got lengths {lengths}")
    per_test: dict[str, list[bool]] = {name: [] for name in ENTRY_NAMES}
    for rows in _subset_rows(bitstreams, lengths[0]):
        for row in rows:
            per_test[row.test].append(row.passed)
    m = len(streams)
    bound = min_proportion(m)
    lines = tuple(
        ProportionLine(test=name, passed_count=sum(flags), stream_count=m,
                       proportion=sum(flags) / m, min_proportion=bound,
                       passed=sum(flags) / m >= bound)
        for name, flags in per_test.items()
    )
    meta = {"streams": m, "bits_per_stream": lengths[0]}
    keys = {s.key_fingerprint.split(":")[0] for s in bitstreams}
    if len(keys) == 1 and "" not in keys:  # a 0/1 array's stream has no key
        meta["key_fingerprint"] = keys.pop()
    return TestReport(battery="nist-subset", stream_meta=meta, entries=lines,
                      passed=all(line.passed for line in lines))
