"""Robust chaotic tent map: parameter validation, branch maps, orbit generation.

The generator is a piecewise-linear interval map on [0, 1].  For a control
parameter mu <= 2 it is the classical tent map.  For non-integer mu in
(2, 100) the tent branches are wrapped with a mod-1 and, inside the central
region [n1, n2], rescaled by the fractional part of mu/2 so that every
branch maps back onto the full unit interval.  All arithmetic is IEEE-754
binary64 with "a mod 1" meaning a - floor(a); orbits are bit-for-bit
reproducible for a fixed key.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import struct
import subprocess
import sys
import tempfile
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

MU_MIN = 2.0
MU_MAX = 100.0

_CHUNK = 1 << 18


class InvalidKeyError(ValueError):
    """Map parameters violate a documented bound.

    ``kind`` names the violated constraint:
    ``non_finite``, ``mu_too_small``, ``mu_too_large``, ``mu_integer``,
    ``mu_out_of_ctm_range`` or ``x0_out_of_range``.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class MapKey:
    """Secret parameters (mu, x0) plus the derived scaling-region bounds."""

    mu: float
    x0: float
    n1: float
    n2: float

    @property
    def scale(self) -> float:
        """Denominator of the scaled branch: (mu/2) mod 1."""
        return (0.5 * self.mu) % 1.0

    @property
    def is_ctm(self) -> bool:
        """True when the key drives the plain tent map arm (mu <= 2)."""
        return self.mu <= MU_MIN

    def fingerprint(self) -> str:
        """Opaque hex identifier derived from the exact binary64 parameters."""
        return hashlib.sha256(struct.pack("<dd", self.mu, self.x0)).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Orbit samples in [0, 1]; ``values[0]`` is x0 when burn_in == 0."""

    values: np.ndarray
    key: MapKey
    burn_in: int

    def __post_init__(self):
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return self.values.size


def region_bounds(mu: float) -> tuple[float, float]:
    """Scaling-region bounds n1 = 1/2 - ((mu/2) mod 1)/mu and n2 = 1 - n1."""
    frac = (0.5 * mu) % 1.0
    return 0.5 - frac / mu, 0.5 + frac / mu


def _check_x0(x0: float) -> None:
    if not math.isfinite(x0):
        raise InvalidKeyError("non_finite", f"x0 must be finite, got {x0!r}")
    if not 0.0 < x0 < 1.0:
        raise InvalidKeyError("x0_out_of_range", f"x0 must lie in (0, 1), got {x0!r}")


def make_key(mu: float, x0: float) -> MapKey:
    """Validate and build a generator key.

    Accepts non-integer mu in (2, 100) and x0 in (0, 1).  Integer mu is
    rejected outright: even values zero the scaled-branch denominator and
    odd values degrade the branch structure.
    """
    mu = float(mu)
    x0 = float(x0)
    if not math.isfinite(mu):
        raise InvalidKeyError("non_finite", f"mu must be finite, got {mu!r}")
    if mu <= MU_MIN:
        raise InvalidKeyError("mu_too_small", f"mu must exceed {MU_MIN}, got {mu!r}")
    if mu >= MU_MAX:
        raise InvalidKeyError("mu_too_large", f"mu must be below {MU_MAX}, got {mu!r}")
    if mu == int(mu):
        raise InvalidKeyError("mu_integer", f"mu must be non-integer in (2, 100), got {mu!r}")
    _check_x0(x0)
    n1, n2 = region_bounds(mu)
    return MapKey(mu=mu, x0=x0, n1=n1, n2=n2)


def ctm_key(mu: float, x0: float) -> MapKey:
    """Build an analysis-mode key for the classical tent map arm.

    Accepts 0 < mu <= 2 (integers allowed here: the tent arm has no
    division).  Not a cryptographic key; used by the dynamics toolkit.
    """
    mu = float(mu)
    x0 = float(x0)
    if not math.isfinite(mu):
        raise InvalidKeyError("non_finite", f"mu must be finite, got {mu!r}")
    if not 0.0 < mu <= MU_MIN:
        raise InvalidKeyError("mu_out_of_ctm_range", f"tent-map mu must lie in (0, 2], got {mu!r}")
    _check_x0(x0)
    n1, n2 = region_bounds(mu)
    return MapKey(mu=mu, x0=x0, n1=n1, n2=n2)


def _check_state(x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"state must be finite, got {x!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"state must lie in [0, 1], got {x!r}")


def rctm_step(x: float, key: MapKey) -> float:
    """One map step: the tent step mu*x below 1/2, mu*(1-x) at or above.

    A tent-arm key (``ctm_key``, mu <= 2) stops there.  For mu > 2 the step
    is taken mod 1, and points in [n1, n2] (boundaries inclusive) take the
    scaled branch (mu*x mod 1) / ((mu/2) mod 1).

    On the scaled branch the numerator cannot exceed (mu/2) mod 1 in exact
    arithmetic; a state within an ulp of a region bound can make mu*x round
    just below floor(mu/2) so the mod wraps to nearly 1.  Such wrapped
    numerators are folded to 0, keeping every output in [0, 1].
    """
    if not 0.0 <= x <= 1.0:  # the fallback chains this step, so a valid state skips the call
        _check_state(x)
    mu = key.mu
    t = mu * x if x < 0.5 else mu * (1.0 - x)
    if mu <= MU_MIN:  # a tent-arm key (ctm_key)
        return t
    t -= math.floor(t)
    if key.n1 <= x <= key.n2:
        s = key.scale
        t = 0.0 if t > s else t / s
    return t


def _branch_log_slopes(values: np.ndarray, key: MapKey) -> np.ndarray:
    """ln |slope| of the branch taken at each state.

    The mod and the reflection contribute unit-magnitude factors, so the
    slope magnitude is mu on plain branches and mu / ((mu/2) mod 1) on the
    scaled branch.  Branch-boundary points count as scaled, matching the
    step's tie rule.
    """
    if key.is_ctm:
        return np.full(values.size, math.log(key.mu))
    scaled = (values >= key.n1) & (values <= key.n2)
    return np.where(scaled, math.log(key.mu / key.scale), math.log(key.mu))


def log_derivative(x: float, key: MapKey) -> float:
    """ln |slope| of the branch taken at x: one state through
    ``_branch_log_slopes``, which applies the rule to whole orbits."""
    _check_state(x)
    return float(_branch_log_slopes(np.array([x]), key)[0])


_SOURCE = Path(__file__).with_name("_orbit.c")
# the output path follows; the library name hashes everything else
_CC = ("gcc", "-O2", "-ffp-contract=off", "-fPIC", "-shared", "-x", "c", "-", "-lm", "-o")


def _build() -> Path:
    """Compile ``_orbit.c`` into a private cache once; returns the library path.

    The cache must be writable by its owner (this user or root) alone: a
    library loaded into the process must not be one another user planted.
    The name carries the sha256 of the source and the compile command, and
    the library is renamed into place whole, so no process loads half a file.
    A successful build removes the libraries of earlier sources or commands.
    """
    if os.name != "posix":
        raise OSError("the orbit kernel is built only on POSIX systems")
    source = _SOURCE.read_bytes()
    tag = hashlib.sha256(source + " ".join(_CC).encode()).hexdigest()[:16]
    cache = _SOURCE.parent / "__pycache__" / "rctm_orbit"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = cache.stat()
    if st.st_uid not in (os.getuid(), 0) or st.st_mode & 0o022:
        raise PermissionError(f"{cache} is not private to this user")
    lib = cache / f"_orbit-{tag}.so"
    if not lib.exists():
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            out = os.path.join(tmp, lib.name)
            subprocess.run([*_CC, out], input=source, capture_output=True, check=True)
            os.replace(out, lib)
        for stale in cache.glob("_orbit-*.so"):
            if stale != lib:
                stale.unlink(missing_ok=True)
    return lib


@functools.cache
def _kernel():
    """The compiled orbit loop, or None when it cannot be built or loaded."""
    try:
        fn = ctypes.CDLL(str(_build())).rctm_orbit
    except (OSError, subprocess.CalledProcessError):
        return None
    # plain addresses: ndpointer arguments leave ctypes objects in reference
    # cycles on every call; _orbit checks the arrays instead
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
                   ctypes.c_int64, ctypes.c_void_p]
    fn.restype = None
    return fn


def _check_buffer(name: str, arr: np.ndarray) -> None:
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
            and arr.flags.c_contiguous and arr.flags.writeable):
        raise ValueError(f"{name} must be a C-contiguous, writeable float64 array")


def _orbit(keys: Sequence[MapKey], x: np.ndarray, skip: int, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the orbit of keys[i] from state x[i] after
    skip discarded iterates; x[i] becomes the state that follows the row."""
    _check_buffer("x", x)
    _check_buffer("out", out)
    rows, n = len(keys), out.shape[-1]
    if x.shape != (rows,) or out.size != rows * n:
        raise ValueError(f"{rows} keys need {rows} states and {rows} output rows")
    kernel = _kernel()
    if kernel is not None:
        params = np.array([(k.mu, k.n1, k.n2, k.scale, k.is_ctm) for k in keys])
        kernel(rows, params.ctypes.data, x.ctypes.data, skip, n, out.ctypes.data)
        return
    # no compiled loop: chain the reference step, one row after another
    out = out.reshape(rows, n)
    for r, key in enumerate(keys):
        xr, row = float(x[r]), []
        for _ in range(skip):
            xr = rctm_step(xr, key)
        for _ in range(n):
            row.append(xr)
            xr = rctm_step(xr, key)
        out[r], x[r] = row, xr


class _CoreModule(types.ModuleType):
    @property
    def KERNEL(self) -> str:
        """Orbit loop in use: "c" (compiled ``_orbit.c``) or "python" (fallback)."""
        return "python" if _kernel() is None else "c"


sys.modules[__name__].__class__ = _CoreModule


def _check_counts(n: int, burn_in: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")


def _check_batch(keys: Sequence[MapKey], n: int, burn_in: int) -> None:
    _check_counts(n, burn_in)
    if not keys:
        raise ValueError("keys must be non-empty")


def orbit_chunks(key: MapKey, n: int, burn_in: int = 0) -> Iterator[np.ndarray]:
    """Yield the orbit of ``key`` as float64 arrays of ``_CHUNK`` values or fewer, totalling ``n``.

    The first emitted value is x0 when burn_in == 0; otherwise the first
    burn_in iterates are discarded.  Streaming keeps memory flat for long
    runs (bit generation, battery segmentation).
    """
    _check_counts(n, burn_in)
    x, skip = np.array([key.x0]), burn_in
    for start in range(0, n, _CHUNK):
        block = np.empty(min(_CHUNK, n - start))
        _orbit([key], x, skip, block)
        skip = 0
        yield block


def iterate(key: MapKey, n: int, burn_in: int = 0) -> Trajectory:
    """Generate n orbit samples after discarding burn_in iterates.

    Pure function of (key, n, burn_in); repeated calls are bit-identical.
    The values are row 0 of ``iterate_batch([key], n, burn_in)``.
    """
    return Trajectory(values=iterate_batch([key], n, burn_in)[0], key=key, burn_in=burn_in)


def iterate_batch(keys: Sequence[MapKey], n: int, burn_in: int = 0, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Orbits of several keys, one row per key.

    One call of the orbit loop runs every key, four rows in lockstep; the
    rows share nothing, so row i is bit-identical to a batch of keys[i] alone.
    Given ``out``, a C-contiguous, writeable float64 array of shape
    (len(keys), n), the orbits are written into it and it is returned.
    """
    _check_batch(keys, n, burn_in)
    if out is None:
        out = np.empty((len(keys), n))
    elif np.shape(out) != (len(keys), n):
        raise ValueError(f"out must have shape ({len(keys)}, {n}), got {np.shape(out)}")
    _orbit(keys, np.array([k.x0 for k in keys]), burn_in, out)
    return out


def _key_blocks(keys: Sequence[MapKey], n: int, burn_in: int = 0
                ) -> Iterator[tuple[Sequence[MapKey], np.ndarray]]:
    """The rows of ``iterate_batch(keys, n, burn_in)`` a block at a time:
    (block keys, their rows) pairs, so a sweep over many keys runs in flat
    memory.

    A block is whole four-row lockstep groups of about ``_CHUNK`` samples
    (at least 4 rows, at most every key).  Every block is written into one
    buffer, allocated once: a block's rows are overwritten when the next
    block is drawn.  n, burn_in and the keys are checked before allocating.
    """
    _check_batch(keys, n, burn_in)
    rows = min(len(keys), max(4, _CHUNK // n // 4 * 4))
    buffer = np.empty((rows, n))
    for start in range(0, len(keys), rows):
        block = keys[start:start + rows]
        yield block, iterate_batch(block, n, burn_in, out=buffer[:len(block)])
