"""Seeded workload inputs: the map keys every workload runs on.

Keys come from a small pool of seeds so that every run can be checked
against answers pinned by ``make_reference.py``: ``--seed n`` selects pool
entry ``n % POOL``.  Only keys whose derived keys are all valid are drawn;
no key is ever rejected for how its orbit behaves (cycles, weak seeds).
Uses only the standard library, with a generator whose output for an
integer seed is stable across Python versions.
"""

from __future__ import annotations

import random

POOL = 8
DEFAULT_SEED = 0
HELD_OUT_SEED = 7  # keep out of tuning; use it to confirm a claim

GRID_POINTS = 500
SWEEP_DELTA = 2.0 ** -48
ENTROPY_INCREMENT = 2.0 ** -20
ENTROPY_SEQUENCES = 100
# mu stays this far from integers, so mu + k * 2^-48 stays a valid
# non-integer key for every offset the correlation sweep may try
MU_MARGIN = 1e-6


def pool_seed(seed: int) -> int:
    return seed % POOL


def _mu(rng: random.Random) -> float:
    while True:
        mu = 2.0 + 98.0 * rng.random()
        if MU_MARGIN < mu % 1.0 < 1.0 - MU_MARGIN:
            return mu


def _x0(rng: random.Random, upper: float = 1.0) -> float:
    while True:
        x0 = upper * rng.random()
        if x0 > 0.0:
            return x0


def workload_keys(seed: int) -> dict:
    """Keys of every workload for one benchmark seed.

    ``sweeps`` keeps x0 + k * 2^-20 inside (0, 1) for the entropy sweep's
    100 sequences; ``grid_mu`` is the Lyapunov grid, in draw order.
    """
    rng = random.Random(pool_seed(seed))
    keys = {
        "battery": (_mu(rng), _x0(rng)),
        "cli_stream": (_mu(rng), _x0(rng)),
        "sweeps": (_mu(rng), _x0(rng, 1.0 - ENTROPY_SEQUENCES * ENTROPY_INCREMENT)),
    }
    keys["grid_mu"] = [_mu(rng) for _ in range(GRID_POINTS)]
    return keys


def keys_hex(keys: dict) -> dict:
    """The workload keys as exact binary64 hex literals, for reports."""
    out = {name: {"mu": keys[name][0].hex(), "x0": keys[name][1].hex()}
           for name in ("battery", "cli_stream", "sweeps")}
    out["grid_mu"] = [mu.hex() for mu in keys["grid_mu"]]
    return out
