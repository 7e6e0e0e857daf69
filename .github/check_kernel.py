"""Fail unless the compiled orbit kernel is active in the installed layout
and steps exactly as the chained reference step does.

A silent fallback to the chained Python reference step would pass every
test while running about 40-65x slower, and a toolchain that compiles the
kernel's step differently (folding (t + 2^52) - 2^52 to t, say) would give
other orbits.  Run it on the package as built by setuptools' ``build_py``,
from outside the checkout, so that it also fails when ``_orbit.c`` is
missing from the package data:

    python -c "from setuptools import setup; setup()" -q build_py -d "$PKG"
    cd "$SOMEWHERE_ELSE" && PYTHONPATH="$PKG" python /path/to/check_kernel.py
"""

import sys

import numpy as np

import rctm
from rctm import core

rctm.iterate(rctm.make_key(61.81, 0.23), 10)
if core.KERNEL != "c":
    sys.exit(f"orbit kernel is {core.KERNEL!r}, expected c")
# one four-lane group and one row left over, a tent key among them
keys = [rctm.make_key(mu, 0.23) for mu in (61.81, 97.3, 2.5, 49.13)]
keys.append(core.ctm_key(1.7, 0.3))
batch = core.iterate_batch(keys, 1000, burn_in=100)
rows = [core.iterate(k, 1000, burn_in=100).values for k in keys]
if not np.array_equal(batch, rows):
    sys.exit("iterate_batch differs from iterate")
# the first step of the last key has t = mu * x = 1.5 exactly, a tie of the
# kernel's rounding to an integer
tie = rctm.make_key(61.81, 1.5 / 61.81)
assert tie.mu * tie.x0 == 1.5
for key in [*keys, tie]:
    x, expected = key.x0, []
    for _ in range(10**4):
        expected.append(x)
        x = core.rctm_step(x, key)
    if core.iterate(key, 10**4).values.tobytes() != np.array(expected).tobytes():
        sys.exit(f"the kernel's orbit of (mu, x0) = ({key.mu!r}, {key.x0!r}) differs from "
                 "chained rctm_step")
