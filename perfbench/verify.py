"""Comparison of a repeat's named outputs with the pinned reference.

Strings (digests, hex literals), integers (counts, exit codes, integer
statistics), booleans and nulls must match exactly; other floats (p-values,
reduction-derived values) within a relative 1e-12.  A dict in the reference
is compared on its own keys only, so fields that a later version adds to a
JSON report are not failures.  Every reference entry is one operation; a
missing or different output is one failed operation.
"""

from __future__ import annotations

import math
import numbers

REL_TOL = 1e-12


def same(ref, got) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(k in got and same(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(same(r, g) for r, g in zip(ref, got)))
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    if isinstance(ref, float) and isinstance(got, numbers.Real):
        got = float(got)
        return ref == got or (math.isfinite(ref) and math.isfinite(got)
                              and abs(got - ref) <= REL_TOL * max(abs(ref), abs(got)))
    if isinstance(ref, int):
        return isinstance(got, numbers.Integral) and got == ref
    return type(got) is type(ref) and got == ref


def compare(reference: dict, outputs: dict) -> tuple[int, list[str]]:
    """(operations attempted, names of the failed ones)."""
    failed = [name for name, ref in reference.items()
              if name not in outputs or not same(ref, outputs[name])]
    return len(reference), failed
