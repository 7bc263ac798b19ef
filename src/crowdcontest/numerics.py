"""Deterministic numerical kernel: seeded RNG streams, bisection and
golden-section search.

Reproducibility contract: all randomness flows through `spawn_rng`, which
derives independent PCG64 streams from a 64-bit seed plus an integer key
path. Each solver draws its whole Monte Carlo panel from one such stream,
so two runs with the same seed produce bit-identical samples whatever the
worker count.

Solver tolerances are not model inputs: every equilibrium the package
solves for is unique, so each solver runs with one tolerance and one step
cap, kept as constants in its own module (here BISECT_STEPS). Only the
tolerance that differs between callers is an argument: `bisect`'s `tol`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, InvalidInput, NoConvergence, NumericalError

RngSeed = int

#: step cap of `bisect`
BISECT_STEPS = 10_000


def spawn_rng(seed: RngSeed, *key: int) -> np.random.Generator:
    """Derive an independent generator from (seed, *key).

    The key path makes per-panel / per-instance streams reproducible and
    non-overlapping without sharing mutable generator state.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-9) -> float:
    """Root of a continuous f on [lo, hi] by bisection.

    Requires a sign change over the bracket. Stops when |f(mid)| <= tol or
    the bracket width falls below tol; raises NoConvergence after
    BISECT_STEPS midpoints.
    """
    if not lo <= hi:
        raise InvalidInput(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NumericalError(f"non-finite endpoint values f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"f({lo})={flo:g} and f({hi})={fhi:g} have the same sign")
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if not math.isfinite(fmid):
            raise NumericalError(f"f({mid}) is not finite")
        if abs(fmid) <= tol or (hi - lo) * 0.5 <= tol:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NoConvergence("bisection did not converge", last=0.5 * (lo + hi),
                        residual=hi - lo, iterations=BISECT_STEPS)


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-8) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    if not lo <= hi:
        raise InvalidInput(f"empty interval [{lo}, {hi}]")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)
