"""Deterministic numerical kernel: seeded RNG streams, Brent's root finder
and golden-section search.

Reproducibility contract: all randomness flows through `spawn_rng`, which
derives independent PCG64 streams from a 64-bit seed plus an integer key
path. Each solver draws its whole Monte Carlo panel from one such stream,
so two runs with the same seed produce bit-identical samples whatever the
worker count.

Solver tolerances are not model inputs: every equilibrium the package
solves for is unique, so each solver runs with one tolerance and one step
cap, kept as constants in its own module (here BISECT_STEPS). Only the
tolerances that differ between callers are arguments: `bisect`'s and
`golden_section_max`'s `tol`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, InvalidInput, NoConvergence, NumericalError

RngSeed = int

#: evaluation cap of `bisect`
BISECT_STEPS = 10_000
_EPS = np.finfo(float).eps


def spawn_rng(seed: RngSeed, *key: int) -> np.random.Generator:
    """Derive an independent generator from (seed, *key).

    The key path makes per-panel / per-instance streams reproducible and
    non-overlapping without sharing mutable generator state.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


def bisect(f: Callable[[float], float], lo: float, hi: float,
           tol: float = 1e-9) -> float:
    """Root of a continuous f on [lo, hi] by Brent's method (Brent 1973, ch.
    4: inverse quadratic or secant steps inside a sign-change bracket, else
    bisection), named `bisect` for its callers. Every evaluation lies in
    [lo, hi]. Returns the bracket end b of smaller |f| once the bracket is
    tol + 4 eps |b| wide, or an interior iterate b with |f(b)| <= tol (an
    endpoint's |f| ends nothing); NoConvergence after BISECT_STEPS steps."""
    if not lo <= hi:
        raise InvalidInput(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NumericalError(f"non-finite endpoint values f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if flo * fhi > 0:
        raise BracketError(f"f({lo})={flo:g} and f({hi})={fhi:g} have the same sign")
    # b: best iterate, c: the bracket's other end, a: the previous b
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc, step, prev = a, fa, b - a, b - a
    for _ in range(BISECT_STEPS):
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        half = 0.5 * (c - b)
        if abs(half) <= tol1:
            return b
        accept = False
        if abs(prev) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            accept = 2.0 * p < min(3.0 * half * q - abs(tol1 * q), abs(prev * q))
        prev, step = (step, p / q) if accept else (half, half)
        a, fa = b, fb
        b += step if abs(step) > tol1 else math.copysign(tol1, half)
        fb = f(b)
        if not math.isfinite(fb):
            raise NumericalError(f"f({b}) is not finite")
        if abs(fb) <= tol:
            return b
        if (fb > 0) == (fc > 0):
            c, fc, step, prev = a, fa, b - a, b - a
    raise NoConvergence("root search did not converge", last=b,
                        residual=abs(c - b), iterations=BISECT_STEPS)


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
