"""Deterministic numerical kernel: seeded RNG streams, bisection,
golden-section search and damped fixed-point iteration. Every solver module
builds on these primitives.

Reproducibility contract: all randomness flows through `spawn_rng`, which
derives independent PCG64 streams from a 64-bit seed plus an integer key
path. Each solver draws its whole Monte Carlo panel from one such stream,
so two runs with the same seed produce bit-identical samples whatever the
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, InvalidInput, NoConvergence, NumericalError

RngSeed = int


def spawn_rng(seed: RngSeed, *key: int) -> np.random.Generator:
    """Derive an independent generator from (seed, *key).

    The key path makes per-panel / per-instance streams reproducible and
    non-overlapping without sharing mutable generator state.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances shared by the scalar and vector solvers.

    abs_tol applies to residuals / bracket widths, damping to fixed-point
    updates (x <- (1-damping) x + damping map(x)); the grid BNE kernel uses
    damping as the mixing weight of its Anderson acceleration.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_iter: int = 10_000
    damping: float = 0.5

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise InvalidInput(f"abs_tol must be > 0, got {self.abs_tol}")
        if not 0 < self.damping <= 1:
            raise InvalidInput(f"damping must be in (0, 1], got {self.damping}")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be >= 1")


DEFAULT_SETTINGS = SolverSettings()

# Vector fixed points (NE / BNE searches) settle for a slightly looser
# tolerance than scalar roots.
FIXED_POINT_SETTINGS = SolverSettings(abs_tol=1e-7, max_iter=5000)


def bisect(f: Callable[[float], float], lo: float, hi: float,
           settings: SolverSettings = DEFAULT_SETTINGS) -> float:
    """Root of a continuous f on [lo, hi] by bisection.

    Requires a sign change over the bracket. Stops when |f(mid)| <= abs_tol
    or the bracket width falls below abs_tol.
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
    for _ in range(settings.max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if not math.isfinite(fmid):
            raise NumericalError(f"f({mid}) is not finite")
        if abs(fmid) <= settings.abs_tol or (hi - lo) * 0.5 <= settings.abs_tol:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NoConvergence("bisection did not converge", last=0.5 * (lo + hi),
                        residual=hi - lo, iterations=settings.max_iter)


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


def fixed_point(map_fn: Callable[[np.ndarray], np.ndarray],
                init: Sequence[float] | np.ndarray | float,
                settings: SolverSettings = FIXED_POINT_SETTINGS,
                callback: Callable[[np.ndarray, float], None] | None = None) -> np.ndarray:
    """Damped fixed-point iteration x <- (1-damping) x + damping map(x).

    Returns x with ||x - map(x)||_inf <= abs_tol. The residual is measured
    on the undamped map, so the returned point is a genuine fixed point of
    `map_fn`, not of the damped update. `callback(x, residual)` is invoked
    once per iteration (handy for convergence diagnostics in tests).
    """
    x = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    for iteration in range(settings.max_iter + 1):
        fx = np.atleast_1d(np.asarray(map_fn(x), dtype=float))
        if fx.shape != x.shape:
            raise InvalidInput(f"map changed shape {x.shape} -> {fx.shape}")
        if not np.all(np.isfinite(fx)):
            raise NumericalError("map produced non-finite values")
        residual = float(np.max(np.abs(fx - x))) if x.size else 0.0
        if callback is not None:
            callback(x.copy(), residual)
        if residual <= settings.abs_tol:
            return x
        x = (1.0 - settings.damping) * x + settings.damping * fx
    raise NoConvergence("fixed-point iteration did not converge", last=x,
                        residual=residual, iterations=settings.max_iter)
