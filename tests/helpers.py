"""Shared test oracles, independent of the solver paths they check."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from crowdcontest.bayesian_closed import (BLOCK_ROWS, BayesianConfig, _binom_pmf,
                                          _quantile_grid, reward_schedule)
from crowdcontest.contest import ContestConfig, best_response
from crowdcontest.errors import InvalidInput, NoConvergence, NumericalError
from crowdcontest.numerics import bisect
from crowdcontest.open_system import open_earliest_n_prob

#: step cap and damping of `fixed_point`
FIXED_POINT_STEPS = 5000
FIXED_POINT_DAMPING = 0.5


def drawn(config: BayesianConfig, part: str, samples: int, seed: int,
          grid_size: int = 2):
    """One part of `config.draws`, the other drawn at its floor of 2 draws
    and dropped: the Stage-II "opponents", `samples` draws on `grid_size`
    points from the stream of `seed`, or the Stage-I "panel" of `samples`
    rows from the stream of `seed`, which `config.draws(seed=seed - 1)`
    draws. A panel does not depend on `grid_size`: it keeps its types on
    its prior's clock, where Stage I places them on any solve grid."""
    if part == "opponents":
        return config.draws(grid_size, samples, 2, seed)[1]
    return config.draws(grid_size, 2, samples, seed - 1)[0]


def fixed_point(map_fn: Callable[[np.ndarray], np.ndarray],
                init: Sequence[float] | np.ndarray | float,
                tol: float = 1e-7,
                callback: Callable[[np.ndarray, float], None] | None = None) -> np.ndarray:
    """Damped fixed-point iteration x <- (1-d) x + d map(x) with d =
    FIXED_POINT_DAMPING.

    Returns x with ||x - map(x)||_inf <= tol. The residual is measured on the
    undamped map, so the returned point is a genuine fixed point of `map_fn`,
    not of the damped update; raises NoConvergence after FIXED_POINT_STEPS
    updates. `callback(x, residual)` is invoked once per iteration.
    """
    x = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    for _ in range(FIXED_POINT_STEPS + 1):
        fx = np.atleast_1d(np.asarray(map_fn(x), dtype=float))
        if fx.shape != x.shape:
            raise InvalidInput(f"map changed shape {x.shape} -> {fx.shape}")
        if not np.all(np.isfinite(fx)):
            raise NumericalError("map produced non-finite values")
        residual = float(np.max(np.abs(fx - x))) if x.size else 0.0
        if callback is not None:
            callback(x.copy(), residual)
        if residual <= tol:
            return x
        x = (1.0 - FIXED_POINT_DAMPING) * x + FIXED_POINT_DAMPING * fx
    raise NoConvergence("fixed-point iteration did not converge", last=x,
                        residual=residual, iterations=FIXED_POINT_STEPS)


def best_response_map(config: ContestConfig):
    """Undamped simultaneous best-response map for the complete-info game."""
    def step(e: np.ndarray) -> np.ndarray:
        total = float(np.sum(e))
        return np.array([best_response(config, total - float(e[i]), i)
                         for i in range(config.n_players)])
    return step


def ne_by_iteration(config: ContestConfig, init, abs_tol: float = 1e-9) -> np.ndarray:
    """NE oracle: damped best-response dynamics from a given start."""
    return fixed_point(best_response_map(config), init, abs_tol)


def bne_quadrature_oracle(b_of_t, times, n_players: int, e0: float,
                          quantile_fn, n_nodes: int = 400, tol: float = 1e-10,
                          max_iter: int = 5000) -> np.ndarray:
    """Deterministic BNE oracle for small player counts.

    Replaces the Monte Carlo opponent expectation by a tensor-product
    quadrature over opponent quantiles (exact up to discretization), then
    runs damped best-response iteration on the grid. Only feasible for
    n_players <= 3 (0-, 1- or 2-dimensional quadrature).
    """
    n_opp = n_players - 1
    if n_opp > 2:
        raise ValueError("quadrature oracle supports at most 3 players")
    times = np.asarray(times, dtype=float)
    b_t = np.asarray(b_of_t, dtype=float)
    nodes = quantile_fn((np.arange(n_nodes) + 0.5) / n_nodes)

    efforts = np.where(b_t > e0, 0.25 * b_t, 0.0)
    for _ in range(max_iter):
        opp = np.interp(nodes, times, efforts)
        if n_opp == 0:
            a = np.array([e0])
        elif n_opp == 1:
            a = e0 + opp
        else:
            a = e0 + (opp[:, None] + opp[None, :]).ravel()
        new_e = np.zeros_like(efforts)
        with np.errstate(divide="ignore"):
            inv_mean = np.mean(np.where(a > 0, 1.0 / np.maximum(a, 1e-300), np.inf))
        for i, b_i in enumerate(b_t):
            if b_i <= 0 or b_i * inv_mean <= 1.0:
                continue
            lo, hi = 0.0, b_i / 4.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if b_i * np.mean(a / (a + mid) ** 2) > 1.0:
                    lo = mid
                else:
                    hi = mid
            new_e[i] = 0.5 * (lo + hi)
        if float(np.max(np.abs(new_e - efforts))) < tol:
            return new_e
        efforts = 0.5 * efforts + 0.5 * new_e
    raise AssertionError("quadrature oracle did not converge")


def convolution_best_responses(b_of_t, times, n_players: int, e0: float,
                               quantile_fn, efforts, n_nodes: int = 2 ** 14,
                               cells: int = 256) -> np.ndarray:
    """Best responses on the grid to opponents who play `efforts`, with the
    opponent expectation taken by convolution instead of Monte Carlo: an
    oracle for any player count.

    The law of one opponent's effort e(T) comes from n_nodes quantile
    midpoints of T, binned on a lattice of `cells` steps of width
    h = max e / cells, each node split between its two lattice points so
    that the mean is kept. The law of E_-i is its (N-1)-fold convolution,
    one power of its np.fft, and E[A/(A+x)^2] with A = e0 + E_-i is a
    lattice sum. A point whose b(t) E[1/A] <= 1 sits out; the others solve
    b(t) E[A/(A+x)^2] = 1 by bisection on [0, b(t)/4].
    """
    b_t = np.asarray(b_of_t, dtype=float)
    opp = np.interp(quantile_fn((np.arange(n_nodes) + 0.5) / n_nodes), times, efforts)
    step = float(opp.max()) / cells
    pos = opp / step
    k = np.minimum(pos.astype(int), cells - 1)
    law = (np.bincount(k, k + 1 - pos, cells + 1)
           + np.bincount(k + 1, pos - k, cells + 1)) / n_nodes
    size = (n_players - 1) * cells + 1
    n_fft = 1 << (size - 1).bit_length()
    mass = np.maximum(np.fft.irfft(np.fft.rfft(law, n_fft) ** (n_players - 1),
                                   n_fft)[:size], 0.0)
    a = e0 + step * np.arange(size)
    lo, hi = np.zeros(b_t.size), 0.25 * b_t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = b_t * (mass @ (a[:, None] / (a[:, None] + mid) ** 2)) > 1.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(b_t * float(mass @ (1.0 / a)) > 1.0, 0.5 * (lo + hi), 0.0)


def single_peaked(values, tol: float = 0.0) -> bool:
    """True when the sequence rises (within tol) to a peak then falls."""
    values = np.asarray(values, dtype=float)
    k = int(np.argmax(values))
    rising = np.all(np.diff(values[: k + 1]) >= -tol)
    falling = np.all(np.diff(values[k:]) <= tol)
    return bool(rising and falling)


def argpartition_payment(draws: np.ndarray, efforts: np.ndarray, n: int, b: float,
                         e0: float) -> float:
    """Expected earliest-n payment share over unsorted type draws: each row
    rewards its n smallest joining times, picked by `np.argpartition` and
    put into a reward matrix, as Stage I did before its panel rows were
    sorted."""
    rewards = np.zeros_like(draws)
    if n >= draws.shape[1]:
        rewards[:] = b
    else:
        idx = np.argpartition(draws, n - 1, axis=1)[:, :n]
        np.put_along_axis(rewards, idx, b, axis=1)
    paid = np.sum(efforts * rewards, axis=1)
    denom = e0 + np.sum(efforts, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.mean(np.where(denom > 0, paid / denom, 0.0)))


def unblocked_stage1(types: np.ndarray, weights: np.ndarray, times: np.ndarray,
                     efforts: np.ndarray, e0: float, paid_of) -> dict:
    """Monte Carlo Stage-I results over a whole panel at once, as Stage I
    computed them before it streamed the panel in row blocks: one mc x N
    array of np.interp efforts, its row sums and w-weighted row sums, and
    paid_of(efforts) per draw. Returns the StageOneReport payment and
    efficiency fields and the mean weighted row sum."""
    e = np.interp(types, times, efforts)
    paid = paid_of(e)
    util_draw = np.einsum("ij,ij->i", weights, e)
    denom = e0 + np.sum(e, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        payment = np.where(denom > 0, paid / denom, 0.0)
        eff = np.where(paid > 0, util_draw * denom / paid, 0.0)
    root = np.sqrt(types.shape[0])
    return dict(expected_payment=float(np.mean(payment)),
                payment_stderr=float(np.std(payment, ddof=1) / root),
                expected_efficiency=float(np.mean(eff)),
                efficiency_stderr=float(np.std(eff, ddof=1) / root),
                mean_utility=float(np.mean(util_draw)))


def interp_operator_by_columns(panel: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Interpolation operator M of the grid BNE kernel (M @ e ==
    np.interp(panel, times, e).sum(axis=1)), built as the kernel built it
    before its bincount: one opponent column at a time, from np.interp of
    the grid indices."""
    op = np.zeros((panel.shape[0], times.size))
    rows = np.arange(panel.shape[0])
    for col in panel.T:
        pos = np.interp(col, times, np.arange(times.size))
        k = np.minimum(pos.astype(int), times.size - 2)
        op[rows, k] += k + 1 - pos
        op[rows, k + 1] += pos - k
    return op


def interp_operator_by_bincount(panel: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Interpolation operator M of the grid BNE kernel on `grid`, uniform
    from 0, built without its row blocks and without leaving past-end
    columns out: every draw at position min(x (G - 1) / grid[-1], G - 1),
    and every column through one bincount over the whole panel (its sums
    are row-local, so row blocks change no bit)."""
    rows, size = panel.shape[0], grid.size
    pos = np.minimum(panel * ((size - 1) / grid[-1]), size - 1)
    k = np.minimum(pos.astype(int), size - 2)
    cells = np.stack([k, k + 1], axis=-1) + (size * np.arange(rows))[:, None, None]
    weights = np.stack([k + 1 - pos, pos - k], axis=-1)
    return np.bincount(cells.ravel(), weights.ravel(),
                       minlength=rows * size).reshape(rows, size)


def interp_operator_stacked(panel: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Interpolation operator M of the grid BNE kernel on `grid`, uniform
    from 0, built as the kernel built it before it wrote its cells and
    weights through `out=`: per block of BLOCK_ROWS rows, the (k, k + 1)
    cells and (k + 1 - pos, pos - k) weights of the draws at positions
    min(x (G - 1) / grid[-1], G - 1) stacked on a last axis, the row offsets
    added by broadcasting, one bincount, and the 1s of trailing columns at
    or past the grid's end in every row of the block added after it."""
    size = grid.size
    op = np.empty((panel.shape[0], size))
    for lo in range(0, panel.shape[0], BLOCK_ROWS):
        block = op[lo:lo + BLOCK_ROWS]
        draws = panel[lo:lo + BLOCK_ROWS]
        inside = np.flatnonzero(~(draws.min(axis=0) >= grid[-1]))
        width = inside[-1] + 1 if inside.size else 0
        pos = np.minimum(draws[:, :width] * ((size - 1) / grid[-1]), size - 1)
        k = np.minimum(pos.astype(int), size - 2)
        cells = np.stack([k, k + 1], axis=-1) \
            + (size * np.arange(block.shape[0]))[:, None, None]
        weights = np.stack([k + 1 - pos, pos - k], axis=-1)
        block[:] = np.bincount(cells.ravel(), weights.ravel(),
                               minlength=block.size).reshape(block.shape)
        for _ in range(draws.shape[1] - width):
            block[:, -1] += 1.0
    return op


def condition_noise_two_pass(a_samples: np.ndarray, grid) -> float:
    """The grid kernel's noise check as it was computed before it took two
    moments: the largest relative standard error, np.std (ddof = 1) over
    np.mean of A/(A+e)^2 per grid point whose effort is above 1e-3 of the
    grid maximum; 0.0 without such points."""
    active = grid.efforts > 1e-3 * float(np.max(grid.efforts, initial=0.0))
    if not np.any(active):
        return 0.0
    a = a_samples[:, None]
    vals = a / (a + grid.efforts[active][None, :]) ** 2
    mean = np.mean(vals, axis=0)
    stderr = np.std(vals, axis=0, ddof=1) / np.sqrt(a_samples.size)
    return float(np.max(np.where(mean > 0, stderr / mean, 0.0)))


def open_grid_times_by_public_prob(config, n: int, grid_size: int) -> np.ndarray:
    """The open earliest-n type grid, searched as it was before the search
    shared a private Poisson-head loop: every gap evaluation through the
    public, validating `open_earliest_n_prob`."""
    rate, b, e0 = config.prior.poisson.rate, config.max_reward, config.nature_effort
    floor = max(min(e0 / b, 0.999) if e0 > 0 else 0.0, 1e-3)

    def gap(s):
        return open_earliest_n_prob(rate, s, n) - floor

    hi = 1.0 / rate
    while gap(hi) > 0:
        hi *= 2.0
        if hi > 1e12 / rate:
            break
    s_max = bisect(gap, 0.0, hi, 1e-10) if gap(hi) <= 0 else hi
    return np.linspace(0.0, 1.25 * s_max, grid_size)


def threshold_analytic_bound(config: BayesianConfig, grid_size: int = 2048) -> float:
    """Upper bound on the participation threshold: the time where the reward
    schedule b(t) falls to the nature effort e0."""
    times = _quantile_grid(config.prior.join_model, grid_size)[1]
    below = reward_schedule(config, times) <= config.nature_effort
    return float(times[int(np.argmax(below)) if np.any(below) else -1])


def termination_effort_e0_zero(n_players: int, p: float, b: float) -> float:
    """Closed form of the termination BNE effort at e0 = 0:
    e* = sum_k P(k, N-1) k b / (k+1)^2."""
    k = np.arange(n_players)
    return float(np.sum(_binom_pmf(n_players - 1, p) * k * b / (k + 1) ** 2))
