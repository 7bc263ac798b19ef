"""Stackelberg Bayesian crowdsensing games. The two-stage pipeline that
closed and open systems share lives here: the grid BNE kernel, the scalar
termination-time BNE, the termination and Monte Carlo Stage-I reports, the
Stage-I panel of sorted type draws those reports share, and budget
calibration, all for one config over a prior (`BayesianConfig`). The
closed prior (`ClosedPrior`: N contributors with i.i.d. joining times) is
built here, for the earliest-n, termination-time and linearly-decreasing
reward strategies; `open_system` builds a Poisson prior on it.

Stage-II symmetry: one effort function e*(t) (sampled on a type grid) serves
every player. The equilibrium condition at an active type t is

    E[ (e0 + E_-i) / (e0 + e + E_-i)^2 ] * b(t) = 1,

with the expectation over the opponents' types drawn from the prior; b(t) is
the strategy's effective maximum reward at joining time t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .contest import symmetric_ne
from .errors import (BracketError, InfeasibleBudget, InvalidInput, MonteCarloNoise,
                     NoConvergence)
from .numerics import RngSeed, bisect, spawn_rng
from .timing import ConstantWeight, JoinTimeModel, WeightFunction

if TYPE_CHECKING:
    from .open_system import OpenOpponents

#: tolerance and best-response cap of the grid BNE
BNE_TOL = 1e-8
BNE_STEPS = 2000
#: default Monte Carlo sizes of the draw builders, `experiments.sweep` and a
#: spec: Stage-II grid points and opponent draws, and Stage-I panel rows
GRID_SIZE = 64
MC_SAMPLES = 20_000
STAGE1_SAMPLES = 100_000
#: reward scale beyond which `calibrate_b`'s doubling gives up on reaching
#: the budget; its halving gives up below the reciprocal
CALIBRATION_B_MAX = 1e9
#: root-finder tolerance of the scalar termination-time BNE, in units of
#: the reward b
TERMINATION_TOL = 1e-12
#: nodes of the quantile-midpoint quadrature of the termination report's
#: mean in-time weight
QUAD_POINTS = 4096
#: maximum relative Monte Carlo standard error tolerated in the BNE condition
MC_NOISE_LIMIT = 0.10
#: step cap of the Newton best response at fixed opponent aggregates
NEWTON_STEPS = 100
#: panel rows that Stage I and the interpolation operator take at a time:
#: their blocks of efforts or weights stay within the L2 cache instead of
#: filling an array over the whole panel
BLOCK_ROWS = 1024
#: multiply-adds per matrix product of the grid BNE's Jacobian: OpenBLAS runs
#: a product up to 2^18 of them on one thread, and its threads, woken for
#: each larger product, made a bench pass's kernel 4x slower on a shared
#: 2-core VM unless BLAS threads were pinned to 1
JACOBIAN_BLOCK = 2 ** 18


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _check_finite(**fields: float) -> None:
    """InvalidInput naming the first of `fields` that is not a finite number."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EarliestN:
    """Only the n earliest joiners can be rewarded."""
    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise InvalidInput(f"earliest-n needs an integer n, got {self.n!r}")


@dataclass(frozen=True)
class Termination:
    """Only joiners before the deadline can be rewarded."""
    deadline: float

    def __post_init__(self):
        _check_finite(deadline=self.deadline)


@dataclass(frozen=True)
class LinearDecay:
    """Maximum reward decays linearly: b(t) = max(0, b - velocity * t)."""
    velocity: float

    def __post_init__(self):
        _check_finite(velocity=self.velocity)


Strategy = EarliestN | Termination | LinearDecay


class Prior:
    """All that sets a closed system apart from an open one: a config's prior
    rejects a strategy it does not take (`admit`), builds a config's draws
    (`draws`), gives the chance `rewarded(t, n)` that a contributor joining
    at t is among the n earliest, and places Stage-II opponents on the type
    grid of a config's solve (`placed`); `names` says what it fixes. Its two
    kinds are `ClosedPrior` and `open_system.PoissonPrior`."""


@dataclass(frozen=True)
class ClosedPrior(Prior):
    """A closed system's prior: N contributors with i.i.d. joining times."""

    n_players: int
    join_model: JoinTimeModel
    names = "N or join model"

    def __post_init__(self):
        if not isinstance(self.n_players, numbers.Integral):
            raise InvalidInput(f"n_players must be an integer, got {self.n_players!r}")
        if self.n_players < 1:
            raise InvalidInput("n_players must be >= 1")

    def admit(self, s: Strategy) -> None:
        if isinstance(s, EarliestN):
            if not 1 <= s.n <= self.n_players:
                raise InvalidInput(f"earliest-n needs 1 <= n <= N, got n={s.n}")
        elif isinstance(s, Termination):
            lo, _ = self.join_model.support
            if s.deadline < lo:
                raise InvalidInput("deadline lies before the joining-time support")
        elif isinstance(s, LinearDecay):
            if s.velocity < 0:
                raise InvalidInput("decay velocity must be >= 0")
        else:
            raise InvalidInput(f"unknown strategy {s!r}")

    def draws(self, config: BayesianConfig, grid_size: int, mc_samples: int,
              stage1_samples: int, seed: RngSeed):
        """`BayesianConfig.draws`. The Stage-II opponents: mc_samples draws of
        the N-1 opponent types from the stream (seed, 0x5e11), placed on the
        quantile-spaced grid of grid_size points. The Stage-I panel:
        stage1_samples draws of the N joining times from the stream
        (seed + 1, 0x51a6e1), each row sorted once, with their weights and
        their knots on that grid. A termination config's tables take
        p = F(T): the Binomial(N-1, p) and Binomial(N, p) pmfs, and the mean
        in-time weight by quantile-midpoint quadrature of w under F on
        [0, T]."""
        model, n = self.join_model, self.n_players
        if isinstance(config.strategy, Termination):
            p = float(model.cdf(config.strategy.deadline))
            us = (np.arange(QUAD_POINTS) + 0.5) / QUAD_POINTS * p
            w_bar = float(np.mean(config.weightfn(model.quantile(us))))
            return TerminationTables(_binom_pmf(n - 1, p), _binom_pmf(n, p)[1:], w_bar,
                                     config.draws_key)
        _check_samples("mc_samples", mc_samples)
        times = _grid_times(model, grid_size)
        opp_types = model.sample(spawn_rng(seed, 0x5e11), mc_samples * (n - 1))
        opponents = Stage2Opponents(
            times, _interp_operator(opp_types.reshape(mc_samples, n - 1), times), self)
        _check_samples("stage1_samples", stage1_samples)
        types = model.sample(spawn_rng(seed + 1, 0x51a6e1), stage1_samples * n)
        types = types.reshape(stage1_samples, n)
        types.sort(axis=1)
        panel = Stage1Panel(types, config.weightfn(types), key=config.draws_key)
        return panel.with_knots(times), opponents

    def rewarded(self, t: np.ndarray, n: int) -> np.ndarray:
        """`earliest_n_prob` at the quantile F(t) of each joining time t."""
        return earliest_n_prob(self.join_model.cdf(t), self.n_players, n)

    def placed(self, config: BayesianConfig, opponents: Stage2Opponents):
        """The type grid of a solve and the opponents' operator on it, both
        fixed when the opponents were drawn."""
        return opponents.times, opponents.operator


@dataclass(frozen=True)
class BayesianConfig:
    """Bayesian contest instance over a closed or open prior. The nature
    effort is stored as a fraction of the maximum reward so budget
    calibration can rescale both together."""

    prior: Prior
    strategy: Strategy
    weightfn: WeightFunction = ConstantWeight()
    max_reward: float = 1.0
    e0_ratio: float = 0.0
    budget: float = 1.0

    def __post_init__(self):
        _check_finite(max_reward=self.max_reward, e0_ratio=self.e0_ratio,
                      budget=self.budget)
        if not (self.max_reward > 0 and self.e0_ratio >= 0 and self.budget > 0):
            raise InvalidInput(f"need max_reward > 0, e0_ratio >= 0 and budget > 0, got "
                               f"{self.max_reward}, {self.e0_ratio} and {self.budget}")
        if not isinstance(self.prior, Prior):
            raise InvalidInput(f"prior must be a ClosedPrior or PoissonPrior, "
                               f"got {self.prior!r}")
        self.prior.admit(self.strategy)

    @property
    def nature_effort(self) -> float:
        return self.e0_ratio * self.max_reward

    def with_reward(self, b: float) -> "BayesianConfig":
        return replace(self, max_reward=b)

    @property
    def draws_key(self) -> tuple:
        """What `draws` depends on besides its sizes and seed: the prior and
        the weights, and a termination strategy's deadline."""
        key = self.prior, self.weightfn
        return (*key, self.strategy) if isinstance(self.strategy, Termination) else key

    def draws(self, grid_size: int = GRID_SIZE, mc_samples: int = MC_SAMPLES,
              stage1_samples: int = STAGE1_SAMPLES, seed: RngSeed = 0):
        """The prior's Stage-I panel, from seed + 1, and its Stage-II
        opponents, from seed; for a termination strategy its exact tables,
        which take no sizes or seed."""
        return self.prior.draws(self, grid_size, mc_samples, stage1_samples, seed)

    def _check_drawn_for(self, what: str, record) -> None:
        """InvalidInput unless draws `what` were drawn for this config: their
        `record` is its `draws_key`, or its prior for Stage-II opponents."""
        key = isinstance(record, tuple)
        if record != (expected := self.draws_key if key else self.prior):
            names = self.prior.names + (", weights or deadline" if key else "")
            raise InvalidInput(f"{what} were drawn for another {names} than {expected!r}")


@dataclass(frozen=True)
class TypeGrid:
    """Equilibrium effort e*(t) sampled on a strictly increasing time grid,
    together with the effective reward schedule b(t) on the same grid."""

    times: np.ndarray
    efforts: np.ndarray
    b_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        e = np.asarray(self.efforts, dtype=float)
        b = np.asarray(self.b_values, dtype=float)
        if t.ndim != 1 or t.shape != e.shape or t.shape != b.shape or t.size < 2:
            raise InvalidInput("grid arrays must be matching 1-d with >= 2 points")
        if np.any(np.diff(t) <= 0):
            raise InvalidInput("grid times must be strictly increasing")
        if np.any(e < 0):
            raise InvalidInput("efforts must be >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "efforts", e)
        object.__setattr__(self, "b_values", b)

    def interp(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.times, self.efforts)

    def scaled(self, factor: float) -> "TypeGrid":
        return TypeGrid(self.times, self.efforts * factor, self.b_values * factor)


@dataclass(frozen=True)
class Stage1Panel:
    """Monte Carlo types of Stage I (common random numbers), drawn once per
    prior and shared by every evaluation of a sweep: `types` holds one draw
    per row with the row sorted ascending, so the n earliest joiners of a
    draw are its first n columns, and `weights` holds the requester's
    valuations w(types). `knots`, set by `with_knots`, holds a type grid and
    the `_knots` positions of `types` on it, and `key` the `draws_key` it was
    drawn for. The panel takes its arrays over read-only."""

    types: np.ndarray
    weights: np.ndarray
    knots: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    key: tuple = ()

    def __post_init__(self):
        t = np.asarray(self.types, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if t.ndim != 2 or t.shape != w.shape:
            raise InvalidInput("panel types and weights must be matching 2-d arrays")
        if np.any(t[:, 1:] < t[:, :-1]):
            raise InvalidInput("panel rows must be sorted ascending")
        for a in (t, w, *(self.knots or ())):
            a.setflags(write=False)
        object.__setattr__(self, "types", t)
        object.__setattr__(self, "weights", w)

    def with_knots(self, times: np.ndarray) -> "Stage1Panel":
        """This panel with its types' knot positions on the grid `times`
        kept beside them: an evaluation on an effort grid over the same
        times then gathers each effort instead of searching the grid."""
        times = np.array(times, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = times.ndim == 1 and times.size >= 2 and np.all(np.diff(times) > 0) \
                and times[-1] - times[0] < math.inf
        if not grid:
            raise InvalidInput("knot times must be finite and strictly increasing")
        return replace(self, knots=(times, *_knots(self.types, times)))


@dataclass(frozen=True)
class StageOneReport:
    """Requester-side expectations for one calibrated strategy parameter."""

    parameter: float
    calibrated_b: float
    expected_utility: float
    expected_payment: float
    payment_stderr: float
    expected_efficiency: float
    efficiency_stderr: float

    def scaled(self, factor: float) -> "StageOneReport":
        """This report at `factor` times the reward of a model homogeneous in
        b: reward, utility and payment scale, efficiency does not."""
        return replace(self, calibrated_b=self.calibrated_b * factor,
                       expected_utility=self.expected_utility * factor,
                       expected_payment=self.expected_payment * factor,
                       payment_stderr=self.payment_stderr * factor)


# ---------------------------------------------------------------------------
# Reward schedules
# ---------------------------------------------------------------------------

def _scaled_power(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, e) with x**k = f 2**e for x >= 0 and integers k >= 0: powers of
    x's mantissa, taken at most 1000 at a time and renormalized, so none
    leaves the float range; one np.power, as accurate as x**k, for k <= 1000."""
    mantissa, exponent = np.frexp(x)
    f, e = np.ones(np.broadcast(x, k).shape), exponent * k
    while np.any(k > 0):
        f, shift = np.frexp(f * np.power(mantissa, np.minimum(k, 1000)))
        e, k = e + shift, k - np.minimum(k, 1000)
    return f, e


def earliest_n_prob(p, n_players: int, n_rewarded: int):
    """Probability that a contributor joining at the F-quantile p is among
    the n earliest of N: the Binomial(N-1, p) CDF at n-1 (at most n-1 of the
    opponents arrive earlier), exactly 1 at n = N, where it sums the whole
    pmf and rounding would leave it a few ulps short. Each term multiplies
    the mantissas of its exact coefficient and of its two powers and adds
    their exponents, so it stays a float64 at any N."""
    if not all(isinstance(v, numbers.Integral) for v in (n_players, n_rewarded)):
        raise InvalidInput(f"need integers N, n, got N={n_players!r}, n={n_rewarded!r}")
    if not 1 <= n_rewarded <= n_players:
        raise InvalidInput(f"need 1 <= n <= N, got n={n_rewarded}, N={n_players}")
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= -1e-12) & (p_arr <= 1 + 1e-12)):
        raise InvalidInput("p must lie in [0, 1]")
    p_arr = np.clip(p_arr, 0.0, 1.0)
    if n_rewarded == n_players:
        out = np.ones_like(p_arr)
    else:
        m = n_players - 1
        k = np.arange(n_rewarded).reshape((-1,) + (1,) * p_arr.ndim)
        comb = list(accumulate(range(1, n_rewarded), lambda c, j: c * (m - j + 1) // j,
                               initial=1))
        c_exp = np.array([c.bit_length() for c in comb]).reshape(k.shape)
        c_frac = np.array([c / (1 << c.bit_length()) for c in comb]).reshape(k.shape)
        p_frac, p_exp = _scaled_power(p_arr, k)
        q_frac, q_exp = _scaled_power(1.0 - p_arr, m - k)
        terms = np.ldexp(c_frac * p_frac * q_frac, c_exp + p_exp + q_exp)
        out = np.clip(terms.sum(axis=0), 0.0, 1.0)
    return out if out.ndim else float(out)


def reward_schedule(config: BayesianConfig, times) -> np.ndarray:
    """Effective maximum reward b(t) on `times` for the configured strategy."""
    t = np.asarray(times, dtype=float)
    b, s = config.max_reward, config.strategy
    if isinstance(s, EarliestN):
        return b * config.prior.rewarded(t, s.n)
    if isinstance(s, LinearDecay):
        return np.maximum(b - s.velocity * t, 0.0)
    return np.where(t <= s.deadline, b, 0.0)


def effort_upper_bound(b_t, e0: float):
    """Analytic cap on the BNE effort at effective reward b(t):
    b(t)/4 when e0 <= b(t)/4, else b(t)^2 e0 / (4 (e0 + b(t)/4)^2)."""
    if not 0 <= e0 < math.inf:
        raise InvalidInput(f"e0 must be finite and >= 0, got {e0!r}")
    b_arr = np.asarray(b_t, dtype=float)
    quarter = 0.25 * b_arr
    with np.errstate(divide="ignore", invalid="ignore"):
        tight = np.where(b_arr > 0, quarter * b_arr * e0 / (e0 + quarter) ** 2, 0.0)
    out = np.where(e0 <= quarter, quarter, tight)
    out = np.where(b_arr <= 0, 0.0, out)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Stage-II solvers
# ---------------------------------------------------------------------------

def _grid_times(model: JoinTimeModel, grid_size: int) -> np.ndarray:
    """Quantile-spaced type grid (denser where arrivals are likely)."""
    if grid_size < 2:
        raise InvalidInput("grid_size must be >= 2")
    q_hi = 1.0 if math.isfinite(model.support[1]) else 0.9995
    ts = np.asarray(model.quantile(np.linspace(0.0, q_hi, grid_size)), dtype=float)
    ts = np.unique(ts)
    if ts.size < 2:
        ts = np.array([ts[0], ts[0] + 1e-9])
    return ts


def _condition_means(a_samples: np.ndarray, size: int):
    """means(x) -> (E[A/(A+x)^2], E[A/(A+x)^3]) over the draws `a_samples`
    for an x of `size` points, as BLAS products w @ inv^2 and w @ inv^3 with
    inv = 1/(A+x) in reused buffers and w = A/mc; a draw with A = 0 adds
    nothing, and its inv is held at 0 to keep inv^3 finite for x near 0.
    slopes(op) -> D @ op at the last x, D[j, i] = (x_j - A_i)(A_i + x_j)^-3 /
    (2 sum_i A_i (A_i + x_j)^-3) the derivative of the root x_j of
    E[A/(A+x)^2] b_j = 1 in A_i, from the (A+x)^-3 buffer, in blocks of
    draws of JACOBIAN_BLOCK multiply-adds; the draws with A = 0, which only
    e0 = 0 allows, are left out of it too."""
    w = a_samples / a_samples.size
    a = a_samples[:, None]
    inv_base = np.where(a > 0, a, np.inf)
    inv = np.empty((a_samples.size, size))
    power = np.empty_like(inv)
    last_x = last_cube = None

    def means(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal last_x, last_cube
        np.reciprocal(np.add(inv_base, x, out=inv), out=inv)
        np.multiply(inv, inv, out=power)
        square = w @ power
        np.multiply(power, inv, out=power)
        last_x, last_cube = x, w @ power
        return square, last_cube

    def slopes(op: np.ndarray) -> np.ndarray:
        np.multiply(np.subtract(last_x, a, out=inv), power, out=inv)
        rows = max(JACOBIAN_BLOCK // (size * op.shape[1]), 1)
        d_op = sum(inv[lo:lo + rows].T @ op[lo:lo + rows]
                   for lo in range(0, a_samples.size, rows))
        return d_op / (2.0 * a_samples.size * last_cube)[:, None]
    return means, slopes


def _expected_best_responses(a_samples: np.ndarray, b_t: np.ndarray,
                             start: np.ndarray | None = None,
                             one_step: bool = False):
    """For each grid reward b(t), solve g(e) = E[A/(A+e)^2] b(t) - 1 = 0 for
    e >= 0, where A = e0 + E_-i ranges over the Monte Carlo opponent draws:
    the best responses e, and slopes(op), the derivative of the positive
    ones in the grid that A = e0 + op @ grid came from (`_condition_means`).

    E[A/(A+e)^2] <= 1/(4e) for any A-distribution, so every root lies in
    [0, b(t)/4]. The one-step map N(x) = clip(x - g/g', 0, b(t)/4) is
    iterated from `start` (default b(t)/8) until it moves at most
    1e-3 BNE_TOL, and NoConvergence is raised after NEWTON_STEPS steps. g is
    convex and decreasing, so a tangent root never passes the root: from its
    left the iterates rise to it, and from its right one step lands left of
    it (Ortega & Rheinboldt 1970, sec. 13.3). With `one_step`, e is N(start)
    alone, slopes taken at `start`. When no draw has A > 0 (e0 = 0 against
    zero opposition) any e > 0 wins b(t): the condition has no root, and the
    best response is returned as 0.
    """
    positive = a_samples > 0
    if np.all(positive):
        participation = b_t * float(np.mean(1.0 / a_samples)) > 1.0
    else:
        # samples with zero opposition and e0 = 0 offer an unbounded marginal
        # reward, so participation holds wherever b(t) > 0
        participation = b_t > 0
    active = participation & (b_t > 0)
    e = np.zeros_like(b_t)
    if not np.any(active) or not np.any(positive):
        return e, lambda op: np.zeros((0, op.shape[1]))
    b_act = b_t[active]
    hi = 0.25 * b_act
    x = 0.5 * hi if start is None else start[active]
    means, slopes = _condition_means(a_samples, x.size)
    for _ in range(NEWTON_STEPS):
        square, cube = means(x)
        g = b_act * square - 1.0
        gp = -2.0 * b_act * cube
        x_new = np.clip(x - g / gp, 0.0, hi)
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if one_step or change <= 1e-3 * BNE_TOL:
            break
    else:
        raise NoConvergence("Newton best response did not converge", last=x,
                            residual=change, iterations=NEWTON_STEPS)
    e[active] = x
    return e, lambda op: slopes(op)[x > 0]


def _knots(types: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot positions of `types` on the strictly increasing grid `times`, as
    np.interp finds them: the index j with times[j] <= t < times[j+1], in
    the smallest integer type that holds it, and the offset t - times[j]. A
    type left of the grid gets (0, 0), and a type at or right of its end gets
    (last, 0), where np.interp returns the end values. Linear interpolation
    of efforts e on the grid is then the gather slope[j] * offset + e[j],
    with slope[j] = (e[j+1] - e[j]) / (times[j+1] - times[j]) and
    slope[last] = 0: np.interp's own arithmetic. Each block of BLOCK_ROWS
    rows guesses j as the index at the left edge of t's bucket, 64 (at most
    2^16 in all) per grid interval, and checks times[j] <= t < times[j+1];
    np.searchsorted places the types that fail it. The guess fails only for
    types in a bucket that holds a knot, few on a grid spaced near evenly
    (a uniform prior's); on an uneven one, most types may fall back to the
    search."""
    last = times.size - 1
    lo, hi = times[0], times[-1]
    buckets = min(64 * last, 1 << 16)
    table = np.searchsorted(times, lo + (hi - lo) / buckets * np.arange(buckets),
                            side="right") - 1
    scale, after = buckets / (hi - lo), np.append(times[1:], np.inf)
    index = np.empty(types.shape, np.min_scalar_type(last))
    offset = np.empty(types.shape)
    rows = [a if types.ndim > 1 else a[:, None] for a in (types, index, offset)]
    for r in range(0, types.shape[0], BLOCK_ROWS):
        t, idx, off = (a[r:r + BLOCK_ROWS] for a in rows)
        np.clip(t, lo, hi, out=off)
        guess = off - lo
        guess *= scale
        j = np.take(table, np.fmin(guess, buckets - 1, out=guess).astype(np.intp))
        hit = np.take(times, j) <= off
        hit &= off < np.take(after, j)
        missed, flat_j = np.flatnonzero(~hit), j.reshape(-1)
        flat_j[missed] = np.searchsorted(times, off.reshape(-1)[missed], side="right") - 1
        idx[...] = j
        off -= np.take(times, j)
    return index, offset


def _interp_operator(panel: np.ndarray, times: np.ndarray,
                     positions=None) -> np.ndarray:
    """Dense M (mc x grid) with M @ e == np.interp(panel, times, e).sum(axis=1)
    for every effort grid e: row i holds the linear-interpolation weights of
    draw i's opponents, clamped to the end values outside the grid, and is
    all zeros for a panel without opponent columns. Each opponent at
    fractional grid position pos adds k + 1 - pos to cell k = min(floor(pos),
    grid - 2) of its row and pos - k to cell k + 1, both written interleaved
    into (rows, opponents, 2) arrays (k + 1 - pos as 1 - (pos - k), the same
    bits, as pos - k is exact); a bincount per block of BLOCK_ROWS rows sums
    them per cell in opponent-column order; trailing columns at or past the
    grid's end in every row of a block, which add 0 and 1 to the last two
    cells, skip it and add their 1s after it. The
    grid's owner may supply `positions(draws)`, the positions of draws that
    lie in or past the grid; by default they are np.interp of the grid
    indices. M is returned read-only."""
    size = times.size
    if positions is None:
        indices = np.arange(size, dtype=float)

        def positions(draws):
            return np.interp(draws, times, indices)
    op = np.empty((panel.shape[0], size))
    for lo in range(0, panel.shape[0], BLOCK_ROWS):
        block = op[lo:lo + BLOCK_ROWS]
        draws = panel[lo:lo + BLOCK_ROWS]
        inside = np.flatnonzero(~(draws.min(axis=0) >= times[-1]))
        width = inside[-1] + 1 if inside.size else 0
        pos = positions(draws[:, :width])
        k = pos.astype(int)
        np.minimum(k, size - 2, out=k)
        cells = np.empty((*pos.shape, 2), dtype=int)
        np.add(k, (size * np.arange(block.shape[0]))[:, None], out=cells[..., 0])
        np.add(cells[..., 0], 1, out=cells[..., 1])
        weights = np.empty((*pos.shape, 2))
        np.subtract(pos, k, out=weights[..., 1])
        np.subtract(1.0, weights[..., 1], out=weights[..., 0])
        block[:] = np.bincount(cells.ravel(), weights.ravel(),
                               minlength=block.size).reshape(block.shape)
        for _ in range(draws.shape[1] - width):
            block[:, -1] += 1.0
    op.setflags(write=False)
    return op


def _bne_condition_noise(a_samples: np.ndarray, grid: TypeGrid) -> float:
    """Largest relative standard error of the equilibrium-condition
    expectation E[v], v = A/(A+e)^2, across active grid points, from the
    moments E[v] = (A/mc) @ inv^2 and E[v^2] = (A^2/mc) @ inv^4 with inv =
    1/(A+e). Points whose effort is below 1e-3 of the grid maximum are
    immaterial to the mechanism and excluded (near the participation cutoff
    the integrand is heavy-tailed and its relative error diverges even though
    the effort itself is ~0)."""
    active = grid.efforts > 1e-3 * float(np.max(grid.efforts, initial=0.0))
    if not np.any(active):
        return 0.0
    mc = a_samples.size
    if mc < 2:
        return math.inf     # no standard error from fewer than 2 draws
    w = a_samples / mc
    power = 1.0 / (a_samples[:, None] + grid.efforts[active])
    np.multiply(power, power, out=power)
    mean = w @ power
    np.multiply(power, power, out=power)
    variance = np.maximum(a_samples * w @ power - mean * mean, 0.0) * (mc / (mc - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(mean > 0, np.sqrt(variance / mc) / mean, 0.0)
    return float(np.max(rel))


def _iterate_grid_bne(times: np.ndarray, b_t: np.ndarray,
                      op: np.ndarray, e0: float) -> TypeGrid:
    """Fixed point of the best-response map G on the type grid against a
    fixed panel of opponent draws (common random numbers, so G is
    deterministic). The panel enters G only through the opponent aggregates
    A = e0 + M x, linear in the effort grid x; `op` is their interpolation
    operator M (`_interp_operator`), built by the caller.

    Each row of M sums to the opponent count, N - 1, and the iteration
    starts at the complete-information NE x(t) = symmetric_ne(N, b(t), e0).
    Newton's method then solves the best-response conditions g(x) = 0 of all
    points jointly. Their Jacobian is diag(g') (I - D M), D from
    `_condition_means`, so with the one-step map N(x) of
    `_expected_best_responses` (0 where a point sits out) each step solves
    (I - D M) dx = f = N(x) - x, D zero where N(x) = 0 (Dembo, Eisenstat &
    Steihaug, SIAM J. Numer. Anal. 19, 1982). It takes x <- max(x + lam dx,
    0) for the first lam in 1, 1/2, 1/4 that lowers ||f||_inf by the Armijo
    factor 1 - 1e-4 lam, else the plain best response G(x) (Kelley, SIAM
    2003, ch. 1-2); a step onto the zero grid halves x instead (at e0 = 0, G
    maps it to itself though a lone positive effort wins b(t)). Once
    ||f||_inf <= BNE_TOL, x is the result if ||G(x) - x||_inf <= BNE_TOL,
    else G(x) serves as that fallback: G is computed at most once per
    iterate. The noise check reads the opponent aggregates of that
    certifying evaluation.

    BNE_STEPS caps the kernel evaluations, one-step maps and best responses
    alike; NoConvergence then carries the last iterate and its ||f||_inf.
    MonteCarloNoise flags a panel too small for the result. Without opponent
    columns (an all-zero op) a lone contributor faces A = e0 on every draw
    and gets max(sqrt(b(t) e0) - e0, 0).
    """
    budget = iter(range(BNE_STEPS))

    def evaluate(point, one_step=True):
        if next(budget, None) is None:
            raise NoConvergence("grid BNE iteration stalled", last=x,
                                residual=residual, iterations=BNE_STEPS)
        a_samples = e0 + op @ point
        return (a_samples, *_expected_best_responses(a_samples, b_t, point, one_step))

    x = symmetric_ne(round(float(op[:1].sum())) + 1, b_t, e0)
    _, new, slopes = evaluate(x)
    residual = float(np.max(np.abs(new - x)))
    while True:
        br = None
        if residual <= BNE_TOL:
            a_samples, br = evaluate(x, one_step=False)[:2]
            if float(np.max(np.abs(br - x))) <= BNE_TOL:
                break
        jac = np.zeros((x.size, x.size))
        jac[new > 0] = slopes(op)
        dx = np.linalg.solve(np.eye(x.size) - jac, new - x)
        del slopes      # it holds mc x grid buffers: keep those of one trial only
        for lam in (1.0, 0.5, 0.25, None):
            trial = (np.maximum(x + lam * dx, 0.0) if lam else
                     evaluate(x, one_step=False)[1] if br is None else br)
            if not np.any(trial > 0):
                trial = 0.5 * x
            _, trial_new, slopes = evaluate(trial)
            trial_residual = float(np.max(np.abs(trial_new - trial)))
            if lam is None or trial_residual <= (1.0 - 1e-4 * lam) * residual:
                break
            del slopes
        x, new, residual = trial, trial_new, trial_residual

    grid = TypeGrid(times, x, b_t)
    noise = _bne_condition_noise(a_samples, grid)
    if not noise <= MC_NOISE_LIMIT:
        raise MonteCarloNoise(
            f"relative stderr {noise:.3f} of the BNE expectation exceeds "
            f"{MC_NOISE_LIMIT:.0%}; increase mc_samples")
    return grid


class Stage2Opponents(NamedTuple):
    """Stage-II opponents drawn for a closed `prior` (`ClosedPrior.draws`):
    the quantile-spaced type grid `times` and the interpolation operator
    `operator` (`_interp_operator`) of the N-1 opponent types of each Monte
    Carlo draw on it, all zeros when N = 1 leaves no opponents."""

    times: np.ndarray
    operator: np.ndarray
    prior: ClosedPrior


def _check_samples(name: str, size: int) -> None:
    """InvalidInput unless `size` gives the 2 draws a standard error needs."""
    if not size >= 2:
        raise InvalidInput(f"{name} must be at least 2 Monte Carlo draws, got {size!r}")


def _solve_grid_bne(config: BayesianConfig, opponents: Stage2Opponents | OpenOpponents,
                    kind: type) -> TypeGrid:
    """Grid BNE of a config whose strategy is of the `kind` a solve takes,
    against `opponents`, which must have been drawn for its prior, on the
    grid that prior places them on (`placed`)."""
    if not isinstance(config.strategy, kind):
        raise InvalidInput(f"config.strategy must be {kind.__name__}")
    config._check_drawn_for("opponents", opponents.prior)
    times, operator = config.prior.placed(config, opponents)
    return _iterate_grid_bne(times, reward_schedule(config, times), operator,
                             config.nature_effort)


def solve_bne_earliest_n(config: BayesianConfig, opponents: Stage2Opponents) -> TypeGrid:
    """Stage-II BNE of the earliest-n strategy against `opponents`
    (`config.draws`), on the grid the config's prior places them on."""
    return _solve_grid_bne(config, opponents, EarliestN)


def solve_bne_linear(config: BayesianConfig, opponents: Stage2Opponents) -> TypeGrid:
    """Stage-II BNE of the linearly-decreasing strategy (same machinery as
    earliest-n with b(t) = max(0, b - h t))."""
    return _solve_grid_bne(config, opponents, LinearDecay)


def participation_threshold(grid: TypeGrid) -> float:
    """Earliest grid time beyond which equilibrium effort is identically 0
    (the support maximum when every type stays active)."""
    active = np.flatnonzero(grid.efforts > 0)
    if not active.size:
        return float(grid.times[0])
    return float(grid.times[min(int(active[-1]) + 1, grid.times.size - 1)])


# ---------------------------------------------------------------------------
# Termination-time strategy (scalar symmetric BNE, closed-form Stage I)
# ---------------------------------------------------------------------------

def _binom_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) pmf on k = 0, ..., m in float64 at any m: the ratios
    P(k+1)/P(k) = (m-k) p / ((k+1)(1-p)), multiplied out from the mode, where
    the term is largest, so that none overflows and only the tails
    underflow, and scaled to unit mass. Each term lies within about m ulps
    of its exact value; lgamma terms would lose about 1e-12 relative at
    m = 1000 to the rounding of logs near 6000. Exact 0/1 masses at p = 0
    and p = 1."""
    if p == 0.0 or p == 1.0:
        return (np.arange(m + 1) == (0 if p == 0.0 else m)).astype(float)
    odds = p / (1.0 - p)
    mode = min(int((m + 1) * p), m)
    terms = [1.0] * (m + 1)
    for k in range(mode, m):
        terms[k + 1] = terms[k] * (m - k) / (k + 1) * odds
    for k in range(mode, 0, -1):
        terms[k - 1] = terms[k] * k / (m - k + 1) / odds
    pmf = np.array(terms)
    return pmf / pmf.sum()


def _termination_effort(pk: np.ndarray, b: float, r: float) -> float:
    """Symmetric in-time effort against k in-time opponents, k ~ pk[k], at
    reward b and nature effort r b: b x, where x = e / b is the root of
        sum_k pk[k] (r + k x) / (r + (k+1) x)^2 = 1
    (left side strictly decreasing in x) by Brent's method on [1e-12, 1]. x
    depends on r alone, so e is exactly b times the effort at b = 1. The left
    side is below 1 at x = 1, so 0 is returned when the search's first
    evaluation finds that even x = 1e-12 cannot break even: when r >= 1,
    when r = 0 and no opponent is ever in time (any positive effort then
    wins b), and when the root lies below 1e-12."""
    k = np.arange(pk.size, dtype=float)
    k1 = k + 1.0

    def lhs_minus_one(x: float) -> float:
        return float((pk * (r + k * x) / (r + k1 * x) ** 2).sum()) - 1.0

    try:
        return b * bisect(lhs_minus_one, 1e-12, 1.0, TERMINATION_TOL)
    except BracketError:
        return 0.0


def solve_bne_termination(n_players: int, p: float | np.ndarray, b: float,
                          e0: float) -> float:
    """Symmetric BNE effort of the termination-time strategy: p = F(T) is the
    probability an opponent joins in time, so the number of in-time
    opponents is Binomial(N-1, p); p may also be that pmf."""
    if n_players < 1:
        raise InvalidInput("n_players must be >= 1")
    if b <= 0 or e0 < 0:
        raise InvalidInput("need b > 0 and e0 >= 0")
    if np.ndim(p) == 0:
        if not 0 <= p <= 1:
            raise InvalidInput("p must lie in [0, 1]")
        p = _binom_pmf(n_players - 1, p)
    elif np.shape(p) != (n_players,):
        raise InvalidInput("the pmf must cover 0..N-1 opponents")
    return _termination_effort(p, b, e0 / b)


class TerminationTables(NamedTuple):
    """What a termination config's solve and report take of its `key`, the
    `draws_key` they were built for (`config.draws`): the in-time
    `opponents` pmf of the solve (Binomial(N-1, F(T)) closed, the
    meeting-count pmf open), the pmf in_time[m-1] of the in-time count
    m = 1, 2, ... and the mean in-time weight `w_bar`."""

    opponents: np.ndarray
    in_time: np.ndarray
    w_bar: float
    key: tuple


def _termination_report(config, e_star: float,
                        tables: TerminationTables) -> StageOneReport:
    """Stage-I metrics of a closed or open termination config with in-time
    effort e*, from the in-time pmf P(m) and mean in-time weight w_bar of
    its `tables`, which must have been built for it:
        E[U] = sum_m P(m) m e* w_bar,
        E[R] = sum_m P(m) b m e* / (e0 + m e*),
        E[Eff] = sum_m P(m) (e0 + m e*) w_bar / b.
    The empty contest (m = 0) pays nothing and counts as zero efficiency."""
    if not isinstance(config.strategy, Termination):
        raise InvalidInput("config.strategy must be Termination")
    config._check_drawn_for("tables", tables.key)
    b, e0 = config.max_reward, config.nature_effort
    pm, w_bar = tables.in_time, tables.w_bar
    m = np.arange(1, pm.size + 1)
    utility = float(np.sum(pm * m * e_star)) * w_bar
    payment = float(np.sum(pm * b * m * e_star / (e0 + m * e_star))) \
        if e_star > 0 else 0.0
    efficiency = float(np.sum(pm * (e0 + m * e_star))) * w_bar / b
    return StageOneReport(parameter=config.strategy.deadline, calibrated_b=b,
                          expected_utility=utility,
                          expected_payment=payment, payment_stderr=0.0,
                          expected_efficiency=efficiency, efficiency_stderr=0.0)


def stage1_metrics_termination(config: BayesianConfig, e_star: float,
                               tables: TerminationTables) -> StageOneReport:
    """Closed-form Stage-I metrics for the termination strategy at in-time
    effort e* from its `tables` (`config.draws`): this gives the
    paper's E[U] = e* N Iwf and E[Eff] = (e0/(b p) (1-(1-p)^N) + N e*/b) Iwf
    with Iwf = int_0^T w f dt."""
    return _termination_report(config, e_star, tables)


# ---------------------------------------------------------------------------
# Stage-I Monte Carlo metrics (earliest-n / linear decay)
# ---------------------------------------------------------------------------

def _panel_efforts(panel: Stage1Panel, grid: TypeGrid):
    """efforts(rows) -> the efforts e*(types) of the panel rows `rows` on
    `grid`: gathered through the panel's knots when they lie on grid's
    times, else interpolated up to where e* turns constant, as np.interp
    returns that constant beyond (bit for bit, unless it is -0.0)."""
    times, e = grid.times, grid.efforts
    if panel.knots is None or not np.array_equal(panel.knots[0], times):
        steps = np.flatnonzero(e[:-1] != e[-1])
        end = steps[-1] + 2 if steps.size else 1
        return lambda rows: np.interp(panel.types[rows], times[:end], e[:end])
    _, index, offset = panel.knots
    slope = np.append(np.diff(e) / np.diff(times), 0.0)

    def efforts(rows: slice) -> np.ndarray:
        j = index[rows]
        return np.take(slope, j) * offset[rows] + np.take(e, j)
    return efforts


def _mc_report(config: BayesianConfig, grid: TypeGrid,
               panel: Stage1Panel) -> StageOneReport:
    """Monte Carlo Stage-I report of a closed or open config on `grid` over
    the draws of `panel`, which must have been drawn for it. The panel is
    streamed in blocks of BLOCK_ROWS rows, keeping three numbers per draw:
    its effort sum, its w-weighted effort sum (the requester utility of the
    draw) and its payout. The panel's rows are sorted, so earliest-n pays b
    times the sum of a draw's first n efforts; the other strategies pay each
    effort its b(t). No mc x N effort array exists, and every sum is
    row-local, so the blocks change no bit. E[U] is the mean utility; a draw
    pays paid / (e0 + sum) and scores utility (e0 + sum) / paid, with zero
    efficiency charged when nothing is paid out."""
    config._check_drawn_for("panel", panel.key)
    efforts = _panel_efforts(panel, grid)
    n = config.strategy.n if isinstance(config.strategy, EarliestN) else None
    count = panel.types.shape[0]
    total, utility, paid = np.empty(count), np.empty(count), np.empty(count)
    for lo in range(0, count, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        block = efforts(rows)
        np.sum(block, axis=1, out=total[rows])
        np.einsum("ij,ij->i", panel.weights[rows], block, out=utility[rows])
        if n is None:
            paid[rows] = np.sum(block * reward_schedule(config, panel.types[rows]), axis=1)
        else:
            paid[rows] = config.max_reward * np.sum(block[:, :n], axis=1)
    denom = config.nature_effort + total
    with np.errstate(divide="ignore", invalid="ignore"):
        payment = np.where(denom > 0, paid / denom, 0.0)
        eff = np.where(paid > 0, utility * denom / paid, 0.0)
    return StageOneReport(parameter=_strategy_parameter(config.strategy),
                          calibrated_b=config.max_reward,
                          expected_utility=float(np.mean(utility)),
                          expected_payment=float(np.mean(payment)),
                          payment_stderr=_stderr(payment),
                          expected_efficiency=float(np.mean(eff)),
                          efficiency_stderr=_stderr(eff))


def _stderr(draws: np.ndarray) -> float:
    """Standard error of the mean of `draws`: exactly 0 when every draw is
    the same, where np.std would keep the rounding of np.mean."""
    if np.all(draws == draws[0]):
        return 0.0
    return float(np.std(draws, ddof=1) / math.sqrt(draws.size))


def stage1_metrics_mc(config: BayesianConfig, grid: TypeGrid,
                      panel: Stage1Panel) -> StageOneReport:
    """Stage-I metrics by Monte Carlo over the joint type draws of `panel`
    (`config.draws`): the per-draw utility, payment and efficiency averaged
    over the draws (`_mc_report`)."""
    return _mc_report(config, grid, panel)


def _strategy_parameter(s: Strategy) -> float:
    if isinstance(s, EarliestN):
        return float(s.n)
    if isinstance(s, Termination):
        return float(s.deadline)
    return float(s.velocity)


# ---------------------------------------------------------------------------
# Budget calibration
# ---------------------------------------------------------------------------

def budget_tolerance(budget: float, stderr: float) -> float:
    return max(1e-3 * budget, 2.0 * stderr)


def scales_with_reward(strategy) -> bool:
    """Whether the model is homogeneous of degree 1 in the reward scale b,
    so that E[R](b) = b E[R](1). The nature effort tracks b (e0 = e0_ratio b),
    which makes every closed and open strategy homogeneous except linear
    decay, whose fixed velocity does not scale with b."""
    return not isinstance(strategy, LinearDecay)


def calibrate_b(payment_at, budget: float, b_hint: float = 1.0,
                assume_linear: bool = True) -> tuple[float, object]:
    """Reward scale b* with |E[R](b*) - B| <= max(1e-3 B, 2 stderr), and the
    caller's result at b*.

    payment_at(b) -> (mean, stderr, result). With assume_linear (a model
    homogeneous of degree 1 in b) it is evaluated once, at b_hint, and its
    result must be a (solution, report) pair: the solution a TypeGrid or a
    flat effort e*, the report a StageOneReport. With factor = B /
    E[R](b_hint), b* = b_hint factor and the pair is scaled to b* rather
    than evaluated again, so E[R](b*) = B up to rounding; InfeasibleBudget if
    E[R](b_hint) <= 0. Otherwise b doubles or halves from b_hint until E[R] -
    B changes sign, then Brent's method (`numerics.bisect`) returns (b*,
    result) of the first evaluation within the tolerance, each b evaluated
    once: InfeasibleBudget once b leaves [1/CALIBRATION_B_MAX,
    CALIBRATION_B_MAX], NoConvergence if the bracket closes first.
    """
    if not budget > 0:
        raise InvalidInput("budget must be > 0")
    if assume_linear:
        mean, _, result = payment_at(b_hint)
        if not mean > 0:
            raise InfeasibleBudget(f"expected payment {mean:.4g} at b={b_hint:.4g} "
                                   f"cannot be scaled to budget {budget:.4g}")
        factor = budget / mean
        solution, report = result
        solution = solution.scaled(factor) if isinstance(solution, TypeGrid) \
            else solution * factor
        return b_hint * factor, (solution, report.scaled(factor))

    evaluations = {}

    def excess(b: float) -> float:     # E[R](b) - B, 0.0 within the tolerance
        if b not in evaluations:
            evaluations[b] = payment_at(b)
        mean, se, _ = evaluations[b]
        return 0.0 if abs(mean - budget) <= budget_tolerance(budget, se) \
            else mean - budget

    lo = hi = b_hint
    while excess(hi) < 0:
        lo, hi = hi, 2.0 * hi
        if hi > CALIBRATION_B_MAX:
            raise InfeasibleBudget(f"E[R] < budget {budget:.4g} up to b={lo:.4g}")
    while excess(lo) > 0:
        lo, hi = 0.5 * lo, lo
        if lo < 1.0 / CALIBRATION_B_MAX:
            raise InfeasibleBudget(f"E[R] > budget {budget:.4g} down to b={hi:.4g}")
    b = bisect(excess, lo, hi, 0.0)
    if excess(b) != 0.0:
        raise NoConvergence("budget calibration stalled: E[R] jumps over B", last=b,
                            residual=excess(b), iterations=len(evaluations))
    return b, evaluations[b][2]


def _calibrated(config: BayesianConfig, draws, solve,
                report) -> tuple[TypeGrid | float, StageOneReport]:
    """(solution, report) of a closed or open config at its budget-calibrated
    reward: calibrate_b from the configured reward, evaluating at each b the
    Stage-II solution solve(cfg, opponents) and its Stage-I report
    report(cfg, solution, panel) of the config cfg at reward b, on `draws`:
    a (panel, opponents) pair, or termination tables that serve both stages.
    Homogeneous models (`scales_with_reward`) are evaluated once, linear
    decay at each b of its root search."""
    panel, opponents = (draws, draws) if isinstance(draws, TerminationTables) else draws

    def payment_at(b: float):
        cfg = config.with_reward(b)
        solution = solve(cfg, opponents)
        rep = report(cfg, solution, panel)
        return rep.expected_payment, rep.payment_stderr, (solution, rep)

    return calibrate_b(payment_at, config.budget, b_hint=config.max_reward,
                       assume_linear=scales_with_reward(config.strategy))[1]


def calibrated_stage1(config: BayesianConfig,
                      draws: tuple[Stage1Panel, Stage2Opponents] | TerminationTables
                      ) -> tuple[TypeGrid | float, StageOneReport]:
    """Solve Stage II, calibrate b to the budget, and report Stage-I metrics
    at the calibrated reward, together with the Stage-II solution there: the
    effort grid, or the flat in-time effort e* of a termination strategy.

    Earliest-n and termination systems scale linearly in b (the stored
    e0_ratio ties the nature effort to b), so Stage II and Stage I run once,
    at the configured reward, and their results are scaled to b*. Linear
    decay solves both stages at each b of its root search (`calibrate_b`)
    because a fixed velocity breaks the scaling.

    Every evaluation runs on `draws` (`config.draws`): one Stage-I panel and
    one set of Stage-II opponents, or a termination strategy's exact tables.
    A sweep passes the draws it shares across the configs of a prior, and
    the tables across the e0 ratios of a deadline.
    """
    s = config.strategy
    if isinstance(s, Termination):
        # the effort at b is b times the effort at b = 1, e0 = e0_ratio,
        # against the tables' in-time opponent pmf
        return _calibrated(config, draws, lambda cfg, tables: cfg.max_reward * (
            solve_bne_termination(tables.opponents.size, tables.opponents, 1.0,
                                  cfg.e0_ratio)), stage1_metrics_termination)
    solve = solve_bne_earliest_n if isinstance(s, EarliestN) else solve_bne_linear
    return _calibrated(config, draws, solve, stage1_metrics_mc)
