"""Stackelberg Bayesian crowdsensing games. The two-stage pipeline that
closed and open systems share lives here: the grid BNE kernel, the scalar
termination-time BNE, the termination and Monte Carlo Stage-I reports and
budget calibration. The closed system (a fixed population of N contributors
with i.i.d. joining times) is built on it here, for the earliest-n,
termination-time and linearly-decreasing reward strategies; `open_system`
builds the open system on it from a Poisson prior.

Stage-II symmetry: one effort function e*(t) (sampled on a type grid) serves
every player. The equilibrium condition at an active type t is

    E[ (e0 + E_-i) / (e0 + e + E_-i)^2 ] * b(t) = 1,

with the expectation over the opponents' types drawn from the prior; b(t) is
the strategy's effective maximum reward at joining time t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBudget, InvalidInput, MonteCarloNoise, NoConvergence
from .numerics import RngSeed, bisect, spawn_rng
from .timing import ConstantWeight, JoinTimeModel, WeightFunction

#: tolerance, best-response cap and Anderson mixing weight of the grid BNE
BNE_TOL = 1e-8
BNE_STEPS = 2000
ANDERSON_WEIGHT = 0.5
#: bisection tolerance of the scalar termination-time BNE
TERMINATION_TOL = 1e-12
#: nodes of the 1-d quantile-midpoint quadratures of Stage I
QUAD_POINTS = 4096
#: maximum relative Monte Carlo standard error tolerated in the BNE condition
MC_NOISE_LIMIT = 0.10
#: step cap of the safeguarded Newton best response
NEWTON_STEPS = 100


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EarliestN:
    """Only the n earliest joiners can be rewarded."""
    n: int


@dataclass(frozen=True)
class Termination:
    """Only joiners before the deadline can be rewarded."""
    deadline: float


@dataclass(frozen=True)
class LinearDecay:
    """Maximum reward decays linearly: b(t) = max(0, b - velocity * t)."""
    velocity: float


Strategy = EarliestN | Termination | LinearDecay


@dataclass(frozen=True)
class BayesianConfig:
    """Closed-system instance. The nature effort is stored as a fraction of
    the maximum reward so budget calibration can rescale both together."""

    n_players: int
    strategy: Strategy
    join_model: JoinTimeModel
    weightfn: WeightFunction = ConstantWeight()
    max_reward: float = 1.0
    e0_ratio: float = 0.0
    budget: float = 1.0

    def __post_init__(self):
        if self.n_players < 1:
            raise InvalidInput("n_players must be >= 1")
        if not self.max_reward > 0:
            raise InvalidInput("max_reward must be > 0")
        if not 0 <= self.e0_ratio:
            raise InvalidInput("e0_ratio must be >= 0")
        if not self.budget > 0:
            raise InvalidInput("budget must be > 0")
        s = self.strategy
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

    @property
    def nature_effort(self) -> float:
        return self.e0_ratio * self.max_reward

    def with_reward(self, b: float) -> "BayesianConfig":
        return replace(self, max_reward=b)


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
class StageOneReport:
    """Requester-side expectations for one calibrated strategy parameter."""

    parameter: float
    calibrated_b: float
    expected_utility: float
    expected_payment: float
    payment_stderr: float
    expected_efficiency: float
    efficiency_stderr: float


# ---------------------------------------------------------------------------
# Reward schedules
# ---------------------------------------------------------------------------

def earliest_n_prob(p, n_players: int, n_rewarded: int):
    """Probability that a contributor joining at the F-quantile p is among
    the n earliest of N: the Binomial(N-1, p) CDF at n-1 (at most n-1 of the
    opponents arrive earlier)."""
    if not 1 <= n_rewarded <= n_players:
        raise InvalidInput(f"need 1 <= n <= N, got n={n_rewarded}, N={n_players}")
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < -1e-12) | (p_arr > 1 + 1e-12)):
        raise InvalidInput("p must lie in [0, 1]")
    p_arr = np.clip(p_arr, 0.0, 1.0)
    m = n_players - 1
    total = np.zeros_like(p_arr)
    for k in range(n_rewarded):
        total += math.comb(m, k) * p_arr ** k * (1.0 - p_arr) ** (m - k)
    out = np.clip(total, 0.0, 1.0)
    return out if out.ndim else float(out)


def reward_schedule(config: BayesianConfig, times) -> np.ndarray:
    """Effective maximum reward b(t) on `times` for the configured strategy."""
    t = np.asarray(times, dtype=float)
    b = config.max_reward
    s = config.strategy
    if isinstance(s, EarliestN):
        return b * earliest_n_prob(config.join_model.cdf(t), config.n_players, s.n)
    if isinstance(s, LinearDecay):
        return np.maximum(b - s.velocity * t, 0.0)
    return np.where(t <= s.deadline, b, 0.0)


def effort_upper_bound(b_t, e0: float):
    """Analytic cap on the BNE effort at effective reward b(t):
    b(t)/4 when e0 <= b(t)/4, else b(t)^2 e0 / (4 (e0 + b(t)/4)^2)."""
    if e0 < 0:
        raise InvalidInput("e0 must be >= 0")
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


def _expected_best_responses(a_samples: np.ndarray, b_t: np.ndarray,
                             tol: float, start: np.ndarray | None = None
                             ) -> np.ndarray:
    """For each grid reward b(t), solve E[A/(A+e)^2] b(t) = 1 for e >= 0,
    where A = e0 + E_-i ranges over the Monte Carlo opponent draws.

    E[A/(A+e)^2] <= 1/(4e) for any A-distribution, so every root lies in
    [0, b(t)/4]; a safeguarded Newton iteration stays inside that bracket
    and raises NoConvergence if it has not settled after NEWTON_STEPS steps.
    Each point starts from `start` (the previous best response) where that
    lies strictly inside its bracket, else from the bracket midpoint.
    """
    if np.all(a_samples > 0):
        participation = b_t * float(np.mean(1.0 / a_samples)) > 1.0
    else:
        # samples with zero opposition and e0 = 0 offer an unbounded marginal
        # reward, so participation holds wherever b(t) > 0
        participation = b_t > 0
    active = participation & (b_t > 0)
    e = np.zeros_like(b_t)
    if not np.any(active):
        return e
    b_act = b_t[active]
    lo = np.zeros(b_act.size)
    hi = 0.25 * b_act
    x = 0.5 * hi
    if start is not None:
        warm = start[active]
        x = np.where((warm > 0) & (warm < hi), warm, x)
    a = a_samples[:, None]
    # two mc x active buffers: 1/(A+x), then A/(A+x)^2 and A/(A+x)^3
    inv = np.empty((a.size, x.size))
    term = np.empty_like(inv)
    for _ in range(NEWTON_STEPS):
        np.reciprocal(np.add(a, x, out=inv), out=inv)
        np.multiply(inv, inv, out=term)
        term *= a
        g = b_act * term.mean(axis=0) - 1.0
        term *= inv
        gp = -2.0 * b_act * term.mean(axis=0)
        lo = np.where(g > 0, x, lo)
        hi = np.where(g < 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(gp < 0, x - g / gp, 0.5 * (lo + hi))
        x_new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        if change <= 1e-3 * tol:
            break
    else:
        raise NoConvergence("Newton best response did not converge", last=x,
                            residual=change, iterations=NEWTON_STEPS)
    e[active] = np.maximum(x, 0.0)
    return e


def _interp_operator(panel: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Dense M (mc x grid) with M @ e == np.interp(panel, times, e).sum(axis=1)
    for every effort grid e: row i holds the linear-interpolation weights of
    draw i's opponents, clamped to the end values outside the grid. Built
    one opponent column at a time from each draw's fractional knot position;
    within a column every draw has its own row, so no index repeats."""
    op = np.zeros((panel.shape[0], times.size))
    rows = np.arange(panel.shape[0])
    for col in panel.T:
        pos = np.interp(col, times, np.arange(times.size))
        k = np.minimum(pos.astype(int), times.size - 2)
        op[rows, k] += k + 1 - pos
        op[rows, k + 1] += pos - k
    return op


def _bne_condition_noise(a_samples: np.ndarray, grid: TypeGrid) -> float:
    """Largest relative standard error of the equilibrium-condition
    expectation across active grid points. Points whose effort is below
    1e-3 of the grid maximum are immaterial to the mechanism and excluded
    (near the participation cutoff the integrand is heavy-tailed and its
    relative error diverges even though the effort itself is ~0)."""
    active = grid.efforts > 1e-3 * float(np.max(grid.efforts, initial=0.0))
    if not np.any(active):
        return 0.0
    if a_samples.size < 2:
        return math.inf     # no standard error from fewer than 2 draws
    a = a_samples[:, None]
    vals = a / (a + grid.efforts[active][None, :]) ** 2
    mean = np.mean(vals, axis=0)
    stderr = np.std(vals, axis=0, ddof=1) / math.sqrt(a_samples.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(mean > 0, stderr / mean, 0.0)
    return float(np.max(rel))


def _iterate_grid_bne(times: np.ndarray, b_t: np.ndarray,
                      opp_panel: np.ndarray, e0: float) -> TypeGrid:
    """Best-response iteration on the type grid against a fixed panel of
    opponent draws (common random numbers, so the best-response map G is
    deterministic).

    The panel enters G only through the opponent aggregates A = e0 + M e,
    which are linear in the effort grid e; the interpolation operator M is
    built once. The fixed point is found by depth-1 Anderson mixing (Walker
    & Ni, SIAM J. Numer. Anal. 49(4), 2011) with mixing weight
    beta = ANDERSON_WEIGHT: with the residual f = G(x) - x and the changes
    dx, df since the previous iterate,

        x <- max(x + beta f - gamma (dx + beta df), 0),
        gamma = (df . f) / (df . df),

    which is the plain damped step x + beta f when df . df = 0 (and at the
    first iterate). Each best response warm-starts its Newton solve from the
    previous one. Returns G(x) once ||G(x) - x||_inf <= BNE_TOL; raises
    NoConvergence with the last iterate after BNE_STEPS best responses and
    MonteCarloNoise when the panel is too small for the result. A panel
    without opponent columns leaves a lone contributor against nature, whose
    effort max(sqrt(b(t) e0) - e0, 0) is returned in closed form.
    """
    if opp_panel.shape[1] == 0:
        return TypeGrid(times, np.maximum(np.sqrt(b_t * e0) - e0, 0.0), b_t)
    op = _interp_operator(opp_panel, times)
    beta = ANDERSON_WEIGHT
    x = np.where(b_t > e0, 0.25 * b_t, 0.0)
    br = x_prev = f_prev = None
    residual = math.inf
    for _ in range(BNE_STEPS):
        br = _expected_best_responses(e0 + op @ x, b_t, BNE_TOL, br)
        f = br - x
        residual = float(np.max(np.abs(f)))
        if residual <= BNE_TOL:
            break
        step = beta * f
        if f_prev is not None:
            df = f - f_prev
            df_df = float(df @ df)
            if df_df > 0:
                step -= float(df @ f) / df_df * (x - x_prev + beta * df)
        x_prev, f_prev = x, f
        x = np.maximum(x + step, 0.0)
    else:
        raise NoConvergence("grid BNE iteration stalled", last=x,
                            residual=residual, iterations=BNE_STEPS)

    grid = TypeGrid(times, br, b_t)
    noise = _bne_condition_noise(e0 + op @ br, grid)
    if not noise <= MC_NOISE_LIMIT:
        raise MonteCarloNoise(
            f"relative stderr {noise:.3f} of the BNE expectation exceeds "
            f"{MC_NOISE_LIMIT:.0%}; increase mc_samples")
    return grid


def _solve_grid_bne(config: BayesianConfig, grid_size: int, mc_samples: int,
                    seed: RngSeed) -> TypeGrid:
    """Grid BNE of a closed config on a quantile-spaced grid, against a panel
    of N-1 opponent types drawn from the prior."""
    times = _grid_times(config.join_model, grid_size)
    n_opp = config.n_players - 1
    rng = spawn_rng(seed, 0x5e11)
    opp_types = config.join_model.sample(rng, mc_samples * n_opp) \
        .reshape(mc_samples, n_opp)
    return _iterate_grid_bne(times, reward_schedule(config, times), opp_types,
                             config.nature_effort)


def solve_bne_earliest_n(config: BayesianConfig, grid_size: int = 64,
                         mc_samples: int = 20_000, seed: RngSeed = 0) -> TypeGrid:
    """Stage-II BNE of the earliest-n strategy on a quantile-spaced grid."""
    if not isinstance(config.strategy, EarliestN):
        raise InvalidInput("config.strategy must be EarliestN")
    return _solve_grid_bne(config, grid_size, mc_samples, seed)


def solve_bne_linear(config: BayesianConfig, grid_size: int = 64,
                     mc_samples: int = 20_000, seed: RngSeed = 0) -> TypeGrid:
    """Stage-II BNE of the linearly-decreasing strategy (same machinery as
    earliest-n with b(t) = max(0, b - h t))."""
    if not isinstance(config.strategy, LinearDecay):
        raise InvalidInput("config.strategy must be LinearDecay")
    return _solve_grid_bne(config, grid_size, mc_samples, seed)


def participation_threshold(grid: TypeGrid, config: BayesianConfig) -> float:
    """Earliest grid time beyond which equilibrium effort is identically 0
    (the support maximum when every type stays active)."""
    active = grid.efforts > 0
    if not np.any(active):
        return float(grid.times[0])
    last_active = int(np.max(np.flatnonzero(active)))
    if last_active == grid.times.size - 1:
        return float(grid.times[-1])
    return float(grid.times[last_active + 1])


def threshold_analytic_bound(config: BayesianConfig, grid_size: int = 2048) -> float:
    """Upper bound on the participation threshold: the time where the reward
    schedule b(t) falls to the nature effort e0."""
    times = _grid_times(config.join_model, grid_size)
    b_t = reward_schedule(config, times)
    e0 = config.nature_effort
    below = b_t <= e0
    if below[0]:
        return float(times[0])
    if not np.any(below):
        return float(times[-1])
    k = int(np.argmax(below))
    return float(times[k])


# ---------------------------------------------------------------------------
# Termination-time strategy (scalar symmetric BNE, closed-form Stage I)
# ---------------------------------------------------------------------------

def _binom_pmf(k: np.ndarray, m: int, p: float) -> np.ndarray:
    return np.array([math.comb(m, int(j)) for j in k]) * p ** k * (1 - p) ** (m - k)


def _termination_effort(pk: np.ndarray, b: float, e0: float) -> float:
    """Symmetric in-time effort against k in-time opponents, k ~ pk[k]: the
    root of
        sum_k pk[k] b (e0 + k e) / (e0 + (k+1) e)^2 = 1,
    whose left side is strictly decreasing in e, by bisection on
    [1e-12 b, b]. Returns 0 when even effort 1e-12 b cannot break even: when
    b <= e0, when e0 = 0 and no opponent is ever in time (any positive
    effort then wins b), and when the root lies below 1e-12 b."""
    k = np.arange(pk.size)

    def lhs_minus_one(e: float) -> float:
        return float(np.sum(pk * b * (e0 + k * e) / (e0 + (k + 1) * e) ** 2)) - 1.0

    lo = 1e-12 * b
    if lhs_minus_one(lo) < 0:
        return 0.0
    return bisect(lhs_minus_one, lo, b, TERMINATION_TOL)


def solve_bne_termination(n_players: int, p: float, b: float, e0: float) -> float:
    """Symmetric BNE effort of the termination-time strategy: p = F(T) is the
    probability an opponent joins in time, so the number of in-time
    opponents is Binomial(N-1, p)."""
    if n_players < 1:
        raise InvalidInput("n_players must be >= 1")
    if not 0 <= p <= 1:
        raise InvalidInput("p must lie in [0, 1]")
    if b <= 0 or e0 < 0:
        raise InvalidInput("need b > 0 and e0 >= 0")
    pk = _binom_pmf(np.arange(n_players), n_players - 1, p)
    return _termination_effort(pk, b, e0)


def termination_effort_e0_zero(n_players: int, p: float, b: float) -> float:
    """Closed form at e0 = 0: e* = sum_k P(k, N-1) k b / (k+1)^2."""
    k = np.arange(n_players)
    pk = _binom_pmf(k, n_players - 1, p)
    return float(np.sum(pk * k * b / (k + 1) ** 2))


def _termination_report(deadline: float, b: float, e0: float, e_star: float,
                        pm: np.ndarray, w_bar: float) -> StageOneReport:
    """Stage-I metrics of a termination strategy with in-time effort e*, from
    the pmf pm[m-1] of the in-time count m = 1, 2, ... and the mean weight
    w_bar of an in-time contributor:
        E[U] = sum_m P(m) m e* w_bar,
        E[R] = sum_m P(m) b m e* / (e0 + m e*),
        E[Eff] = sum_m P(m) (e0 + m e*) w_bar / b.
    The empty contest (m = 0) pays nothing and counts as zero efficiency."""
    m = np.arange(1, pm.size + 1)
    utility = float(np.sum(pm * m * e_star)) * w_bar
    payment = float(np.sum(pm * b * m * e_star / (e0 + m * e_star))) \
        if e_star > 0 else 0.0
    efficiency = float(np.sum(pm * (e0 + m * e_star))) * w_bar / b
    return StageOneReport(parameter=deadline, calibrated_b=b,
                          expected_utility=utility,
                          expected_payment=payment, payment_stderr=0.0,
                          expected_efficiency=efficiency, efficiency_stderr=0.0)


def stage1_metrics_termination(config: BayesianConfig,
                               e_star: float | None = None) -> StageOneReport:
    """Closed-form Stage-I metrics for the termination strategy: the in-time
    count is Binomial(N, p) with p = F(T), and the mean in-time weight comes
    from quantile-midpoint quadrature of w under F on [0, T]. This gives the
    paper's E[U] = e* N Iwf and E[Eff] = (e0/(b p) (1-(1-p)^N) + N e*/b) Iwf
    with Iwf = int_0^T w f dt."""
    if not isinstance(config.strategy, Termination):
        raise InvalidInput("config.strategy must be Termination")
    t_end = config.strategy.deadline
    b, e0, n = config.max_reward, config.nature_effort, config.n_players
    p = float(config.join_model.cdf(t_end))
    if e_star is None:
        e_star = solve_bne_termination(n, p, b, e0)
    us = (np.arange(QUAD_POINTS) + 0.5) / QUAD_POINTS * p
    w_bar = float(np.mean(config.weightfn(config.join_model.quantile(us))))
    pm = _binom_pmf(np.arange(1, n + 1), n, p)
    return _termination_report(t_end, b, e0, e_star, pm, w_bar)


# ---------------------------------------------------------------------------
# Stage-I Monte Carlo metrics (earliest-n / linear decay)
# ---------------------------------------------------------------------------

def _realized_rewards(config: BayesianConfig, draws: np.ndarray) -> np.ndarray:
    """Per-draw, per-player realized maximum rewards. Earliest-n rewards the
    n smallest joining times of each draw (order statistics); linear decay
    evaluates b(t) directly."""
    s = config.strategy
    b = config.max_reward
    if isinstance(s, EarliestN):
        out = np.zeros_like(draws)
        if s.n >= config.n_players:
            out[:] = b
        else:
            idx = np.argpartition(draws, s.n - 1, axis=1)[:, :s.n]
            np.put_along_axis(out, idx, b, axis=1)
        return out
    if isinstance(s, LinearDecay):
        return np.maximum(b - s.velocity * draws, 0.0)
    return np.where(draws <= s.deadline, b, 0.0)


def _mc_metrics(efforts: np.ndarray, paid: np.ndarray, util_draw: np.ndarray,
                e0: float) -> dict:
    """Payment and efficiency means with their standard errors over Monte
    Carlo draws (rows of `efforts`), as StageOneReport fields: a draw pays
    paid / (e0 + sum of efforts) and scores util_draw (e0 + sum of efforts) /
    paid, with zero efficiency charged when nothing is paid out. A standard
    error needs at least 2 draws."""
    mc_samples = efforts.shape[0]
    if mc_samples < 2:
        raise InvalidInput(f"need at least 2 Monte Carlo draws, got {mc_samples}")
    denom = e0 + np.sum(efforts, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        payment = np.where(denom > 0, paid / denom, 0.0)
        eff = np.where(paid > 0, util_draw * denom / paid, 0.0)
    return dict(
        expected_payment=float(np.mean(payment)),
        payment_stderr=float(np.std(payment, ddof=1) / math.sqrt(mc_samples)),
        expected_efficiency=float(np.mean(eff)),
        efficiency_stderr=float(np.std(eff, ddof=1) / math.sqrt(mc_samples)))


def stage1_metrics_mc(config: BayesianConfig, grid: TypeGrid,
                      mc_samples: int = 100_000, seed: RngSeed = 1) -> StageOneReport:
    """Stage-I metrics by Monte Carlo over joint type draws.

    E[U] comes from 1-d quantile quadrature of N w(t) e*(t) f(t); the payment
    and efficiency expectations average the per-draw reward allocation.
    """
    n = config.n_players
    us = (np.arange(QUAD_POINTS) + 0.5) / QUAD_POINTS
    ts = config.join_model.quantile(us)
    utility = n * float(np.mean(np.asarray(config.weightfn(ts)) * grid.interp(ts)))

    rng = spawn_rng(seed, 0x51a6e1)
    draws = config.join_model.sample(rng, mc_samples * n).reshape(mc_samples, n)
    efforts = grid.interp(draws)
    paid = np.sum(efforts * _realized_rewards(config, draws), axis=1)
    util_draw = np.sum(np.asarray(config.weightfn(draws)) * efforts, axis=1)
    return StageOneReport(parameter=_strategy_parameter(config.strategy),
                          calibrated_b=config.max_reward, expected_utility=utility,
                          **_mc_metrics(efforts, paid, util_draw,
                                        config.nature_effort))


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
                assume_linear: bool = True, b_max: float = 1e9,
                max_steps: int = 200) -> tuple[float, object]:
    """Reward scale b* with |E[R](b*) - B| <= max(1e-3 B, 2 stderr), and the
    caller's result at b*.

    payment_at(b) -> (mean, stderr, result); returns (b*, result) of the
    evaluation that met the tolerance, so that evaluation is both the check
    and the report. With assume_linear (a model homogeneous in b) the
    evaluation at b_hint pins b* = b_hint B / E[R](b_hint) and one more
    evaluation at b* checks it: InfeasibleBudget if E[R](b_hint) <= 0,
    NoConvergence (with b* and the residual) if the check misses. Otherwise
    a bracketing search (doubling or halving, then secant steps safeguarded
    by bisection) runs until an evaluation meets the tolerance.
    """
    if not budget > 0:
        raise InvalidInput("budget must be > 0")
    if assume_linear:
        mean, _, _ = payment_at(b_hint)
        if not mean > 0:
            raise InfeasibleBudget(f"expected payment {mean:.4g} at b={b_hint:.4g} "
                                   f"cannot be scaled to budget {budget:.4g}")
        b_star = b_hint * budget / mean
        mean, se, result = payment_at(b_star)
        if abs(mean - budget) > budget_tolerance(budget, se):
            raise NoConvergence("expected payment does not scale linearly in b",
                                last=b_star, residual=abs(mean - budget),
                                iterations=2)
        return b_star, result

    lo, lo_val = None, None
    hi, hi_val = None, None
    b = b_hint
    for _ in range(max_steps):
        mean, se, result = payment_at(b)
        if abs(mean - budget) <= budget_tolerance(budget, se):
            return b, result
        if mean < budget:
            lo, lo_val = b, mean
            if hi is None:
                b *= 2.0
                if b > b_max:
                    raise InfeasibleBudget(
                        f"expected payment {mean:.4g} at b={b / 2:.4g} still below "
                        f"budget {budget:.4g}")
                continue
        else:
            hi, hi_val = b, mean
            if lo is None:
                b /= 2.0
                continue
        b = lo + (hi - lo) * (budget - lo_val) / max(hi_val - lo_val, 1e-300)
        if not lo < b < hi:
            b = 0.5 * (lo + hi)
    raise NoConvergence("budget calibration stalled", last=b, residual=None,
                        iterations=max_steps)


def _payment_at(config, solve, stage1, rescale: bool):
    """calibrate_b's payment_at(b) -> (E[R], stderr, (solution, report)) for a
    closed or open config: solve(cfg) is the Stage-II solution at cfg's
    reward and stage1(cfg, solution) its Stage-I report. With `rescale` (the
    earliest-n grids, homogeneous in b) Stage II is solved once at the
    configured reward and scaled to each candidate b; otherwise it is
    re-solved at each candidate."""
    base = solve(config) if rescale else None

    def payment_at(b: float):
        cfg = config.with_reward(b)
        solution = base.scaled(b / config.max_reward) if rescale else solve(cfg)
        report = stage1(cfg, solution)
        return report.expected_payment, report.payment_stderr, (solution, report)
    return payment_at


def calibrated_stage1(config: BayesianConfig, grid_size: int = 64,
                      mc_samples: int = 20_000, stage1_samples: int = 100_000,
                      seed: RngSeed = 0) -> tuple[TypeGrid | float, StageOneReport]:
    """Solve Stage II, calibrate b to the budget, and report Stage-I metrics
    at the calibrated reward, together with the Stage-II solution there: the
    effort grid, or the flat in-time effort e* of a termination strategy.

    Earliest-n and termination systems scale linearly in b (the stored
    e0_ratio ties the nature effort to b); the earliest-n grid is solved once
    and rescaled. Linear decay re-solves per candidate because a fixed
    velocity breaks the scaling.
    """
    s = config.strategy
    if isinstance(s, Termination):
        p = float(config.join_model.cdf(s.deadline))
        payment_at = _payment_at(
            config,
            lambda cfg: solve_bne_termination(cfg.n_players, p, cfg.max_reward,
                                              cfg.nature_effort),
            stage1_metrics_termination, rescale=False)
    else:
        solve = solve_bne_earliest_n if isinstance(s, EarliestN) else solve_bne_linear
        payment_at = _payment_at(
            config, lambda cfg: solve(cfg, grid_size, mc_samples, seed),
            lambda cfg, grid: stage1_metrics_mc(cfg, grid, stage1_samples, seed + 1),
            rescale=isinstance(s, EarliestN))
    _, result = calibrate_b(payment_at, config.budget, b_hint=config.max_reward,
                            assume_linear=scales_with_reward(s))
    return result
