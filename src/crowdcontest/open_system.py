"""Open crowdsensing system: contributors arrive as a Poisson process and
compete under the earliest-n or termination-time strategy. The game and its
two-stage pipeline are those of the closed system (`bayesian_closed`); this
module supplies only the open system's prior: the Poisson type grid, the
arrival-sequence panels, the meeting-count and in-time count pmfs and the
mean in-time weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bayesian_closed import (StageOneReport, TypeGrid, calibrate_b, _iterate_grid_bne,
                              _mc_metrics, _payment_at, _termination_effort,
                              _termination_report)
from .errors import InvalidInput, NoConvergence
from .numerics import RngSeed, bisect, spawn_rng
from .timing import (ConstantWeight, PoissonModel, WeightFunction, poisson_pmf,
                     sample_arrival_sequences)

_TAIL_MASS = 1e-10


@dataclass(frozen=True)
class OpenEarliestN:
    n: int


@dataclass(frozen=True)
class OpenTermination:
    deadline: float


@dataclass(frozen=True)
class OpenConfig:
    """Open-system instance: Poisson arrivals truncated at M contributors."""

    poisson: PoissonModel
    strategy: OpenEarliestN | OpenTermination
    weightfn: WeightFunction = ConstantWeight()
    max_reward: float = 1.0
    e0_ratio: float = 0.0
    budget: float = 1.0

    def __post_init__(self):
        s = self.strategy
        if isinstance(s, OpenEarliestN):
            if not 1 <= s.n <= self.poisson.truncation:
                raise InvalidInput("need 1 <= n <= truncation M")
        elif isinstance(s, OpenTermination):
            if not s.deadline > 0:
                raise InvalidInput("deadline must be > 0")
        else:
            raise InvalidInput(f"unknown strategy {s!r}")
        if not self.max_reward > 0 or self.e0_ratio < 0 or not self.budget > 0:
            raise InvalidInput("need max_reward > 0, e0_ratio >= 0, budget > 0")

    @property
    def nature_effort(self) -> float:
        return self.e0_ratio * self.max_reward

    def with_reward(self, b: float) -> "OpenConfig":
        return replace(self, max_reward=b)


def open_earliest_n_prob(rate: float, s, n: int):
    """Probability that a contributor joining at epoch s is among the n
    earliest arrivals: P(N(s) <= n-1) = sum_{k<n} exp(-rate s)(rate s)^k/k!."""
    if rate <= 0 or n < 1:
        raise InvalidInput("need rate > 0 and n >= 1")
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise InvalidInput("s must be >= 0")
    lam_s = rate * s_arr
    term = np.exp(-lam_s)
    total = term.copy()
    for k in range(1, n):
        term = term * lam_s / k
        total += term
    out = np.clip(total, 0.0, 1.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Earliest-n (open)
# ---------------------------------------------------------------------------

def _open_grid_times(config: OpenConfig, n: int, grid_size: int) -> np.ndarray:
    """Grid reaching past the participation region: out to where the reward
    schedule falls below e0 (or to negligible selection probability when
    e0 = 0)."""
    rate, b, e0 = config.poisson.rate, config.max_reward, config.nature_effort
    floor = min(e0 / b, 0.999) if e0 > 0 else 0.0
    floor = max(floor, 1e-3)

    def gap(s):
        return open_earliest_n_prob(rate, s, n) - floor

    hi = 1.0 / rate
    while gap(hi) > 0:
        hi *= 2.0
        if hi > 1e12 / rate:
            break
    s_max = bisect(gap, 0.0, hi, 1e-10) if gap(hi) <= 0 else hi
    return np.linspace(0.0, 1.25 * s_max, grid_size)


def solve_bne_open_earliest_n(config: OpenConfig, grid_size: int = 64,
                              mc_samples: int = 20_000, seed: RngSeed = 0
                              ) -> TypeGrid:
    """Stage-II BNE with b(s) = b P(N(s) <= n-1); after isolating the tagged
    contributor, opponents form a fresh (M-1)-epoch Poisson sequence."""
    if not isinstance(config.strategy, OpenEarliestN):
        raise InvalidInput("config.strategy must be OpenEarliestN")
    n = config.strategy.n
    times = _open_grid_times(config, n, grid_size)
    b_t = config.max_reward * open_earliest_n_prob(config.poisson.rate, times, n)
    rng = spawn_rng(seed, 0x09e4)
    opp_epochs = sample_arrival_sequences(config.poisson, rng, mc_samples,
                                          config.poisson.truncation - 1)
    return _iterate_grid_bne(times, b_t, opp_epochs, config.nature_effort)


def stage1_open_earliest_n(config: OpenConfig, grid: TypeGrid,
                           mc_samples: int = 100_000, seed: RngSeed = 1
                           ) -> StageOneReport:
    """Stage-I metrics by Monte Carlo over full M-epoch arrival sequences.
    The earliest-n subset of a sequence is simply its first n epochs."""
    if not isinstance(config.strategy, OpenEarliestN):
        raise InvalidInput("config.strategy must be OpenEarliestN")
    n = config.strategy.n
    b = config.max_reward
    rng = spawn_rng(seed, 0x07e4)
    epochs = sample_arrival_sequences(config.poisson, rng, mc_samples)
    efforts = np.interp(epochs, grid.times, grid.efforts)
    util_draw = np.sum(np.asarray(config.weightfn(epochs)) * efforts, axis=1)
    paid = b * np.sum(efforts[:, :n], axis=1)
    return StageOneReport(parameter=float(n), calibrated_b=b,
                          expected_utility=float(np.mean(util_draw)),
                          **_mc_metrics(efforts, paid, util_draw,
                                        config.nature_effort))


# ---------------------------------------------------------------------------
# Termination time (open)
# ---------------------------------------------------------------------------

def open_termination_prob(rate: float, deadline: float, k) -> float | np.ndarray:
    """Probability that a contributor who joined before the deadline meets k
    other in-time contributors:
        P(k, inf) = exp(-rate T)(rate T)^{k+1} / ((k+1)! (1 - exp(-rate T))),
    a unit-mass distribution over k >= 0."""
    lam_t = rate * deadline
    if lam_t <= 0:
        raise InvalidInput("rate * deadline must be > 0")
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise InvalidInput("k must be >= 0")
    log_p = (k_arr + 1.0) * math.log(lam_t) - lam_t \
        - np.array([math.lgamma(j + 2.0) for j in np.atleast_1d(k_arr)]
                   ).reshape(k_arr.shape) - math.log(-math.expm1(-lam_t))
    out = np.exp(log_p)
    return out if out.ndim else float(out)


def _truncated_meeting_pmf(rate: float, deadline: float) -> np.ndarray:
    """P(k, inf) for k = 0.. until the tail mass drops below 1e-10."""
    pmf = []
    total = 0.0
    k = 0
    while total < 1.0 - _TAIL_MASS:
        pmf.append(float(open_termination_prob(rate, deadline, k)))
        total += pmf[-1]
        k += 1
        if k > 100_000:
            raise NoConvergence("meeting-count pmf failed to accumulate mass",
                                residual=1.0 - total, iterations=k)
    return np.asarray(pmf)


def solve_bne_open_termination(config: OpenConfig) -> float:
    """Symmetric in-time effort against the truncated meeting-count pmf
    P(k, inf)."""
    if not isinstance(config.strategy, OpenTermination):
        raise InvalidInput("config.strategy must be OpenTermination")
    pk = _truncated_meeting_pmf(config.poisson.rate, config.strategy.deadline)
    return _termination_effort(pk, config.max_reward, config.nature_effort)


def open_termination_conditional_eff(m: int, e_star: float, b: float,
                                     deadline: float, weightfn: WeightFunction,
                                     e0: float) -> float:
    """Requester efficiency conditioned on m in-time arrivals, collapsed to
    (e0 + m e*) / (b T) * integral_0^T w(x) dx; zero when nobody showed up."""
    if m < 0:
        raise InvalidInput("m must be >= 0")
    if m == 0:
        return 0.0
    if b <= 0 or deadline <= 0:
        raise InvalidInput("need b > 0 and deadline > 0")
    return (e0 + m * e_star) / (b * deadline) * weightfn.integral(0.0, deadline)


def stage1_open_termination(config: OpenConfig, e_star: float | None = None
                            ) -> StageOneReport:
    """Closed-form Stage-I metrics for the open termination strategy: the
    in-time count is Poisson(rate T), truncated at M, and in-time joining
    epochs are uniform on [0, T], so the mean in-time weight is
    integral_0^T w(x) dx / T."""
    if not isinstance(config.strategy, OpenTermination):
        raise InvalidInput("config.strategy must be OpenTermination")
    t_end = config.strategy.deadline
    if e_star is None:
        e_star = solve_bne_open_termination(config)
    pm = poisson_pmf(config.poisson, t_end, np.arange(1, config.poisson.truncation + 1))
    w_bar = config.weightfn.integral(0.0, t_end) / t_end
    return _termination_report(t_end, config.max_reward, config.nature_effort,
                               e_star, pm, w_bar)


def calibrated_open_stage1(config: OpenConfig, grid_size: int = 64,
                           mc_samples: int = 20_000, stage1_samples: int = 100_000,
                           seed: RngSeed = 0) -> tuple[TypeGrid | float, StageOneReport]:
    """Budget-calibrated Stage-I report with the Stage-II solution at the
    calibrated reward: the effort grid, or the in-time effort e* of the
    termination strategy (both open strategies scale linearly in b because
    e0 tracks b)."""
    if isinstance(config.strategy, OpenTermination):
        payment_at = _payment_at(config, solve_bne_open_termination,
                                 stage1_open_termination, rescale=False)
    else:
        payment_at = _payment_at(
            config,
            lambda cfg: solve_bne_open_earliest_n(cfg, grid_size, mc_samples, seed),
            lambda cfg, grid: stage1_open_earliest_n(cfg, grid, stage1_samples,
                                                     seed + 1),
            rescale=True)
    _, result = calibrate_b(payment_at, config.budget, b_hint=config.max_reward)
    return result
