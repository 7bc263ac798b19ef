"""Open crowdsensing system: contributors arrive as a Poisson process and
compete under the earliest-n or termination-time strategy. The game, its
two-stage pipeline, its config and its strategy types are those of the
closed system (`bayesian_closed`); this module supplies only the open
system's prior (`PoissonPrior`): the arrival-sequence panels (the Stage-I
one sorted by construction), the meeting-count and in-time count pmfs and
the mean in-time weight, the Poisson head as the rewarded chance, and the
type grid of each solve with the opponents placed on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# calibrate_b is bound here too: the benchmark's call tracer wraps it by name
from .bayesian_closed import (BayesianConfig, EarliestN, Prior, Stage1Panel,
                              StageOneReport, Strategy, Termination, TerminationTables,
                              TypeGrid, calibrate_b, _calibrated, _check_finite,
                              _check_sizes, _interp_operator, _mc_report,
                              _solve_grid_bne, _termination_effort, _termination_report)
from .errors import InvalidInput, NoConvergence
from .numerics import RngSeed, bisect, spawn_rng
from .timing import PoissonModel, WeightFunction, poisson_pmf, sample_arrival_sequences

_TAIL_MASS = 1e-10


@dataclass(frozen=True)
class PoissonPrior(Prior):
    """An open system: Poisson arrivals truncated at M contributors."""

    poisson: PoissonModel
    names = "Poisson model"

    def admit(self, s: Strategy) -> None:
        if isinstance(s, EarliestN):
            if not 1 <= s.n <= self.poisson.truncation:
                raise InvalidInput("need 1 <= n <= truncation M")
        elif isinstance(s, Termination):
            if not s.deadline > 0:
                raise InvalidInput("deadline must be > 0")
        else:
            raise InvalidInput(f"open systems take EarliestN or Termination, got {s!r}")

    def draws(self, config: BayesianConfig, grid_size: int, mc_samples: int,
              stage1_samples: int, seed: RngSeed):
        """`BayesianConfig.draws`. The Stage-I panel: stage1_samples full
        M-epoch arrival sequences from the stream (seed + 1, 0x07e4), sorted
        as they arrive, with their weights, the epochs themselves its clock.
        The Stage-II opponents: mc_samples (M-1)-epoch arrival sequences from
        the stream (seed, 0x09e4), read-only, with the grid_size of the grids
        each solve places them on (`placed`). A termination config's tables:
        the meeting-count pmf P(k, inf) cut at the first k where its mass
        summed in order reaches 1 - _TAIL_MASS (within the first 2 rate T +
        64 terms by a Chernoff bound, and within 100 001 terms or
        NoConvergence), the Poisson(rate T) in-time pmf truncated at M, and
        the mean in-time weight integral_0^T w(x) dx / T of epochs uniform on
        [0, T]."""
        poisson = self.poisson
        if isinstance(config.strategy, Termination):
            deadline = config.strategy.deadline
            size = min(int(2.0 * poisson.rate * deadline) + 64, 100_001)
            pk = open_termination_prob(poisson.rate, deadline, np.arange(size))
            mass = np.cumsum(pk)
            if not mass[-1] >= 1.0 - _TAIL_MASS:
                raise NoConvergence("meeting-count pmf failed to accumulate mass",
                                    residual=1.0 - mass[-1], iterations=size)
            pk = pk[:int(np.argmax(mass >= 1.0 - _TAIL_MASS)) + 1]
            pm = poisson_pmf(poisson, deadline, np.arange(1, poisson.truncation + 1))
            w_bar = config.weightfn.integral(0.0, deadline) / deadline
            return TerminationTables(pk, pm, w_bar, config.draws_key)
        _check_sizes(grid_size, mc_samples, stage1_samples)
        epochs = sample_arrival_sequences(poisson, spawn_rng(seed + 1, 0x07e4),
                                          stage1_samples)
        panel = Stage1Panel(epochs, config.weightfn(epochs), epochs, key=config.draws_key)
        epochs = sample_arrival_sequences(poisson, spawn_rng(seed, 0x09e4), mc_samples,
                                          poisson.truncation - 1)
        epochs.setflags(write=False)
        return panel, OpenOpponents(grid_size, epochs, self)

    def rewarded(self, s: np.ndarray, n: int) -> np.ndarray:
        """P(N(s) <= n-1), the Poisson head at each epoch s, unvalidated."""
        return _poisson_head(self.poisson.rate * s, n)

    def placed(self, config: BayesianConfig, opponents: OpenOpponents):
        """The type grid of a solve, out past the participation region of
        the config's n (`_open_grid_times`), uniform from 0, and the
        opponents' epochs placed on it (`_interp_operator`)."""
        times = _open_grid_times(config, config.strategy.n, opponents.grid_size)
        return times, _interp_operator(opponents.epochs, times)

    def clock_grid(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solve grid of as many points as `times` out to their last,
        uniform from 0 (`_open_grid_times`): its nodes are epochs, on this
        prior's clock and in t alike."""
        nodes = np.linspace(0.0, times[-1], times.size)
        return nodes, nodes


def _check_rate(rate: float) -> None:
    """InvalidInput unless the arrival rate is finite and positive."""
    _check_finite(rate=rate)
    if not rate > 0:
        raise InvalidInput(f"rate must be > 0, got {rate!r}")


def open_earliest_n_prob(rate: float, s, n: int):
    """Probability that a contributor joining at epoch s is among the n
    earliest arrivals: P(N(s) <= n-1) = sum_{k<n} exp(-rate s)(rate s)^k/k!."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidInput(f"need an integer n >= 1, got n={n!r}")
    _check_rate(rate)
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr >= 0) & (s_arr < math.inf)):
        raise InvalidInput("s must be finite and >= 0")
    out = _poisson_head(rate * s_arr, n)
    return out if out.ndim else float(out)


def _poisson_head(lam, n: int):
    """P(Poisson(lam) <= n-1), unvalidated, clipped to [0, 1]."""
    term = np.exp(-lam)
    total = term.copy()
    for k in range(1, n):
        term = term * lam / k
        total += term
    return np.clip(total, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Earliest-n (open)
# ---------------------------------------------------------------------------

def _open_grid_times(config: BayesianConfig, n: int, grid_size: int) -> np.ndarray:
    """Grid reaching past the participation region: out to where the reward
    schedule falls below e0 (or to negligible selection probability when
    e0 = 0)."""
    rate, b, e0 = config.prior.poisson.rate, config.max_reward, config.nature_effort
    floor = max(min(e0 / b, 0.999) if e0 > 0 else 0.0, 1e-3)

    def gap(s):
        return float(config.prior.rewarded(s, n)) - floor

    hi = 1.0 / rate
    while gap(hi) > 0:
        hi *= 2.0
        if hi > 1e12 / rate:
            break
    s_max = bisect(gap, 0.0, hi, 1e-10) if gap(hi) <= 0 else hi
    return np.linspace(0.0, 1.25 * s_max, grid_size)


class OpenOpponents(NamedTuple):
    """Stage-II opponents drawn for an open `prior` (`PoissonPrior.draws`):
    the `grid_size` of the type grid each solve places them on, and the
    read-only (M-1)-epoch arrival sequences `epochs`, one per row."""

    grid_size: int
    epochs: np.ndarray
    prior: PoissonPrior


def solve_bne_open_earliest_n(config: BayesianConfig, opponents: OpenOpponents) -> TypeGrid:
    """Stage-II BNE with b(s) = b P(N(s) <= n-1) on a grid of
    `opponents.grid_size` points; after isolating the tagged contributor,
    opponents form a fresh (M-1)-epoch Poisson sequence, the rows of
    `opponents.epochs` (`config.draws`)."""
    return _solve_grid_bne(config, opponents, EarliestN)


def stage1_open_earliest_n(config: BayesianConfig, grid: TypeGrid,
                           panel: Stage1Panel) -> StageOneReport:
    """Stage-I metrics by Monte Carlo over the arrival sequences of `panel`
    (`config.draws`). The earliest-n subset of a sequence is simply its
    first n epochs (`_mc_report`)."""
    if not isinstance(config.strategy, EarliestN):
        raise InvalidInput("config.strategy must be EarliestN")
    return _mc_report(config, grid, panel)


# ---------------------------------------------------------------------------
# Termination time (open)
# ---------------------------------------------------------------------------

def open_termination_prob(rate: float, deadline: float, k) -> float | np.ndarray:
    """Probability that a contributor who joined before the deadline meets k
    other in-time contributors:
        P(k, inf) = exp(-rate T)(rate T)^{k+1} / ((k+1)! (1 - exp(-rate T))),
    a unit-mass distribution over k >= 0."""
    _check_rate(rate)
    _check_finite(deadline=deadline)
    lam_t = rate * deadline
    if not 0 < lam_t < math.inf:
        raise InvalidInput(f"rate * deadline must be finite and > 0, got {lam_t!r}")
    k_arr = np.asarray(k)
    if not np.all(np.isfinite(k_arr) & (k_arr >= 0) & (k_arr == np.round(k_arr))):
        raise InvalidInput(f"k must be integers >= 0, got {k!r}")
    log_p = (k_arr + 1.0) * math.log(lam_t) - lam_t \
        - np.array([math.lgamma(j + 2.0) for j in np.ravel(k_arr).tolist()]
                   ).reshape(k_arr.shape) - math.log(-math.expm1(-lam_t))
    out = np.exp(log_p)
    return out if out.ndim else float(out)


def solve_bne_open_termination(config: BayesianConfig, tables: TerminationTables) -> float:
    """Symmetric in-time effort against the in-time opponent pmf of `tables`
    (`config.draws`)."""
    if not isinstance(config.strategy, Termination):
        raise InvalidInput("config.strategy must be Termination")
    config._check_drawn_for("tables", tables.key)
    return _termination_effort(tables.opponents, config.max_reward, config.e0_ratio)


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


def stage1_open_termination(config: BayesianConfig, e_star: float,
                            tables: TerminationTables) -> StageOneReport:
    """Closed-form Stage-I metrics for the open termination strategy at
    in-time effort e* from its `tables` (`config.draws`)."""
    return _termination_report(config, e_star, tables)


def calibrated_open_stage1(config: BayesianConfig,
                           draws: tuple[Stage1Panel, OpenOpponents] | TerminationTables
                           ) -> tuple[TypeGrid | float, StageOneReport]:
    """Budget-calibrated Stage-I report with the Stage-II solution at the
    calibrated reward (`_calibrated`): the effort grid, or the in-time effort
    e* of the termination strategy. Both open strategies scale linearly in b
    (e0 tracks b), so each stage runs once, at the configured reward, and its
    result is scaled to b*. Both stages run on `draws` (`config.draws`), as
    in `calibrated_stage1`."""
    if isinstance(config.strategy, Termination):
        return _calibrated(config, draws, solve_bne_open_termination,
                           stage1_open_termination)
    return _calibrated(config, draws, solve_bne_open_earliest_n, stage1_open_earliest_n)
