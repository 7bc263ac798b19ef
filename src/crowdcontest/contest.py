"""Complete-information Tullock contest: contest success function, payoffs,
Nash equilibrium search, identical-reward closed forms, requester efficiency
and the budget-constrained optimal reward vector.

Conventions: efforts and rewards share one unit (marginal cost of effort is
normalized to 1). The "nature" effort e0 is a virtual participant that lets
the requester keep part of the reward; a contributor with max reward b_i <=
e0 never participates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleBudget, InvalidInput, NumericalError

NE_RESIDUAL_TOL = 1e-7
#: step cap and damping of the normalized stationarity map in `_ray_scale`
RAY_STEPS = 10_000
RAY_DAMPING = 0.5


@dataclass(frozen=True)
class ContestConfig:
    """One contest instance: per-player maximum rewards, nature effort, budget."""

    max_rewards: np.ndarray
    nature_effort: float = 0.0
    budget: float = 1.0

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.max_rewards, dtype=float))
        object.__setattr__(self, "max_rewards", b)
        if b.size < 1:
            raise InvalidInput("need at least one player")
        if np.any(b < 0) or not np.all(np.isfinite(b)):
            raise InvalidInput("max rewards must be finite and >= 0")
        if self.nature_effort < 0:
            raise InvalidInput("nature effort must be >= 0")
        if not self.budget > 0:
            raise InvalidInput("budget must be > 0")

    @property
    def n_players(self) -> int:
        return int(self.max_rewards.size)


@dataclass(frozen=True)
class EffortProfile:
    """Effort vector plus the induced participant set.

    `degenerate` flags profiles where no contributor exerts positive effort
    (everyone priced out by e0, or a lone player facing e0 = 0 whose
    supremum payoff is not attained).
    """

    efforts: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.efforts, dtype=float))
        object.__setattr__(self, "efforts", e)
        if np.any(e < 0):
            raise InvalidInput("efforts must be >= 0")

    @property
    def participants(self) -> np.ndarray:
        return np.flatnonzero(self.efforts > 0)

    @property
    def total(self) -> float:
        return float(np.sum(self.efforts))


@dataclass(frozen=True)
class MechanismReport:
    """Requester-side metrics: utility U, payment R, efficiency U/R, gain."""

    utility: float
    payment: float
    efficiency: float
    gain: float | None = None
    degenerate: bool = False


def validate_weight_vector(weights, *, time_ordered: bool = False) -> np.ndarray:
    """Check a requester weight vector: nonnegative, and nonincreasing when
    the indices follow joining-time order."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be finite and >= 0")
    if time_ordered and np.any(np.diff(w) > 1e-12):
        raise InvalidInput("time-ordered weights must be nonincreasing")
    return w


def csf_reward(config: ContestConfig, profile: EffortProfile, i: int) -> float:
    """Reward share of player i: e_i b_i / (e0 + sum_j e_j), with the 0/0
    convention that zero aggregate effort (and e0 = 0) pays nobody."""
    e = profile.efforts
    denom = config.nature_effort + float(np.sum(e))
    if denom == 0.0:
        return 0.0
    return float(e[i] * config.max_rewards[i] / denom)


def payoff(config: ContestConfig, profile: EffortProfile, i: int) -> float:
    """Player i's payoff: reward share minus effort cost."""
    return csf_reward(config, profile, i) - float(profile.efforts[i])


def best_response(config: ContestConfig, opponents_total: float, i: int) -> float:
    """max{ sqrt(b_i (e0 + E_-i)) - (e0 + E_-i), 0 }."""
    if opponents_total < 0:
        raise InvalidInput("opponents_total must be >= 0")
    base = config.nature_effort + opponents_total
    return max(math.sqrt(config.max_rewards[i] * base) - base, 0.0)


def _aggregate_effort(b_active: np.ndarray, e0: float) -> float:
    """e0 + E at an interior NE of the active set (sum-term closed form)."""
    n = b_active.size
    inv_sum = float(np.sum(1.0 / b_active))
    return ((n - 1) + math.sqrt((n - 1) ** 2 + 4.0 * inv_sum * e0)) / (2.0 * inv_sum)


def solve_ne(config: ContestConfig) -> EffortProfile:
    """Unique pure NE via descending-reward elimination.

    Assume all players active, compute the closed-form aggregate and the
    implied efforts e_i = X - X^2/b_i with X = e0 + E; any negative effort
    means the players tied at the current smallest reward cannot participate,
    so drop them and repeat. Ties are removed as one block.
    """
    b = config.max_rewards
    e0 = config.nature_effort
    order = np.argsort(-b, kind="stable")
    efforts = np.zeros_like(b)

    active = [int(i) for i in order if b[i] > 0 and b[i] > e0]
    while active:
        b_active = b[active]
        x = _aggregate_effort(b_active, e0)
        cand = x - x * x / b_active
        if np.all(cand >= 0):
            if np.any(cand > 0):
                efforts[active] = cand
            break
        b_min = float(b_active.min())
        active = [i for i in active if b[i] > b_min]

    profile = EffortProfile(efforts=efforts, degenerate=not np.any(efforts > 0))
    _check_ne_fixed_point(config, profile)
    return profile


def _check_ne_fixed_point(config: ContestConfig, profile: EffortProfile) -> None:
    if profile.degenerate:
        return
    e = profile.efforts
    total = float(np.sum(e))
    for i in range(config.n_players):
        br = best_response(config, total - float(e[i]), i)
        if abs(br - e[i]) > NE_RESIDUAL_TOL:
            raise NumericalError(
                f"NE verification failed at player {i}: |BR - e| = {abs(br - e[i]):.3e}")


def symmetric_ne(n: int, b: float, e0: float) -> float:
    """NE effort when the n rewarded players share an identical max reward b:
    e* = ((n-1)b - 2 e0 n + sqrt((n-1)^2 b^2 + 4 e0 b n)) / (2 n^2), floored at 0."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if b < 0:
        raise InvalidInput("b must be >= 0")
    if e0 < 0:
        raise InvalidInput("e0 must be >= 0")
    if b == 0.0:
        return 0.0
    root = math.sqrt((n - 1) ** 2 * b * b + 4.0 * e0 * b * n)
    return max(((n - 1) * b - 2.0 * e0 * n + root) / (2.0 * n * n), 0.0)


def efficiency_identical(n: int, b: float, e0: float, weights) -> float:
    """Requester efficiency with n identical-reward participants:
    E(n) = (sum_{i<=n} w_i) / (2 n^2) * (n - 1 + sqrt((n-1)^2 + 4 e0 n / b)).

    `weights` may be longer than n; only the first n entries (the rewarded,
    i.e. earliest, contributors) enter the sum.
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if not b > 0:
        raise InvalidInput("b must be > 0")
    if e0 < 0:
        raise InvalidInput("e0 must be >= 0")
    w = validate_weight_vector(weights)
    if w.size < n:
        raise InvalidInput(f"need at least n={n} weights, got {w.size}")
    w_sum = float(np.sum(w[:n]))
    return w_sum / (2.0 * n * n) * ((n - 1) + math.sqrt((n - 1) ** 2 + 4.0 * e0 * n / b))


def report(config: ContestConfig, profile: EffortProfile, weights) -> MechanismReport:
    """Requester metrics at a profile: U = sum w_i e_i, R = sum of reward
    shares, efficiency U/R (zero when nothing is paid out)."""
    w = validate_weight_vector(weights)
    if w.size != config.n_players:
        raise InvalidInput("one weight per player required")
    e = profile.efforts
    utility = float(np.dot(w, e))
    denom = config.nature_effort + float(np.sum(e))
    payment = float(np.dot(config.max_rewards, e) / denom) if denom > 0 else 0.0
    efficiency = utility / payment if payment > 0 else 0.0
    return MechanismReport(utility=utility, payment=payment, efficiency=efficiency,
                           degenerate=profile.degenerate)


def discrimination_gain_case2(n_players: int) -> float:
    """Efficiency gain of the rule "reward only the earliest two" when the
    requester values only the two earliest contributions: N^2 / (4 (N-1))."""
    if n_players < 2:
        raise InvalidInput("need at least two players")
    return n_players * n_players / (4.0 * (n_players - 1))


# ---------------------------------------------------------------------------
# Optimal reward discrimination (e0 = 0), Lagrangian with multiplier search
# ---------------------------------------------------------------------------
#
# With e0 = 0 the NE utility and payment are both homogeneous of degree 1 in
# the reward vector, so the stationarity system
#     b_i = X * sqrt(((P + mu n)/(n-1) + w_i) / mu),
#     X = (n-1)/sum_j 1/b_j,   P = sum_j w_j (1 - 2 X / b_j),
# pins only the *direction* of b; Euler's identity forces the multiplier to
# equal the achieved efficiency. We therefore iterate the map on max-
# normalized vectors, bisect mu until the map's scale factor is exactly 1,
# and let the budget constraint set the physical scale afterwards.


def _payment_e0_zero(b: np.ndarray) -> float:
    n = b.size
    return float(np.sum(b)) - n * (n - 1) / float(np.sum(1.0 / b))


def _ray_scale(w: np.ndarray, mu: float):
    """Converge the normalized stationarity map at multiplier mu.

    Returns (scale, direction): the direction is the max-normalized fixed ray
    and `scale` is the factor the raw map applies to it (1 at the true
    multiplier). None when the iteration leaves the positive orthant.
    """
    n = w.size
    b = np.ones(n, dtype=float)
    scale = math.nan
    for _ in range(RAY_STEPS):
        x = (n - 1) / float(np.sum(1.0 / b))
        p = float(np.sum(w * (1.0 - 2.0 * x / b)))
        inner = (p + mu * n) / (n - 1) + w
        if np.any(inner <= 0) or mu <= 0:
            return None
        raw = x * np.sqrt(inner / mu)
        if not np.all(np.isfinite(raw)) or np.any(raw <= 0):
            return None
        scale = float(np.max(raw))
        new_b = raw / scale
        if float(np.max(np.abs(new_b - b))) <= 1e-13:
            return scale, new_b
        b = (1.0 - RAY_DAMPING) * b + RAY_DAMPING * new_b
        b /= float(np.max(b))
    return scale, b


def optimal_reward_vector(weights, budget: float, n_players: int) -> np.ndarray:
    """Reward vector maximizing sum_i w_i e_i* subject to full budget spend,
    for e0 = 0.

    For each candidate participant count n (N down to 2) the Lagrange
    multiplier is found by bisection, the optimal direction comes from the
    stationarity fixed point, and the budget constraint sets the scale.
    Candidates failing the individual-rationality re-check through solve_ne
    are discarded; excluded players receive reward 0.
    """
    w_all = validate_weight_vector(weights)
    if n_players < 2:
        raise InvalidInput("n_players must be >= 2")
    if w_all.size != n_players:
        raise InvalidInput("one weight per player required")
    if not budget > 0:
        raise InvalidInput("budget must be > 0")

    order = np.argsort(-w_all, kind="stable")
    best_b: np.ndarray | None = None
    best_utility = -math.inf
    for n in range(n_players, 1, -1):
        direction = _solve_direction(w_all[order[:n]])
        if direction is None:
            continue
        payment_dir = _payment_e0_zero(direction)
        if payment_dir <= 0:
            continue
        b_full = np.zeros(n_players)
        b_full[order[:n]] = direction * (budget / payment_dir)
        profile = solve_ne(ContestConfig(max_rewards=b_full, nature_effort=0.0,
                                         budget=budget))
        # individual rationality: exactly the intended n players active
        if profile.participants.size != n:
            continue
        utility = float(np.dot(w_all, profile.efforts))
        if utility > best_utility:
            best_utility, best_b = utility, b_full
    if best_b is None:
        raise InfeasibleBudget(
            f"no participant count in [2, {n_players}] admits a feasible reward vector")
    return best_b


def _solve_direction(w: np.ndarray) -> np.ndarray | None:
    def scale_gap(mu: float) -> float | None:
        out = _ray_scale(w, mu)
        if out is None or not math.isfinite(out[0]):
            return None
        return out[0] - 1.0

    # scale factor decreases in mu; expand a bracket around mu ~ max(w)
    mu_mid = max(float(np.max(w)), 1e-9)
    lo = hi = None
    mu = mu_mid
    for _ in range(200):
        gap = scale_gap(mu)
        if gap is not None and gap > 0:
            lo = mu
            break
        mu /= 1.7
        if mu < 1e-14 * mu_mid:
            break
    mu = mu_mid
    for _ in range(200):
        gap = scale_gap(mu)
        if gap is not None and gap < 0:
            hi = mu
            break
        mu *= 1.7
        if mu > 1e14 * mu_mid:
            break
    if lo is None or hi is None:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gap = scale_gap(mid)
        if gap is None:
            # inner solve failed in the middle; shrink toward the good side
            hi = mid
            continue
        if abs(gap) <= 1e-13 or (hi - lo) <= 1e-14 * mu_mid:
            break
        if gap > 0:
            lo = mid
        else:
            hi = mid
    out = _ray_scale(w, 0.5 * (lo + hi))
    return None if out is None else out[1]
