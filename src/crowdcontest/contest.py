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

from .errors import InfeasibleBudget, InvalidInput, NoConvergence, NumericalError
from .numerics import bisect

NE_RESIDUAL_TOL = 1e-7
#: step cap of the Dinkelbach iteration in `optimal_reward_vector`, which
#: stops when its ratio moves by at most 4 ulp; and the root-finder
#: tolerance of its shares' sum
_DINKELBACH_STEPS = 100
_SHARE_TOL = 1e-15


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
        if not 0 <= self.nature_effort < np.inf:
            raise InvalidInput("nature effort must be finite and >= 0")
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
    """Requester-side metrics: utility U, payment R, efficiency U/R."""

    utility: float
    payment: float
    efficiency: float
    degenerate: bool = False


def validate_weight_vector(weights) -> np.ndarray:
    """Check a requester weight vector: finite and nonnegative."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InvalidInput("weights must be finite and >= 0")
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


def symmetric_ne(n: int, b, e0: float):
    """NE effort when the n rewarded players share an identical max reward b:
    e* = ((n-1)b - 2 e0 n + sqrt((n-1)^2 b^2 + 4 e0 b n)) / (2 n^2), floored at 0;
    an array b gives each effort bit for bit as its scalar call does."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    b = np.asarray(b, dtype=float)
    if not np.all(b >= 0):
        raise InvalidInput("b must be >= 0")
    if not 0 <= e0 < np.inf:
        raise InvalidInput("e0 must be finite and >= 0")
    root = np.sqrt((n - 1) ** 2 * b * b + 4.0 * e0 * b * n)
    out = np.maximum(((n - 1) * b - 2.0 * e0 * n + root) / (2.0 * n * n), 0.0)
    return out if out.ndim else float(out)


def efficiency_identical(n, b: float, e0: float, weights):
    """Requester efficiency with n identical-reward participants:
    E(n) = (sum_{i<=n} w_i) / (2 n^2) * (n - 1 + sqrt((n-1)^2 + 4 e0 n / b)).

    `weights` may be longer than n; only the first n entries (the rewarded,
    i.e. earliest, contributors) enter the sum. An integer array n and an
    array e0 broadcast against each other and give an array of efficiencies,
    each equal bit for bit to the float of its scalar call.
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise InvalidInput("n must be >= 1")
    if not b > 0:
        raise InvalidInput("b must be > 0")
    if np.any(np.asarray(e0) < 0):
        raise InvalidInput("e0 must be >= 0")
    w = validate_weight_vector(weights)
    if w.size < np.max(n, initial=1):
        raise InvalidInput(f"need at least n={np.max(n)} weights, got {w.size}")
    w_sum = np.array([np.sum(w[:k]) for k in n.flat]).reshape(n.shape)
    out = w_sum / (2.0 * n * n) * ((n - 1) + np.sqrt((n - 1) ** 2 + 4.0 * e0 * n / b))
    return out if out.ndim else float(out)


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
# Optimal reward discrimination (e0 = 0)
# ---------------------------------------------------------------------------

def optimal_reward_vector(weights, budget: float) -> np.ndarray:
    """Reward vector maximizing sum_i w_i e_i* subject to full budget spend,
    for e0 = 0; one weight per player.

    At an e0 = 0 equilibrium with total effort X, player i wins the share
    p_i = e_i / X = 1 - X / b_i, so b_i = X / (1 - p_i) with p on the simplex,
    U = X w.p and R = X g(p), g(p) = sum_i p_i / (1 - p_i). Spending the budget
    sets X = B / g(p), so the design maximizes the ratio E(p) = w.p / g(p) of
    a linear and a convex function. Dinkelbach's method solves it globally
    from uniform shares: lambda <- E(p), then p maximizes w.p - lambda g(p),
    p_i = max(0, 1 - sqrt(lambda / (w_i - nu))) with nu set by sum p = 1.
    Players with p_i = 0 (b_i <= X: not individually rational) get reward 0.
    Raises InfeasibleBudget when every weight is zero, and NoConvergence
    with lambda and its last change after _DINKELBACH_STEPS steps.
    """
    w = validate_weight_vector(weights)
    if w.size < 2:
        raise InvalidInput("need at least two players")
    if not budget > 0:
        raise InvalidInput("budget must be > 0")
    top = float(np.max(w))
    if not top > 0:
        raise InfeasibleBudget("all weights are zero: no reward vector yields utility")
    w = w / top
    second = float(np.sort(w)[-2])

    def ratio(p: np.ndarray) -> float:
        return float(w @ p) / float(np.sum(p / (1.0 - p)))

    def shares(nu: float, lam: float) -> np.ndarray:
        return 1.0 - np.sqrt(lam / np.maximum(w - nu, lam))

    p = np.full(w.size, 1.0 / w.size)
    lam = ratio(p)
    for _ in range(_DINKELBACH_STEPS):
        # the top two shares are >= 1/2 at the left end, all zero at the right
        nu = bisect(lambda nu: float(np.sum(shares(nu, lam))) - 1.0,
                    second - 4.0 * lam, 1.0 - lam, _SHARE_TOL)
        p = shares(nu, lam)
        p /= float(np.sum(p))
        new = ratio(p)
        change, lam = new - lam, new
        if abs(change) <= 4.0 * math.ulp(lam):
            x = budget / float(np.sum(p / (1.0 - p)))
            return np.where(p > 0, x / (1.0 - p), 0.0)
    raise NoConvergence("Dinkelbach iteration of the reward design did not converge",
                        last=lam, residual=change, iterations=_DINKELBACH_STEPS)
