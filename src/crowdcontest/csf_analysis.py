"""Two-player analysis of the generalized contest success function
r_i = a_i e_i^{v_i} b_i / (e0 + sum_j a_j e_j^{v_j}): closed forms for
weight, exponent and reward discrimination, the discrimination-gain
maximizer, and the symmetric equilibrium against a nature player.

The closed forms here double as membership tests for the main solvers:
reward discrimination with exponent 1 must coincide with the standard
contest NE, and the nature-player equilibrium must reduce to the
identical-reward closed form at v = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numerics import bisect, golden_section_max
from .contest import symmetric_ne

BETA_SEARCH_MAX = 50.0
#: golden-section tolerance of `efficiency_optimal_v`, in units of v
EFFICIENCY_V_TOL = 1e-10


@dataclass(frozen=True)
class TwoPlayerResult:
    efforts: tuple[float, float]
    efficiency: float
    gain: float | None = None

    def __post_init__(self):
        if any(e < 0 for e in self.efforts):
            raise InvalidInput("efforts must be >= 0")


def weight_discrim_ne(a: float, b: float, v: float,
                      weights: tuple[float, float] = (1.0, 1.0)) -> TwoPlayerResult:
    """NE under priority discrimination (a, 1): both players exert
    a b v / (1+a)^2; the requester's efficiency a b v (w1+w2) / (1+a)^2
    peaks at a = 1, i.e. discriminating by priority backfires."""
    if a <= 0 or b <= 0 or not 0 < v <= 1:
        raise InvalidInput(f"need a > 0, b > 0, v in (0, 1]; got a={a}, b={b}, v={v}")
    effort = a * b * v / (1.0 + a) ** 2
    efficiency = effort * (weights[0] + weights[1])
    return TwoPlayerResult(efforts=(effort, effort), efficiency=efficiency)


def exponent_discrim_ne(v1: float, v2: float, b: float,
                        weights: tuple[float, float] = (1.0, 1.0)) -> TwoPlayerResult:
    """NE under exponent discrimination v1 >= v2. The FOCs force
    e1 : e2 = v1 : v2 and e2 solves
        (v1/v2)^{2 v1} e2^{v1-v2+1} + e2^{v2-v1+1} + 2 (v1/v2)^{v1} e2
            = b v2 (v1/v2)^{v1},
    found here by Brent's method on (0, b]."""
    if not 0 < v2 <= v1 <= 1:
        raise InvalidInput(f"need 0 < v2 <= v1 <= 1, got v1={v1}, v2={v2}")
    if b <= 0:
        raise InvalidInput("b must be > 0")
    rho = v1 / v2
    rhs = b * v2 * rho ** v1

    def gap(e2: float) -> float:
        return (rho ** (2 * v1) * e2 ** (v1 - v2 + 1) + e2 ** (v2 - v1 + 1)
                + 2 * rho ** v1 * e2 - rhs)

    e2 = bisect(gap, 1e-300, b)
    e1 = rho * e2
    # identical b and e0 = 0: full reward is always paid out
    efficiency = (weights[0] * e1 + weights[1] * e2) / b
    return TwoPlayerResult(efforts=(e1, e2), efficiency=efficiency)


def _pow(beta, v: float):
    """beta ** v by libm's pow: one Python `**` per element of an array beta."""
    if np.ndim(beta) == 0:
        return beta ** v
    return np.array([x ** v for x in np.ravel(beta).tolist()]).reshape(np.shape(beta))


def reward_discrim_efficiency(beta, v: float, u, w: float = 1.0):
    """E = v w (beta^{v+1} + beta^v / u) / ((1 + beta^{v+1})(1 + beta^v)).
    Arrays beta and u broadcast; each element equals its scalar call bit for
    bit, since beta^v is libm's pow (numpy's array power may use a vector
    pow that rounds differently, machine by machine)."""
    bv = _pow(beta, v)
    return v * w * (bv * beta + bv / u) / ((1.0 + bv * beta) * (1.0 + bv))


def reward_discrim_gain(beta, v: float, u):
    """G = 4 (u beta^{v+1} + beta^v) / ((1 + beta^{v+1})(1 + beta^v)(1 + u)).
    Arrays beta and u broadcast as in `reward_discrim_efficiency`."""
    bv = _pow(beta, v)
    return 4.0 * (u * bv * beta + bv) / ((1.0 + bv * beta) * (1.0 + bv) * (1.0 + u))


def reward_discrim_ne(beta: float, v: float, b: float, u: float,
                      w: float = 1.0) -> TwoPlayerResult:
    """NE under reward discrimination b1 = b, b2 = b/beta:
    e1 = v b beta^v / (beta^v + 1)^2, e2 = e1 / beta. Also reports the
    efficiency (computed at w1 = w, w2 = w/u) and the discrimination gain
    against the beta = 1 baseline."""
    if beta < 1 or u < 1:
        raise InvalidInput(f"reward discrimination needs beta >= 1 and u >= 1, "
                           f"got beta={beta}, u={u}")
    if not 0 < v <= 1 or b <= 0:
        raise InvalidInput(f"need v in (0, 1] and b > 0, got v={v}, b={b}")
    bv = beta ** v
    e1 = v * b * bv / (bv + 1.0) ** 2
    e2 = e1 / beta
    return TwoPlayerResult(efforts=(e1, e2),
                           efficiency=reward_discrim_efficiency(beta, v, u, w),
                           gain=reward_discrim_gain(beta, v, u))


def reward_discrim_payment(beta: float, v: float, b: float) -> float:
    """Total payout R = b (beta^v + beta^{-1}) / (beta^v + 1) <= b."""
    bv = beta ** v
    return b * (bv + 1.0 / beta) / (bv + 1.0)


def optimal_beta_gain(v: float, u: float | None = None) -> float:
    """Reward ratio beta maximizing the discrimination gain.

    u = None (or inf) takes the asymptotic-u limit, where the maximizer is
    the unique root of v beta^{2v+1} - beta^v - (1+v) = 0. Finite u uses a
    log-spaced scan of the gain followed by golden-section refinement.
    """
    if not 0 < v <= 1:
        raise InvalidInput(f"v must lie in (0, 1], got {v}")
    if u is None or math.isinf(u):
        return bisect(lambda beta: v * beta ** (2 * v + 1) - beta ** v - (1 + v),
                      1.0, BETA_SEARCH_MAX)
    if u < 1:
        raise InvalidInput(f"u must be >= 1, got {u}")
    grid = np.geomspace(1.0, BETA_SEARCH_MAX, 400)
    k = int(np.argmax(reward_discrim_gain(grid, v, u)))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    return golden_section_max(lambda beta: reward_discrim_gain(beta, v, u),
                              lo, hi, tol=1e-9)


def efficiency_optimal_v(beta: float, u: float = 1.0) -> float:
    """argmax over v in (0, 1] of the reward-discrimination efficiency at a
    fixed ratio beta (the maximizer does not depend on u)."""
    v_hat = golden_section_max(lambda v: reward_discrim_efficiency(v=v, beta=beta, u=u),
                               1e-9, 1.0, tol=EFFICIENCY_V_TOL)
    # golden section cannot land exactly on the boundary; snap when the
    # efficiency is still rising at v = 1
    if reward_discrim_efficiency(beta, 1.0, u) >= reward_discrim_efficiency(beta, v_hat, u):
        return 1.0
    return v_hat


def efficiency_vmax_beta_threshold() -> float:
    """Ratio beta at which the efficiency-maximizing exponent departs from
    v = 1: below it max_v E sits on the boundary, above it the maximizer is
    interior. Located as the root of dE/dv at v = 1."""
    h = 1e-6

    def dv_at_one(beta: float) -> float:
        return (reward_discrim_efficiency(beta, 1.0, u=2.0)
                - reward_discrim_efficiency(beta, 1.0 - h, u=2.0)) / h

    return bisect(dv_at_one, 1.5, 20.0)


def nature_symmetric_ne(b: float, e0: float, v: float) -> float:
    """Symmetric two-player NE against a nature player exerting e0:
    the root of (e0 + 2 e^v)^2 = v b e^{v-1} (e0 + e^v) on (0, b].

    For v = 1 this is the identical-reward closed form; with v = 1 and
    e0 >= b the unique equilibrium is nonparticipation and 0 is returned.
    """
    if b <= 0:
        raise InvalidInput("b must be > 0")
    if e0 < 0:
        raise InvalidInput("e0 must be >= 0")
    if not 0 < v <= 1:
        raise InvalidInput(f"v must lie in (0, 1], got {v}")
    if v == 1.0:
        if e0 >= b:
            return 0.0
        return symmetric_ne(2, b, e0)

    def gap(e: float) -> float:
        ev = e ** v
        return v * b * e ** (v - 1.0) * (e0 + ev) - (e0 + 2.0 * ev) ** 2

    # v < 1: the marginal product blows up at 0, so an interior root always
    # exists below e = b
    return bisect(gap, 1e-300, b)


def nature_efficiency(b: float, e0: float, v: float, u: float,
                      w: float = 1.0) -> float:
    """Requester efficiency at the nature-player symmetric NE:
    E = v w (1+u) / (4u) * (1 + e0 / (e0 + 2 e*^v)); increasing in e0 and
    approaching v w (1+u) / (2u) in the large-e0 (v < 1) or e0 -> b (v = 1)
    limit."""
    if u < 1:
        raise InvalidInput(f"u must be >= 1, got {u}")
    e_star = nature_symmetric_ne(b, e0, v)
    if e_star == 0.0:
        ratio = 1.0 if e0 > 0 else 0.0
    else:
        ratio = e0 / (e0 + 2.0 * e_star ** v)
    return v * w * (1.0 + u) / (4.0 * u) * (1.0 + ratio)
