import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from crowdcontest import numerics
from crowdcontest.errors import BracketError, NoConvergence, NumericalError
from crowdcontest.numerics import bisect, golden_section_max, spawn_rng

import helpers
from helpers import fixed_point


def test_bisect_linear_root():
    assert bisect(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_bisect_sqrt2():
    assert bisect(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_bisect_two_player_nature_quadratic():
    # 4x^2 + x - 1/4 = 0 on [0,1]: the symmetric two-player effort with a
    # half-strength nature opponent
    root = bisect(lambda x: 4 * x * x + x - 0.25, 0.0, 1.0)
    assert root == pytest.approx((math.sqrt(5) - 1) / 8, abs=1e-9)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(BracketError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_nonfinite_raises():
    with pytest.raises(NumericalError):
        bisect(lambda x: float("nan"), 0.0, 1.0)


def test_bisect_iteration_budget(monkeypatch):
    # a secant step lands on a linear root at once; a cube root's infinite
    # slope at the root keeps the search going past 3 evaluations
    monkeypatch.setattr(numerics, "BISECT_STEPS", 3)
    with pytest.raises(NoConvergence):
        bisect(lambda x: np.cbrt(x - 0.123456789), 0.0, 1.0, tol=1e-15)


@given(root=st.floats(-5, 5), pad=st.floats(0.1, 3), width=st.floats(0.1, 3))
@hyp_settings(max_examples=60, deadline=None)
def test_bisect_finds_planted_linear_root(root, pad, width):
    found = bisect(lambda x: x - root, root - pad, root + width)
    assert abs(found - root) <= 1e-8


@given(root=st.floats(-5, 5), pad=st.floats(0.01, 3), width=st.floats(0.01, 3),
       slope=st.floats(1, 10), cubic=st.floats(0, 50), bend=st.floats(0, 5),
       sign=st.sampled_from((-1.0, 1.0)), tol=st.sampled_from((1e-12, 1e-9, 1e-6)))
@hyp_settings(max_examples=100, deadline=None)
def test_bisect_smooth_monotone_root_within_tol(root, pad, width, slope, cubic,
                                                bend, sign, tol):
    # every term has the sign of x - root, so |f(x)| >= |x - root|: an
    # iterate accepted on |f| <= tol is within tol of the root as well
    lo, hi = root - pad, root + width
    evals = []

    def f(x):
        evals.append(x)
        d = x - root
        return sign * (slope * d + cubic * d ** 3 + bend * math.atan(10.0 * d))

    found = bisect(f, lo, hi, tol)
    assert abs(found - root) <= tol + 1e-14
    assert all(lo <= x <= hi for x in evals)


@pytest.mark.parametrize("f, lo, hi, root", [
    (lambda x: math.sqrt(x) * (0.5 - x), 1e-300, 1.0, 0.5),
    (lambda x: math.sqrt(-x) * (x + 0.5), -1.0, -1e-300, -0.5),
])
def test_bisect_small_endpoint_value_does_not_stop(f, lo, hi, root):
    # |f| <= tol at an end of the bracket says nothing of the root's place
    assert abs(f(lo) * f(hi)) <= 1e-140
    assert bisect(f, lo, hi) == pytest.approx(root, abs=1e-9)


def test_bisect_bracket_always_contains_sign_change():
    evals = []

    def f(x):
        evals.append(x)
        return (x - 0.3) * (x + 2.0)

    root = bisect(f, -1.0, 1.0)
    assert root == pytest.approx(0.3, abs=1e-9)
    # every iterate stays inside the original bracket
    assert all(-1.0 <= x <= 1.0 for x in evals)


def test_fixed_point_affine_contraction():
    x = fixed_point(lambda v: 0.5 * v + 1.0, 0.0)
    assert x[0] == pytest.approx(2.0, abs=1e-6)


def test_fixed_point_identity_returns_immediately():
    calls = []
    x = fixed_point(lambda v: v, 7.0, callback=lambda v, r: calls.append(r))
    assert x[0] == 7.0
    assert calls == [0.0]  # converged before any update


def test_fixed_point_symmetric_tullock_best_response():
    def tullock(e):
        opp = np.sum(e) - e
        return np.sqrt(1.0 * opp) - opp

    x = fixed_point(tullock, np.array([0.1, 0.4]))
    assert np.allclose(x, 0.25, atol=1e-6)


def test_fixed_point_residual_nonincreasing_tail():
    residuals = []

    def tullock(e):
        opp = np.sum(e) - e
        return np.sqrt(opp) - opp

    fixed_point(tullock, np.array([0.05, 0.45]),
                callback=lambda v, r: residuals.append(r))
    tail = residuals[-10:]
    assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


def test_fixed_point_reports_divergence(monkeypatch):
    monkeypatch.setattr(helpers, "FIXED_POINT_STEPS", 50)
    with pytest.raises(NoConvergence) as err:
        fixed_point(lambda v: 2.0 * v + 1.0, 1.0, tol=1e-9)
    assert err.value.residual is not None
    assert err.value.last is not None


def test_golden_section_max_parabola():
    x = golden_section_max(lambda x: -(x - 1.3) ** 2, 0.0, 3.0, tol=1e-10)
    assert x == pytest.approx(1.3, abs=1e-8)


def test_spawn_rng_streams_are_stable_and_distinct():
    a = spawn_rng(123, 0).random(4)
    b = spawn_rng(123, 0).random(4)
    c = spawn_rng(123, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
