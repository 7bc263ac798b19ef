import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

from crowdcontest import contest
from crowdcontest.contest import (ContestConfig, EffortProfile, best_response,
                                  csf_reward, discrimination_gain_case2,
                                  efficiency_identical, optimal_reward_vector,
                                  payoff, report, solve_ne, symmetric_ne)
from crowdcontest.errors import InfeasibleBudget, InvalidInput, NoConvergence
from crowdcontest.numerics import spawn_rng

from helpers import ne_by_iteration

GOLDEN = (math.sqrt(5) - 1) / 8


def cfg(b, e0=0.0):
    return ContestConfig(max_rewards=b, nature_effort=e0)


class TestCsfReward:
    def test_symmetric_split(self):
        c = cfg([1, 1])
        p = EffortProfile([0.25, 0.25])
        assert csf_reward(c, p, 0) == pytest.approx(0.5)

    def test_nature_takes_half(self):
        c = cfg([1, 1], e0=0.5)
        p = EffortProfile([0.25, 0.25])
        assert csf_reward(c, p, 0) == pytest.approx(0.25)

    def test_at_asymmetric_ne(self):
        c = cfg([1, 0.5])
        p = EffortProfile([2 / 9, 1 / 9])
        assert csf_reward(c, p, 1) == pytest.approx(1 / 6)

    def test_zero_over_zero_pays_nothing(self):
        c = cfg([1, 1])
        p = EffortProfile([0.0, 0.0])
        assert csf_reward(c, p, 0) == 0.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            csf_reward(cfg([1.0]), EffortProfile([0.1]), 3)


class TestPayoff:
    def test_symmetric(self):
        assert payoff(cfg([1, 1]), EffortProfile([0.25, 0.25]), 0) == pytest.approx(0.25)

    def test_nonparticipant(self):
        assert payoff(cfg([1, 1]), EffortProfile([0.0, 0.3]), 0) == 0.0

    def test_asymmetric_ne_payoff(self):
        p = EffortProfile([2 / 9, 1 / 9])
        assert payoff(cfg([1, 0.5]), p, 0) == pytest.approx(4 / 9)


class TestBestResponse:
    def test_interior(self):
        assert best_response(cfg([1, 1]), 0.25, 0) == pytest.approx(0.25)

    def test_nature_blocks_entry(self):
        assert best_response(cfg([1.0], e0=1.0), 0.0, 0) == 0.0

    def test_large_reward(self):
        assert best_response(cfg([4.0, 1.0]), 1.0, 0) == pytest.approx(1.0)


class TestSolveNe:
    def test_drops_smallest_reward(self):
        p = solve_ne(cfg([1, 0.5, 0.1]))
        assert np.allclose(p.efforts, [2 / 9, 1 / 9, 0.0], atol=1e-12)
        assert list(p.participants) == [0, 1]

    def test_two_player_with_nature(self):
        p = solve_ne(cfg([1, 1], e0=0.5))
        assert np.allclose(p.efforts, GOLDEN, atol=1e-12)

    def test_lone_player_without_nature_is_degenerate(self):
        p = solve_ne(cfg([1.0]))
        assert p.efforts[0] == 0.0
        assert p.degenerate

    def test_everyone_priced_out(self):
        p = solve_ne(cfg([0.3, 0.2], e0=0.5))
        assert p.degenerate
        assert np.all(p.efforts == 0.0)

    def test_tied_smallest_eliminated_as_block(self):
        p = solve_ne(cfg([1.0, 0.9, 0.05, 0.05]))
        assert list(p.participants) == [0, 1]
        # survivors play the two-player NE among themselves
        two = solve_ne(cfg([1.0, 0.9]))
        assert np.allclose(p.efforts[:2], two.efforts, atol=1e-12)

    def test_low_rewards_can_still_sustain_entry_without_nature(self):
        # with e0 = 0 the aggregate stays below every positive reward, so even
        # tiny-reward players enter; a modest nature effort prices them out
        p = solve_ne(cfg([1.0, 0.01, 0.01, 0.01]))
        assert list(p.participants) == [0, 1, 2, 3]
        priced_out = solve_ne(cfg([1.0, 0.01, 0.01, 0.01], e0=0.05))
        assert list(priced_out.participants) == [0]


    @pytest.mark.parametrize("e0", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_nature_effort(self, e0):
        # a NaN used to pass the >= 0 check, and solve_ne returned an
        # all-zero profile for it in silence
        with pytest.raises(InvalidInput):
            cfg([1.0, 1.0], e0=e0)


class TestSymmetricNe:
    def test_two_players(self):
        assert symmetric_ne(2, 1, 0) == pytest.approx(0.25)

    def test_two_players_nature(self):
        assert symmetric_ne(2, 1, 0.5) == pytest.approx(GOLDEN, abs=1e-15)

    def test_hundred_players(self):
        assert symmetric_ne(100, 1, 0) == pytest.approx(99 / 10_000)

    def test_floors_at_zero(self):
        assert symmetric_ne(3, 1.0, 2.0) == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            symmetric_ne(0, 1.0, 0.0)
        with pytest.raises(InvalidInput):
            symmetric_ne(2, -1.0, 0.0)
        with pytest.raises(InvalidInput):
            symmetric_ne(2, np.array([1.0, -1.0]), 0.0)

    @pytest.mark.parametrize("e0", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_nature_effort(self, e0):
        # a NaN used to pass the e0 >= 0 check and come back as a NaN effort
        with pytest.raises(InvalidInput):
            symmetric_ne(2, 1.0, e0)
        with pytest.raises(InvalidInput):
            symmetric_ne(2, np.array([1.0, 2.0]), e0)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 1100])
    @pytest.mark.parametrize("e0", [0.0, 1e-6, 0.3, 5.0])
    def test_array_matches_scalar_calls_bit_for_bit(self, n, e0):
        # each entry equals its scalar call, and the scalar call the closed
        # form in plain float arithmetic
        b = np.concatenate([[0.0, 1e-300, 1.0], spawn_rng(n).exponential(size=40)])
        efforts = symmetric_ne(n, b, e0)
        scalar = [symmetric_ne(n, float(v), e0) for v in b]
        formula = [0.0 if v == 0 else max(((n - 1) * v - 2.0 * e0 * n + math.sqrt(
            (n - 1) ** 2 * v * v + 4.0 * e0 * v * n)) / (2.0 * n * n), 0.0)
            for v in b.tolist()]
        assert efforts.shape == b.shape
        assert efforts.tobytes() == np.array(scalar).tobytes() == np.array(formula).tobytes()


class TestEfficiencyIdentical:
    def test_two_players_no_nature(self):
        assert efficiency_identical(2, 1, 0, [1, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_two_players_nature(self):
        expect = (1 + math.sqrt(5)) / 4
        assert efficiency_identical(2, 1, 0.5, [1, 1]) == pytest.approx(expect, abs=1e-12)

    def test_hundred_players(self):
        assert efficiency_identical(100, 1, 0, np.ones(100)) == pytest.approx(0.99, abs=1e-12)

    def test_array_n_equals_scalar_calls(self):
        w = np.linspace(1.0, 0.1, 40)
        ns = np.array([2, 7, 1, 40, 7, 19])
        for ratio in (0.0, 0.2, 0.5, 0.8):
            got = efficiency_identical(ns, 1.0, ratio, w)
            assert got.shape == ns.shape
            assert got.tolist() == [efficiency_identical(int(n), 1.0, ratio, w)
                                    for n in ns]
        assert isinstance(efficiency_identical(3, 1.0, 0.5, w), float)
        with pytest.raises(InvalidInput):
            efficiency_identical(np.array([2, 0]), 1.0, 0.5, w)
        with pytest.raises(InvalidInput):
            efficiency_identical(np.array([2, 41]), 1.0, 0.5, w)

    def test_array_e0_broadcasts_against_n(self):
        w = np.linspace(1.0, 0.1, 40)
        ns = np.array([2, 7, 1, 40, 19])
        e0s = np.array([0.0, 0.2, 0.5, 0.8, 1e-300, 3.0])
        got = efficiency_identical(ns, 2.5, e0s[:, None], w)
        assert got.shape == (e0s.size, ns.size)
        assert got.tolist() == [[efficiency_identical(n, 2.5, e0, w) for n in ns.tolist()]
                                for e0 in e0s.tolist()]
        with pytest.raises(InvalidInput):
            efficiency_identical(ns, 1.0, np.array([0.5, -0.1])[:, None], w)

    def test_bounds_grid(self):
        # (n-1)/n^2 sum(w) <= eff < sum(w)/n for every e0/b in [0, 1)
        for n in range(2, 51):
            w = np.ones(n)
            for ratio in (0.0, 0.2, 0.5, 0.8, 0.99):
                val = efficiency_identical(n, 1.0, ratio, w)
                assert (n - 1) / n**2 * n - 1e-12 <= val < n / n


class TestReport:
    def test_symmetric(self):
        c = cfg([1, 1])
        rep = report(c, solve_ne(c), [1, 1])
        assert rep.utility == pytest.approx(0.5)
        assert rep.payment == pytest.approx(1.0)
        assert rep.efficiency == pytest.approx(0.5)

    def test_all_zero(self):
        rep = report(cfg([1, 1], e0=5.0), EffortProfile([0, 0]), [1, 1])
        assert (rep.utility, rep.payment, rep.efficiency) == (0.0, 0.0, 0.0)

    def test_asymmetric_payment_identity(self):
        c = cfg([1, 0.5, 0.1])
        rep = report(c, solve_ne(c), [1, 1, 1])
        assert rep.payment == pytest.approx(5 / 6, abs=1e-12)
        assert rep.utility == pytest.approx(1 / 3, abs=1e-12)
        assert rep.efficiency == pytest.approx(0.4, abs=1e-12)


class TestDiscriminationGain:
    def test_two_players(self):
        assert discrimination_gain_case2(2) == pytest.approx(1.0)

    def test_four_players(self):
        assert discrimination_gain_case2(4) == pytest.approx(16 / 12)

    def test_ten_players_matches_direct_ratio(self):
        w = np.array([1.0, 1.0] + [0.0] * 8)
        gained = efficiency_identical(2, 1.0, 0.0, w[:2])
        flat = efficiency_identical(10, 1.0, 0.0, w)
        assert discrimination_gain_case2(10) == pytest.approx(gained / flat, abs=1e-12)
        assert discrimination_gain_case2(10) == pytest.approx(100 / 36)

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            discrimination_gain_case2(1)


# ---------------------------------------------------------------------------
# Equilibrium invariants
# ---------------------------------------------------------------------------

reward_vectors = st.lists(st.floats(0.05, 2.0), min_size=1, max_size=5)


@given(b=reward_vectors, e0=st.floats(0.0, 1.0))
@hyp_settings(max_examples=120, deadline=None)
def test_ne_is_best_response_fixed_point(b, e0):
    c = cfg(b, e0)
    p = solve_ne(c)
    total = p.total
    for i in range(c.n_players):
        assert abs(best_response(c, total - p.efforts[i], i) - p.efforts[i]) <= 1e-7


@given(b=reward_vectors, e0=st.floats(0.0, 1.0))
@hyp_settings(max_examples=120, deadline=None)
def test_effort_ordering_follows_rewards(b, e0):
    c = cfg(b, e0)
    e = solve_ne(c).efforts
    for i in range(len(b)):
        for j in range(len(b)):
            if e[i] > e[j] > 0:
                assert c.max_rewards[i] > c.max_rewards[j]


@given(b=reward_vectors, e0=st.floats(0.0, 1.0))
@hyp_settings(max_examples=100, deadline=None)
def test_payment_identity(b, e0):
    # total payout equals sum over participants of (b_i - (e0 + E*))
    c = cfg(b, e0)
    p = solve_ne(c)
    paid = sum(csf_reward(c, p, i) for i in range(c.n_players))
    x = e0 + p.total
    direct = sum(c.max_rewards[i] - x for i in p.participants)
    assert paid == pytest.approx(direct, abs=1e-9)


@given(b=st.lists(st.floats(0.1, 2.0), min_size=2, max_size=4))
@hyp_settings(max_examples=40, deadline=None)
def test_participant_count_nonincreasing_in_e0(b):
    counts = [solve_ne(cfg(b, e0)).participants.size
              for e0 in np.linspace(0.0, max(b) * 1.05, 12)]
    assert all(c2 <= c1 for c1, c2 in zip(counts, counts[1:]))


def test_oracle_equivalence_small_instances():
    rng = spawn_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        b = rng.uniform(0.1, 2.0, size=n)
        e0 = float(rng.uniform(0.0, 1.0))
        c = cfg(b, e0)
        reference = solve_ne(c).efforts
        for _ in range(10):
            start = rng.uniform(0.0, 0.5, size=n)
            iterated = ne_by_iteration(c, start)
            assert np.max(np.abs(iterated - reference)) <= 1e-6


# ---------------------------------------------------------------------------
# Optimal reward discrimination
# ---------------------------------------------------------------------------

class TestOptimalRewardVector:
    def test_symmetric_weights_collapse_to_budget(self):
        b = optimal_reward_vector([1.0, 1.0], budget=0.7)
        assert np.allclose(b, 0.7, atol=1e-9)

    def test_exclusionary_weights_beat_ratio_grid(self):
        budget = 0.7
        b = optimal_reward_vector([1.0, 0.0], budget=budget)
        util = float(np.dot([1.0, 0.0], solve_ne(cfg(b)).efforts))
        # exact-budget oracle: sweep the reward ratio, scale each direction
        # onto the budget constraint, take the best utility
        best = 0.0
        for r in np.linspace(1e-3, 1.0, 800):
            d = np.array([1.0, r])
            prof = solve_ne(cfg(d))
            pay = sum(csf_reward(cfg(d), prof, i) for i in range(2))
            if pay <= 0:
                continue
            scaled = d * (budget / pay)
            best = max(best, float(solve_ne(cfg(scaled)).efforts[0]))
        assert util >= best - 1e-7
        assert util == pytest.approx(0.19386723, abs=1e-6)

    def test_budget_scaling(self):
        small = optimal_reward_vector([1.0, 0.4, 0.2], budget=0.01)
        large = optimal_reward_vector([1.0, 0.4, 0.2], budget=1.0)
        assert np.allclose(small, large * 0.01, rtol=1e-6)

    def test_budget_is_spent(self):
        budget = 1.3
        b = optimal_reward_vector([1.0, 0.7, 0.1, 0.1], budget=budget)
        c = cfg(b)
        p = solve_ne(c)
        paid = sum(csf_reward(c, p, i) for i in range(4))
        assert paid == pytest.approx(budget, rel=1e-8)

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            optimal_reward_vector([1.0], budget=1.0)
        with pytest.raises(InvalidInput):
            optimal_reward_vector([1.0, 1.0], budget=-1.0)
        with pytest.raises(InfeasibleBudget):
            optimal_reward_vector([0.0, 0.0], budget=1.0)

    # reference vectors from an independent design: for each participant count
    # n, a bisection on the Lagrange multiplier around a damped stationarity map
    @pytest.mark.parametrize("weights, budget, expected", [
        ([1.0, 0.7, 0.1, 0.1], 1.3,
         [1.46437747125331, 1.30432148689198, 0.902751830170309, 0.902751830170309]),
        ([1.0, 0.0], 0.7, [0.810108674296868, 0.532482897381586]),
        ([0.3, 1.0, 0.0, 0.6, 0.0], 2.5,
         [2.01752028906707, 2.82029797642937, 0.0, 2.39475004644815, 0.0]),
        (np.linspace(1.0, 0.025, 40), 1.0,
         [1.04658611469454, 1.03470488583193, 1.02268563403301, 1.01052343434012,
          0.998213061747638, 0.985748964968586, 0.973125237176429, 0.960335583284679,
          0.947373283249939, 0.934231150791287, 0.920901486806193, 0.907376026625621]
         + [0.0] * 28),
    ])
    def test_matches_the_multiplier_design(self, weights, budget, expected):
        b = optimal_reward_vector(weights, budget=budget)
        assert np.max(np.abs(b - expected)) <= 1e-9 * budget

    def test_tiny_weights_are_rescaled(self):
        b = optimal_reward_vector([1e-300, 0.0], budget=0.7)
        assert np.max(np.abs(b - [0.810108674296868, 0.532482897381586])) <= 1e-9

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(contest, "_DINKELBACH_STEPS", 1)
        with pytest.raises(NoConvergence) as err:
            optimal_reward_vector([1.0, 0.7, 0.1, 0.1], budget=1.3)
        assert err.value.last > 0
        assert err.value.residual > 0

    @hyp_settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8),
           budget=st.floats(0.1, 3.0), w_scale=st.floats(1e-3, 1e3),
           b_scale=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
    def test_optimum_properties(self, weights, budget, w_scale, b_scale, seed):
        assume(max(weights) > 1e-6)
        w = np.asarray(weights)
        b = optimal_reward_vector(w, budget=budget)
        c = cfg(b)
        rep = report(c, solve_ne(c), w)
        assert rep.payment == pytest.approx(budget, rel=1e-9)
        assert np.allclose(optimal_reward_vector(w * w_scale, budget=budget), b,
                           rtol=1e-9, atol=1e-12)
        assert np.allclose(optimal_reward_vector(w, budget=budget * b_scale),
                           b * b_scale, rtol=1e-9, atol=1e-12)
        # no nearby direction, scaled onto the budget, gets more utility
        rng = spawn_rng(seed)
        for _ in range(20):
            trial = b * np.exp(rng.uniform(-0.3, 0.3, size=b.size))
            pay = report(cfg(trial), solve_ne(cfg(trial)), w).payment
            trial *= budget / pay
            utility = report(cfg(trial), solve_ne(cfg(trial)), w).utility
            assert utility <= rep.utility * (1.0 + 1e-9)
