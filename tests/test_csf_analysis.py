import numpy as np
import pytest

from crowdcontest.contest import ContestConfig, solve_ne, symmetric_ne
from crowdcontest.csf_analysis import (efficiency_optimal_v,
                                       efficiency_vmax_beta_threshold,
                                       exponent_discrim_ne, nature_efficiency,
                                       nature_symmetric_ne, optimal_beta_gain,
                                       reward_discrim_efficiency,
                                       reward_discrim_gain, reward_discrim_ne,
                                       reward_discrim_payment,
                                       weight_discrim_ne)
from crowdcontest.errors import InvalidInput


class TestWeightDiscrimination:
    def test_no_discrimination(self):
        r = weight_discrim_ne(1.0, 1.0, 1.0)
        assert r.efforts == pytest.approx((0.25, 0.25))

    def test_strong_priority_backfires(self):
        r = weight_discrim_ne(4.0, 1.0, 1.0)
        assert r.efforts[0] == pytest.approx(0.16)
        assert r.efforts[0] < 0.25

    def test_vanishing_exponent(self):
        r = weight_discrim_ne(1.0, 1.0, 1e-9)
        assert r.efforts[0] == pytest.approx(0.0, abs=1e-9)

    def test_priority_one_maximizes_efficiency(self):
        grid = np.concatenate([np.linspace(0.25, 4.0, 151), [1.0]])
        values = [weight_discrim_ne(a, 1.0, 1.0).efficiency for a in grid]
        assert grid[int(np.argmax(values))] == 1.0


class TestExponentDiscrimination:
    def test_symmetric_reduction(self):
        r = exponent_discrim_ne(1.0, 1.0, 1.0)
        assert r.efforts == pytest.approx((0.25, 0.25), abs=1e-9)

    def test_half_exponent(self):
        # root of 4 e^1.5 + e^0.5 + 4 e = 1, frozen from an independent
        # alternating best-response oracle
        r = exponent_discrim_ne(1.0, 0.5, 1.0)
        assert r.efforts[1] == pytest.approx(0.120972, abs=1e-5)
        assert r.efforts[0] == pytest.approx(2 * r.efforts[1], rel=1e-9)
        e2 = r.efforts[1]
        assert 4 * e2**1.5 + e2**0.5 + 4 * e2 == pytest.approx(1.0, abs=1e-8)

    def test_raising_late_exponent_helps_both(self):
        previous = None
        for v2 in (0.3, 0.5, 0.7, 0.9, 1.0):
            r = exponent_discrim_ne(1.0, v2, 1.0)
            if previous is not None:
                assert r.efforts[0] > previous[0]
                assert r.efforts[1] > previous[1]
            previous = r.efforts

    def test_ordering_validation(self):
        with pytest.raises(InvalidInput):
            exponent_discrim_ne(0.5, 1.0, 1.0)


class TestRewardDiscrimination:
    def test_no_discrimination(self):
        r = reward_discrim_ne(1.0, 1.0, 1.0, 1.0)
        assert r.efforts == pytest.approx((0.25, 0.25))
        assert r.gain == pytest.approx(1.0)

    def test_beta_two(self):
        r = reward_discrim_ne(2.0, 1.0, 1.0, 1.0)
        assert r.efforts == pytest.approx((2 / 9, 1 / 9), abs=1e-12)

    def test_matches_standard_contest_ne(self):
        # cross-module consistency: exponent 1 reward discrimination is the
        # plain contest with rewards (b, b/beta)
        for beta in (1.5, 2.0, 3.7):
            r = reward_discrim_ne(beta, 1.0, 1.0, 1.0)
            p = solve_ne(ContestConfig(max_rewards=[1.0, 1.0 / beta]))
            assert r.efforts[0] == pytest.approx(p.efforts[0], abs=1e-9)
            assert r.efforts[1] == pytest.approx(p.efforts[1], abs=1e-9)

    def test_payment_never_exceeds_budget_cap(self):
        for beta in np.linspace(1.0, 20.0, 40):
            assert reward_discrim_payment(beta, 1.0, 1.0) <= 1.0 + 1e-12

    def test_payment_matches_contest_core_identity(self):
        # at exponent 1 the closed-form payout must equal the standard
        # contest's payment sum(b_i - aggregate) over participants
        for beta in (1.0, 1.7, 3.2, 8.0):
            cfg = ContestConfig(max_rewards=[1.0, 1.0 / beta])
            profile = solve_ne(cfg)
            x = float(np.sum(profile.efforts))
            direct = sum(cfg.max_rewards[i] - x for i in profile.participants)
            assert reward_discrim_payment(beta, 1.0, 1.0) == pytest.approx(
                direct, abs=1e-12)

    def test_gain_peaks_near_paper_ratio_for_large_u(self):
        betas = np.linspace(1.0, 4.0, 3001)
        gains = [reward_discrim_gain(b, 1.0, 1e9) for b in betas]
        assert betas[int(np.argmax(gains))] == pytest.approx(1.5214, abs=2e-3)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            reward_discrim_ne(0.5, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            reward_discrim_ne(2.0, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("v", [0.25, 0.5, 1.0])
    def test_array_surface_equals_scalar_calls(self, v):
        # the (u, beta) grid of the csf-gain-surface preset; beta^v goes
        # through libm's pow element by element, so no element may differ
        us = [1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
        betas = np.geomspace(1.0, 10.0, 41)
        gain = reward_discrim_gain(betas, v, np.array(us)[:, None])
        eff = reward_discrim_efficiency(betas, v, np.array(us)[:, None], w=0.7)
        assert gain.shape == eff.shape == (len(us), betas.size)
        assert gain.tolist() == [[reward_discrim_gain(beta, v, u) for beta in betas.tolist()]
                                 for u in us]
        assert eff.tolist() == [[reward_discrim_efficiency(beta, v, u, w=0.7)
                                 for beta in betas.tolist()] for u in us]
        assert reward_discrim_gain(list(betas), v, 2.0).tolist() == gain[1].tolist()


class TestOptimalBetaGain:
    def test_asymptotic_v_one(self):
        beta = optimal_beta_gain(1.0)
        assert beta == pytest.approx(1.5214, abs=1e-3)
        assert beta**3 - beta - 2.0 == pytest.approx(0.0, abs=1e-8)

    def test_asymptotic_half_v_matches_dense_grid(self):
        beta = optimal_beta_gain(0.5)
        grid = np.linspace(1.0, 20.0, 400_001)
        gains = 4 * grid**1.5 / ((1 + grid**1.5) * (1 + grid**0.5))
        assert beta == pytest.approx(grid[int(np.argmax(gains))], abs=1e-3)
        assert 0.5 * beta**2 - beta**0.5 - 1.5 == pytest.approx(0.0, abs=1e-7)

    def test_finite_u_agrees_with_grid(self):
        beta = optimal_beta_gain(1.0, u=4.0)
        grid = np.linspace(1.0, 10.0, 200_001)
        gains = [reward_discrim_gain(g, 1.0, 4.0) for g in grid]
        assert beta == pytest.approx(grid[int(np.argmax(gains))], abs=1e-3)

    def test_gain_proportional_to_efficiency_in_beta(self):
        # at fixed (u, v) the gain is the efficiency normalized by its
        # beta = 1 value, so the two share one beta-maximizer exactly
        betas = np.linspace(1.0, 10.0, 501)
        ratio = [reward_discrim_gain(b, 1.0, 4.0)
                 / reward_discrim_efficiency(b, 1.0, 4.0) for b in betas]
        assert np.ptp(ratio) < 1e-12

    def test_efficiency_and_gain_pull_v_in_opposite_directions(self):
        # the high-efficiency regime wants the largest exponent while the
        # discrimination gain wants the smallest: no single v serves both
        vs = np.linspace(0.05, 1.0, 96)
        for beta, u in ((2.0, 4.0), (1.5214, 8.0)):
            v_eff = vs[int(np.argmax([reward_discrim_efficiency(beta, v, u)
                                      for v in vs]))]
            v_gain = vs[int(np.argmax([reward_discrim_gain(beta, v, u)
                                       for v in vs]))]
            assert v_eff == pytest.approx(1.0)
            assert v_gain == pytest.approx(vs[0])


class TestEfficiencyRegime:
    def test_threshold_location(self):
        assert efficiency_vmax_beta_threshold() == pytest.approx(3.9026, abs=1e-2)

    def test_maximizer_departs_from_one_across_threshold(self):
        thresh = efficiency_vmax_beta_threshold()
        assert efficiency_optimal_v(thresh - 0.5) == 1.0
        assert efficiency_optimal_v(thresh + 0.5) < 1.0 - 1e-4


class TestNaturePlayer:
    def test_reduces_to_standard_tullock(self):
        assert nature_symmetric_ne(1.0, 0.0, 1.0) == pytest.approx(0.25)

    def test_v_one_matches_identical_reward_form(self):
        assert nature_symmetric_ne(1.0, 0.5, 1.0) == pytest.approx(
            symmetric_ne(2, 1.0, 0.5), abs=1e-12)

    def test_sqrt_exponent_closed_form(self):
        # v = 1/2, e0 = 0: the FOC collapses to e = b v / 4
        assert nature_symmetric_ne(1.0, 0.0, 0.5) == pytest.approx(0.125, abs=1e-9)

    def test_nonparticipation_flagged_as_zero(self):
        assert nature_symmetric_ne(1.0, 1.0, 1.0) == 0.0

    def test_effort_strictly_decreasing_in_e0(self):
        for v in (0.4, 0.7, 1.0):
            values = [nature_symmetric_ne(1.0, e0, v)
                      for e0 in np.linspace(0.0, 0.9, 10)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_efficiency_strictly_increasing_in_e0(self):
        for v in (0.4, 0.7, 1.0):
            values = [nature_efficiency(1.0, e0, v, 1.0)
                      for e0 in np.linspace(0.0, 0.9, 10)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_efficiency_limits(self):
        assert nature_efficiency(1.0, 0.0, 1.0, 1.0) == pytest.approx(0.5)
        # e0 -> b with v = 1: limit v w (1+u)/(2u)
        assert nature_efficiency(1.0, 1.0 - 1e-9, 1.0, 1.0) == pytest.approx(1.0, abs=1e-3)
        # b -> infinity at fixed e0: back to v w (1+u)/(4u)
        assert nature_efficiency(1e9, 0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-6)
        # large e0 with v < 1
        assert nature_efficiency(1.0, 1e7, 0.5, 1.0) == pytest.approx(0.5, abs=1e-3)


class TestGainMonotonicity:
    def test_decreasing_in_v(self):
        for beta in (1.5, 2.5, 5.0):
            for u in (1.0, 4.0):
                vals = [reward_discrim_gain(beta, v, u)
                        for v in np.linspace(0.05, 1.0, 12)]
                assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_u(self):
        for beta in (1.5, 2.5, 5.0):
            for v in (0.25, 1.0):
                vals = [reward_discrim_gain(beta, v, u)
                        for u in np.linspace(1.0, 40.0, 12)]
                assert all(b > a for a, b in zip(vals, vals[1:]))

