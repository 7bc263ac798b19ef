import math
from dataclasses import replace

import numpy as np
import pytest

from crowdcontest.bayesian_closed import budget_tolerance, effort_upper_bound
from crowdcontest.errors import InvalidInput
from crowdcontest.experiments import sweep
from crowdcontest.numerics import spawn_rng
from crowdcontest.open_system import (OpenConfig, OpenEarliestN,
                                      OpenTermination, calibrated_open_stage1,
                                      open_earliest_n_prob,
                                      open_termination_conditional_eff,
                                      open_termination_prob,
                                      solve_bne_open_earliest_n,
                                      solve_bne_open_termination,
                                      stage1_open_earliest_n,
                                      stage1_open_termination)
from crowdcontest.timing import ConstantWeight, PoissonModel, StepWeight

from helpers import bne_quadrature_oracle, single_peaked


def open_en(rate, truncation, n, e0_ratio, **kw):
    return OpenConfig(poisson=PoissonModel(rate=rate, truncation=truncation),
                      strategy=OpenEarliestN(n), e0_ratio=e0_ratio, **kw)


def open_tt(rate, deadline, e0_ratio, truncation=40, **kw):
    return OpenConfig(poisson=PoissonModel(rate=rate, truncation=truncation),
                      strategy=OpenTermination(deadline), e0_ratio=e0_ratio, **kw)


class TestOpenEarliestNProb:
    def test_first_slot(self):
        assert open_earliest_n_prob(1.0, 1.0, 1) == pytest.approx(math.exp(-1))

    def test_two_slots(self):
        assert open_earliest_n_prob(1.0, 1.0, 2) == pytest.approx(2 * math.exp(-1))

    def test_instant_join_is_certain(self):
        assert open_earliest_n_prob(2.0, 0.0, 3) == pytest.approx(1.0)

    def test_monotone_in_time_and_quota(self):
        s = np.linspace(0.0, 8.0, 50)
        p2 = open_earliest_n_prob(1.0, s, 2)
        p5 = open_earliest_n_prob(1.0, s, 5)
        assert np.all(np.diff(p2) < 0)
        assert np.all(p5 >= p2)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            open_earliest_n_prob(1.0, -0.5, 2)
        with pytest.raises(InvalidInput):
            open_earliest_n_prob(1.0, 1.0, 0)


class TestOpenTerminationProb:
    def test_single_value(self):
        expect = math.exp(-1) / (1 - math.exp(-1))
        assert open_termination_prob(1.0, 1.0, 0) == pytest.approx(expect)

    def test_normalization(self):
        total = float(np.sum(open_termination_prob(1.0, 20.0, np.arange(201))))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mode_tracks_rate(self):
        # the meeting count is a +1-shifted Poisson: its mode sits near
        # lambda T - 1
        lam_t = 12.0
        ks = np.arange(60)
        pmf = open_termination_prob(1.0, lam_t, ks)
        assert abs(int(np.argmax(pmf)) - (lam_t - 1)) <= 1

    def test_validation(self):
        with pytest.raises(InvalidInput):
            open_termination_prob(1.0, 0.0, 1)


class TestOpenTerminationSolver:
    def test_e0_zero_matches_direct_summation(self):
        cfg = open_tt(1.0, 1.0, e0_ratio=0.0)
        e_star = solve_bne_open_termination(cfg)
        c = math.exp(-1) / (1 - math.exp(-1))
        direct = sum(c / math.factorial(k + 1) * k / (k + 1) ** 2
                     for k in range(1, 51))
        assert e_star == pytest.approx(direct, abs=1e-9)

    def test_vanishing_window_leaves_nature_duel(self):
        cfg = open_tt(1.0, 1e-7, e0_ratio=0.25)
        assert solve_bne_open_termination(cfg) == pytest.approx(0.25, abs=1e-6)

    def test_lhs_strictly_decreasing(self):
        lam_t, b, e0 = 2.0, 1.0, 0.3
        ks = np.arange(80)
        pk = open_termination_prob(1.0, lam_t, ks)
        es = np.linspace(1e-4, b, 120)
        lhs = [float(np.sum(pk * b * (e0 + ks * e) / (e0 + (ks + 1) * e) ** 2))
               for e in es]
        assert all(b2 < b1 for b1, b2 in zip(lhs, lhs[1:]))

    def test_priced_out(self):
        assert solve_bne_open_termination(open_tt(1.0, 1.0, e0_ratio=1.5)) == 0.0

    def test_nobody_to_meet_without_nature(self):
        # rate T = 1e-11: the truncated meeting pmf keeps only k = 0
        assert solve_bne_open_termination(open_tt(1.0, 1e-11, e0_ratio=0.0)) == 0.0


class TestOpenEarliestNSolver:
    def test_lone_contributor_closed_form(self):
        cfg = open_en(1.0, 1, 1, e0_ratio=0.25)
        grid = solve_bne_open_earliest_n(cfg, grid_size=24, mc_samples=64, seed=0)
        expect = np.maximum(np.sqrt(grid.b_values * 0.25) - 0.25, 0.0)
        assert np.max(np.abs(grid.efforts - expect)) < 1e-12
        assert grid.efforts[0] == pytest.approx(0.25)

    def test_matches_quadrature_oracle_two_contributors(self):
        # M = 2: the opponent is a single exponential epoch, so the BNE
        # admits a deterministic 1-d quadrature oracle
        cfg = open_en(1.5, 2, 1, e0_ratio=0.3)
        grid = solve_bne_open_earliest_n(cfg, grid_size=25, mc_samples=40_000,
                                         seed=1)
        quantile = lambda q: -np.log1p(-np.asarray(q)) / 1.5
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 2,
                                       cfg.nature_effort, quantile,
                                       n_nodes=6000)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_monotone_and_bounded(self):
        cfg = open_en(2.0, 12, 3, e0_ratio=0.5)
        grid = solve_bne_open_earliest_n(cfg, grid_size=33, mc_samples=4000, seed=2)
        assert np.all(np.diff(grid.efforts) <= 1e-12)
        cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
        assert np.all(grid.efforts <= cap + 1e-10)

    def test_full_quota_early_effort_sandwiched(self):
        # the earliest joiner competes against M-1 opponents whose effective
        # rewards are weakly decayed, so their pressure is at most that of a
        # full-information symmetric contest and at least nothing at all
        from crowdcontest.contest import symmetric_ne
        cfg = open_en(0.05, 4, 4, e0_ratio=0.5)
        grid = solve_bne_open_earliest_n(cfg, grid_size=33, mc_samples=20_000,
                                         seed=3)
        sym = symmetric_ne(4, 1.0, 0.5)
        solo = math.sqrt(1.0 * 0.5) - 0.5
        assert sym - 1e-3 <= grid.efforts[0] <= solo + 1e-3

    def test_rate_only_rescales_time(self):
        # the open system is scale-free: multiplying the arrival rate by c
        # compresses the effort schedule by c and changes nothing else
        slow = open_en(0.05, 4, 2, e0_ratio=0.5)
        fast = open_en(1.0, 4, 2, e0_ratio=0.5)
        g_slow = solve_bne_open_earliest_n(slow, grid_size=33,
                                           mc_samples=20_000, seed=3)
        g_fast = solve_bne_open_earliest_n(fast, grid_size=33,
                                           mc_samples=20_000, seed=3)
        remapped = np.interp(g_slow.times * 0.05, g_fast.times, g_fast.efforts)
        assert np.max(np.abs(g_slow.efforts - remapped)) < 1e-12


class TestOpenStage1:
    def test_full_quota_no_nature_spends_everything(self):
        cfg = open_en(2.0, 5, 5, e0_ratio=0.0)
        grid = solve_bne_open_earliest_n(cfg, grid_size=40, mc_samples=8000, seed=0)
        rep = stage1_open_earliest_n(cfg, grid, mc_samples=4000, seed=1)
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-12)
        assert rep.payment_stderr == 0.0

    def test_reward_scaling_moves_utility_not_efficiency(self):
        cfg1 = open_en(2.0, 6, 3, e0_ratio=0.5, max_reward=1.0)
        cfg2 = open_en(2.0, 6, 3, e0_ratio=0.5, max_reward=2.0)
        g1 = solve_bne_open_earliest_n(cfg1, grid_size=25, mc_samples=4000, seed=4)
        rep1 = stage1_open_earliest_n(cfg1, g1, mc_samples=10_000, seed=5)
        rep2 = stage1_open_earliest_n(cfg2, g1.scaled(2.0), mc_samples=10_000, seed=5)
        assert rep2.expected_utility == pytest.approx(2 * rep1.expected_utility,
                                                      rel=1e-9)
        assert rep2.expected_efficiency == pytest.approx(rep1.expected_efficiency,
                                                         rel=1e-9)

    def test_budget_balance_fresh_seed(self):
        cfg = open_en(3.0, 10, 4, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_open_stage1(cfg, grid_size=25, mc_samples=4000,
                                           stage1_samples=30_000, seed=6)
        fresh = stage1_open_earliest_n(cfg.with_reward(rep.calibrated_b), grid,
                                       mc_samples=30_000, seed=909)
        tol = budget_tolerance(cfg.budget, fresh.payment_stderr)
        assert abs(fresh.expected_payment - cfg.budget) <= tol


class TestConditionalEfficiency:
    def test_flat_weights_example(self):
        w = ConstantWeight(1.0)
        val = open_termination_conditional_eff(1, 0.1, 1.0, 2.0, w, 0.5)
        assert val == pytest.approx(0.6)

    def test_flat_weights_deadline_cancels(self):
        w = ConstantWeight(1.0)
        for t_end in (0.5, 1.0, 4.0):
            val = open_termination_conditional_eff(2, 0.2, 1.0, t_end, w, 0.3)
            assert val == pytest.approx((0.3 + 0.4) / 1.0)

    def test_zero_arrivals_penalty(self):
        assert open_termination_conditional_eff(0, 0.1, 1.0, 1.0,
                                                ConstantWeight(1.0), 0.5) == 0.0

    @pytest.mark.parametrize("weightfn", [
        ConstantWeight(1.0),
        StepWeight((0.0, 0.6, 1.2, 2.0), (1.0, 0.6, 0.2, 0.0)),
    ], ids=["flat", "step"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_collapsed_form_matches_nested_integral_mc(self, weightfn, m):
        # conditioned on m arrivals before T, the epochs are ordered uniforms;
        # Monte Carlo of the nested integral must agree with the closed form
        e_star, b, t_end, e0 = 0.12, 1.0, 2.0, 0.4
        rng = spawn_rng(55, m)
        draws = np.sort(rng.uniform(0.0, t_end, size=(100_000, m)), axis=1)
        weights = np.asarray(weightfn(draws)).reshape(100_000, m)
        samples = np.sum(weights, axis=1) * (e0 + m * e_star) / (b * m)
        mc = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
        closed = open_termination_conditional_eff(m, e_star, b, t_end,
                                                  weightfn, e0)
        assert abs(closed - mc) <= 3 * se + 1e-12


class TestOpenTerminationStage1:
    def test_stage1_matches_manual_sum(self):
        cfg = open_tt(2.0, 1.0, e0_ratio=0.5, truncation=30)
        e_star = solve_bne_open_termination(cfg)
        rep = stage1_open_termination(cfg, e_star)
        lam_t = 2.0
        manual_eff = sum(
            math.exp(-lam_t) * lam_t**m / math.factorial(m)
            * (0.5 + m * e_star) / 1.0 for m in range(1, 31))
        assert rep.expected_efficiency == pytest.approx(manual_eff, abs=1e-12)

    def test_calibration_balances_budget(self):
        cfg = open_tt(2.0, 0.8, e0_ratio=0.2, budget=0.9)
        e_star, rep = calibrated_open_stage1(cfg)
        assert abs(rep.expected_payment - 0.9) <= budget_tolerance(0.9, 0.0)
        # the effort of the accepted evaluation comes out with the report
        assert e_star == solve_bne_open_termination(cfg.with_reward(rep.calibrated_b))


def deadline_sweep(config, t_grid):
    """Reports of `config` at each deadline of `t_grid`, and the best deadline."""
    points, best = sweep([replace(config, strategy=OpenTermination(float(t)))
                          for t in t_grid])
    return float(t_grid[best]), [rep for _, rep in points]


class TestOpenOptimalT:
    def test_curve_single_peaked(self):
        w = StepWeight((0.0, 0.25, 0.5, 1.0), (1.0, 0.6, 0.2, 0.0))
        cfg = open_tt(9.0, 0.5, e0_ratio=0.8, truncation=40, weightfn=w)
        t_star, reports = deadline_sweep(cfg, np.linspace(0.1, 1.4, 14))
        values = [r.expected_efficiency for r in reports]
        assert single_peaked(values, tol=1e-9)
        assert 0.1 <= t_star <= 1.4

    def test_no_value_past_weight_support(self):
        # weights die at tau = 0.5: no deadline beyond it can help
        w = StepWeight((0.0, 0.5), (1.0, 0.0))
        cfg = open_tt(6.0, 0.4, e0_ratio=0.5, truncation=40, weightfn=w)
        grid = np.linspace(0.1, 1.2, 12)
        t_star, reports = deadline_sweep(cfg, grid)
        assert t_star <= 0.5 + (grid[1] - grid[0]) + 1e-9

    def test_vanishing_window_scores_zero(self):
        cfg = open_tt(1.0, 1e-6, e0_ratio=0.5)
        rep = stage1_open_termination(cfg)
        assert rep.expected_efficiency == pytest.approx(0.0, abs=1e-5)


def test_config_validation():
    with pytest.raises(InvalidInput):
        open_en(1.0, 4, 9, e0_ratio=0.5)
    with pytest.raises(InvalidInput):
        open_tt(1.0, -1.0, e0_ratio=0.5)
