import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from crowdcontest import bayesian_closed
from crowdcontest.bayesian_closed import (BayesianConfig, EarliestN,
                                          LinearDecay, Termination,
                                          budget_tolerance, calibrate_b,
                                          calibrated_stage1, earliest_n_prob,
                                          effort_upper_bound,
                                          participation_threshold,
                                          reward_schedule,
                                          solve_bne_earliest_n,
                                          solve_bne_linear,
                                          solve_bne_termination,
                                          stage1_metrics_mc,
                                          stage1_metrics_termination,
                                          termination_effort_e0_zero,
                                          threshold_analytic_bound)
from crowdcontest.contest import symmetric_ne
from crowdcontest.errors import (InfeasibleBudget, InvalidInput, MonteCarloNoise,
                                 NoConvergence)
from crowdcontest.experiments import sweep
from crowdcontest.numerics import spawn_rng
from crowdcontest.timing import (ConstantWeight, ExponentialJoinTimes, StepWeight,
                                 UniformJoinTimes)

from helpers import bne_quadrature_oracle, single_peaked

GOLDEN = (math.sqrt(5) - 1) / 8
UNIFORM01 = UniformJoinTimes(0.0, 1.0)


def en_config(n_players, n, e0_ratio, join_model=UNIFORM01, **kw):
    return BayesianConfig(n_players=n_players, strategy=EarliestN(n),
                          join_model=join_model, e0_ratio=e0_ratio, **kw)


class TestEarliestNProb:
    def test_two_players_first_place(self):
        assert earliest_n_prob(0.5, 2, 1) == pytest.approx(0.5)

    def test_three_players_two_slots(self):
        assert earliest_n_prob(0.5, 3, 2) == pytest.approx(0.75)

    def test_full_quota_is_certain(self):
        for p in (0.0, 0.37, 1.0):
            assert earliest_n_prob(p, 6, 6) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            earliest_n_prob(0.5, 3, 0)
        with pytest.raises(InvalidInput):
            earliest_n_prob(1.5, 3, 1)


class TestEffortUpperBound:
    def test_low_nature_branch(self):
        assert effort_upper_bound(1.0, 0.1) == pytest.approx(0.25)

    def test_high_nature_branch(self):
        assert effort_upper_bound(1.0, 0.5) == pytest.approx(0.25 * 0.5 / 0.75**2)

    def test_zero_reward(self):
        assert effort_upper_bound(0.0, 0.3) == 0.0


class TestEarliestNSolver:
    def test_single_player_foc(self):
        cfg = en_config(1, 1, e0_ratio=0.25)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=64, seed=0)
        assert np.allclose(grid.efforts, 0.25, atol=1e-12)

    def test_full_quota_reduces_to_complete_info(self):
        cfg = en_config(2, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=512, seed=1)
        assert np.allclose(grid.efforts, GOLDEN, atol=1e-6)

    def test_three_player_selective_case(self):
        # N=3, n=1, uniform prior, e0 = 0.2 b: early types fight, late types
        # sit out past a hard threshold
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, grid_size=33, mc_samples=8000, seed=2)
        e_at = lambda t: float(np.interp(t, grid.times, grid.efforts))
        assert e_at(0.0) > e_at(0.3) > e_at(0.4) > 0.0
        assert e_at(0.55) == 0.0
        assert e_at(0.9) == 0.0
        assert np.all(np.diff(grid.efforts) <= 1e-12)
        t_bar = participation_threshold(grid, cfg)
        assert 0.4 < t_bar <= threshold_analytic_bound(cfg) + 0.04

    def test_matches_quadrature_oracle_two_players(self):
        cfg = en_config(2, 1, e0_ratio=0.3)
        grid = solve_bne_earliest_n(cfg, grid_size=25, mc_samples=30_000, seed=3)
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 2,
                                       cfg.nature_effort, UNIFORM01.quantile,
                                       n_nodes=4000)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_matches_quadrature_oracle_three_players(self):
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, grid_size=25, mc_samples=30_000, seed=4)
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 3,
                                       cfg.nature_effort, UNIFORM01.quantile,
                                       n_nodes=300)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_bne_condition_residual(self):
        # at active grid points the equilibrium condition holds within the
        # Monte Carlo noise band
        cfg = en_config(3, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, grid_size=21, mc_samples=20_000, seed=5)
        rng = spawn_rng(999)
        opp = UNIFORM01.sample(rng, 40_000 * 2).reshape(40_000, 2)
        a = cfg.nature_effort + grid.interp(opp).sum(axis=1)
        for k in np.flatnonzero(grid.efforts > 1e-6):
            vals = a / (a + grid.efforts[k]) ** 2
            mean = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
            assert abs(mean * grid.b_values[k] - 1.0) <= 3 * se * grid.b_values[k] + 1e-5

    def test_efforts_below_upper_bound(self):
        for ratio in (0.2, 0.5, 0.8):
            cfg = en_config(4, 2, e0_ratio=ratio)
            grid = solve_bne_earliest_n(cfg, grid_size=21, mc_samples=4000, seed=6)
            cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
            assert np.all(grid.efforts <= cap + 1e-10)


class TestParticipationThreshold:
    def test_full_quota_everyone_active(self):
        cfg = en_config(2, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=512, seed=1)
        assert participation_threshold(grid, cfg) == pytest.approx(1.0)

    def test_priced_out_everywhere(self):
        cfg = en_config(2, 2, e0_ratio=1.5)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=512, seed=1)
        assert participation_threshold(grid, cfg) == pytest.approx(0.0)

    def test_binding_threshold_near_analytic_bound(self):
        # with one opponent slot the bound b(t) = e0 pins the cutoff to
        # within one grid cell when opponents' efforts vanish there
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, grid_size=65, mc_samples=8000, seed=7)
        bound = threshold_analytic_bound(cfg)
        assert participation_threshold(grid, cfg) <= bound + 1e-9


class TestTerminationSolver:
    def test_e0_zero_closed_form(self):
        assert solve_bne_termination(3, 0.5, 1.0, 0.0) == pytest.approx(
            0.125 + 1 / 18, abs=1e-9)
        assert termination_effort_e0_zero(3, 0.5, 1.0) == pytest.approx(
            0.125 + 1 / 18, abs=1e-15)

    def test_certain_arrivals_match_symmetric_ne(self):
        assert solve_bne_termination(2, 1.0, 1.0, 0.5) == pytest.approx(GOLDEN, abs=1e-9)

    def test_lonely_contributor_vs_nature(self):
        assert solve_bne_termination(4, 0.0, 1.0, 0.25) == pytest.approx(0.25, abs=1e-9)

    def test_closed_form_agreement_random_instances(self):
        rng = spawn_rng(31337)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            p = float(rng.random())
            b = float(rng.uniform(0.2, 3.0))
            assert solve_bne_termination(n, p, b, 0.0) == pytest.approx(
                termination_effort_e0_zero(n, p, b), abs=1e-9)

    def test_lhs_strictly_decreasing(self):
        # uniqueness witness for the fixed point
        n, p, b, e0 = 5, 0.6, 1.0, 0.3
        k = np.arange(n)
        pk = np.array([math.comb(n - 1, int(j)) for j in k]) * p**k * (1 - p)**(n - 1 - k)
        es = np.linspace(1e-4, b, 200)
        lhs = [float(np.sum(pk * b * (e0 + k * e) / (e0 + (k + 1) * e) ** 2))
               for e in es]
        assert all(b2 < b1 for b1, b2 in zip(lhs, lhs[1:]))

    def test_nonparticipation(self):
        assert solve_bne_termination(3, 0.5, 1.0, 1.2) == 0.0

    def test_root_below_the_bracket_reads_zero(self):
        # the effort tends to 0 as e0 nears b, or as opponents are almost
        # never in time at e0 = 0; below the bracket's 1e-12 b it is 0
        assert solve_bne_termination(1, 0.5, 1.0, 1.0 - 2.0 ** -53) == 0.0
        assert solve_bne_termination(5, 1e-13, 1.0, 0.0) == 0.0


class TestTerminationStage1:
    def test_matches_complete_info_efficiency(self):
        cfg = BayesianConfig(n_players=2, strategy=Termination(1.0),
                             join_model=UNIFORM01, e0_ratio=0.0)
        rep = stage1_metrics_termination(cfg)
        assert rep.expected_efficiency == pytest.approx(0.5, abs=1e-9)
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-9)

    def test_nature_raises_efficiency(self):
        cfg = BayesianConfig(n_players=2, strategy=Termination(1.0),
                             join_model=UNIFORM01, e0_ratio=0.5)
        rep = stage1_metrics_termination(cfg)
        assert rep.expected_efficiency == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-9)

    def test_vanishing_deadline(self):
        cfg = BayesianConfig(n_players=5, strategy=Termination(1e-9),
                             join_model=UNIFORM01, e0_ratio=0.5)
        rep = stage1_metrics_termination(cfg)
        assert rep.expected_efficiency == pytest.approx(0.0, abs=1e-6)
        assert rep.expected_utility == pytest.approx(0.0, abs=1e-6)

    def test_closed_forms_match_monte_carlo_of_definitions(self):
        # independent route: simulate joint type draws, pay the in-time
        # contributors directly, and compare the averaged payment/efficiency
        # against the closed-form expectations
        from crowdcontest.bayesian_closed import TypeGrid
        w = StepWeight((0.0, 0.4, 0.8), (1.0, 0.5, 0.1))
        cfg = BayesianConfig(n_players=4, strategy=Termination(0.6),
                             join_model=UNIFORM01, weightfn=w, e0_ratio=0.3)
        rep = stage1_metrics_termination(cfg)
        e_star = solve_bne_termination(4, float(UNIFORM01.cdf(0.6)), 1.0,
                                       cfg.nature_effort)
        step_grid = TypeGrid(times=np.array([0.0, 0.6, 0.6 + 1e-12, 1.0]),
                             efforts=np.array([e_star, e_star, 0.0, 0.0]),
                             b_values=np.array([1.0, 1.0, 0.0, 0.0]))
        mc = stage1_metrics_mc(cfg, step_grid, mc_samples=200_000, seed=21)
        assert abs(mc.expected_payment - rep.expected_payment) <= \
            3 * mc.payment_stderr + 1e-9
        assert abs(mc.expected_efficiency - rep.expected_efficiency) <= \
            3 * mc.efficiency_stderr + 1e-9
        assert abs(mc.expected_utility - rep.expected_utility) <= 1e-3

    @hyp_settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), p=st.floats(1e-300, 1.0), e0_ratio=st.floats(0.0, 1.0),
           cut=st.floats(0.01, 1.0), low=st.floats(0.0, 1.0))
    def test_report_matches_the_paper_closed_forms(self, n, p, e0_ratio, cut, low):
        # the report sums over the in-time count m ~ Binomial(N, p); the paper
        # writes the same expectations as E[U] = e* N Iwf and
        # E[Eff] = (e0/(b p) (1 - (1-p)^N) + N e*/b) Iwf. The absolute floor
        # only admits products that underflow to subnormals.
        w = StepWeight((0.0, cut), (1.0, low))
        cfg = BayesianConfig(n_players=n, strategy=Termination(p), join_model=UNIFORM01,
                             weightfn=w, e0_ratio=e0_ratio)
        rep = stage1_metrics_termination(cfg)
        e_star = solve_bne_termination(n, p, 1.0, e0_ratio)
        us = (np.arange(bayesian_closed.QUAD_POINTS) + 0.5) / bayesian_closed.QUAD_POINTS
        iwf = p * float(np.mean(w(UNIFORM01.quantile(us * p))))
        # 1 - (1-p)^N without cancellation at small p
        some_in_time = 1.0 if p == 1.0 else -math.expm1(n * math.log1p(-p))
        assert rep.expected_utility == pytest.approx(e_star * n * iwf, rel=1e-12,
                                                     abs=1e-300)
        assert rep.expected_efficiency == pytest.approx(
            (e0_ratio / p * some_in_time + n * e_star) * iwf, rel=1e-12, abs=1e-300)

    def test_step_weights_enter_through_the_integral(self):
        w = StepWeight((0.0, 0.5), (1.0, 0.0))
        cfg = BayesianConfig(n_players=3, strategy=Termination(1.0),
                             join_model=UNIFORM01, weightfn=w, e0_ratio=0.2)
        rep_full = stage1_metrics_termination(cfg)
        cfg_half = BayesianConfig(n_players=3, strategy=Termination(0.5),
                                  join_model=UNIFORM01, weightfn=w, e0_ratio=0.2)
        rep_half = stage1_metrics_termination(cfg_half)
        # beyond the weight support, later deadlines only dilute efforts
        assert rep_half.expected_efficiency > rep_full.expected_efficiency


class TestStage1EarliestN:
    def test_full_quota_no_nature_spends_everything(self):
        cfg = en_config(2, 2, e0_ratio=0.0)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=512, seed=1)
        rep = stage1_metrics_mc(cfg, grid, mc_samples=4000, seed=2)
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-12)
        assert rep.payment_stderr == pytest.approx(0.0, abs=1e-12)
        assert rep.expected_efficiency == pytest.approx(0.5, abs=1e-6)
        assert rep.expected_utility == pytest.approx(0.5, abs=1e-6)

    def test_one_draw_gives_no_standard_error(self):
        cfg = en_config(4, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=2000, seed=1)
        with pytest.raises(InvalidInput):
            stage1_metrics_mc(cfg, grid, mc_samples=1, seed=2)

    def test_single_player_payment(self):
        cfg = en_config(1, 1, e0_ratio=0.25)
        grid = solve_bne_earliest_n(cfg, grid_size=12, mc_samples=64, seed=0)
        rep = stage1_metrics_mc(cfg, grid, mc_samples=2000, seed=3)
        assert rep.expected_payment == pytest.approx(0.5, abs=1e-12)

    def test_stage1_mc_matches_tensor_quadrature(self):
        # N=2, n=1: the payment and efficiency expectations reduce to 2-d
        # integrals over the type square, computable by dense midpoint
        # quadrature as an independent oracle for the Monte Carlo path
        w = StepWeight((0.0, 0.5), (1.0, 0.4))
        cfg = en_config(2, 1, e0_ratio=0.3, weightfn=w)
        grid = solve_bne_earliest_n(cfg, grid_size=25, mc_samples=20_000, seed=13)
        rep = stage1_metrics_mc(cfg, grid, mc_samples=150_000, seed=14)

        nodes = UNIFORM01.quantile((np.arange(600) + 0.5) / 600)
        e = grid.interp(nodes)
        e1 = e[:, None]
        e2 = e[None, :]
        early = np.where(nodes[:, None] <= nodes[None, :], e1, e2)
        denom = cfg.nature_effort + e1 + e2
        paid = early * cfg.max_reward
        util = np.asarray(w(nodes))[:, None] * e1 + np.asarray(w(nodes))[None, :] * e2
        with np.errstate(divide="ignore", invalid="ignore"):
            payment = np.where(denom > 0, paid / denom, 0.0)
            eff = np.where(paid > 0, util * denom / paid, 0.0)
        assert rep.expected_payment == pytest.approx(float(np.mean(payment)),
                                                     abs=3 * rep.payment_stderr + 1e-4)
        assert rep.expected_efficiency == pytest.approx(float(np.mean(eff)),
                                                        abs=3 * rep.efficiency_stderr + 1e-3)
        quad_utility = 2 * float(np.mean(np.asarray(w(nodes)) * e))
        assert rep.expected_utility == pytest.approx(quad_utility, abs=1e-3)


class TestCalibration:
    def test_complete_info_identity(self):
        # full quota, no nature: E[R] = b so the calibrated b is the budget
        cfg = en_config(2, 2, e0_ratio=0.0, budget=0.7)
        grid, rep = calibrated_stage1(cfg, grid_size=12, mc_samples=512,
                                      stage1_samples=4000, seed=0)
        assert rep.calibrated_b == pytest.approx(0.7, abs=1e-9)

    def test_termination_algebra_oracle(self):
        # p=1, N=2, e0 = b/2, B=1/2:
        # E[R] = b (sqrt(5)-1)/4 / ((sqrt(5)-1)/4 + 1/2) = 0.381966 b
        cfg = BayesianConfig(n_players=2, strategy=Termination(1.0),
                             join_model=UNIFORM01, e0_ratio=0.5, budget=0.5)
        e_star, rep = calibrated_stage1(cfg)
        expect = 0.5 * ((math.sqrt(5) - 1) / 4 + 0.5) / ((math.sqrt(5) - 1) / 4)
        assert rep.calibrated_b == pytest.approx(expect, rel=1e-9)
        assert rep.expected_payment == pytest.approx(0.5, rel=1e-9)
        # the effort of the accepted evaluation comes out with the report
        assert e_star == solve_bne_termination(2, 1.0, rep.calibrated_b,
                                               0.5 * rep.calibrated_b)

    def test_doubling_budget_doubles_b(self):
        kw = dict(grid_size=16, mc_samples=1000, stage1_samples=8000, seed=4)
        cfg1 = en_config(3, 2, e0_ratio=0.5, budget=0.8)
        cfg2 = en_config(3, 2, e0_ratio=0.5, budget=1.6)
        _, rep1 = calibrated_stage1(cfg1, **kw)
        _, rep2 = calibrated_stage1(cfg2, **kw)
        assert rep2.calibrated_b == pytest.approx(2 * rep1.calibrated_b, rel=1e-6)
        assert rep2.expected_efficiency == pytest.approx(rep1.expected_efficiency,
                                                         rel=1e-6)

    def test_fresh_seed_budget_balance(self):
        cfg = en_config(4, 2, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_stage1(cfg, grid_size=25, mc_samples=4000,
                                      stage1_samples=40_000, seed=11)
        fresh = stage1_metrics_mc(cfg.with_reward(rep.calibrated_b), grid,
                                  mc_samples=40_000, seed=777)
        tol = budget_tolerance(cfg.budget, fresh.payment_stderr)
        assert abs(fresh.expected_payment - cfg.budget) <= tol

    def test_rescale_matches_direct_resolve(self):
        # the b=1 solve rescaled to b* agrees with re-solving at b* outright
        cfg = en_config(3, 1, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_stage1(cfg, grid_size=25, mc_samples=6000,
                                      stage1_samples=20_000, seed=12)
        direct = solve_bne_earliest_n(cfg.with_reward(rep.calibrated_b),
                                      grid_size=25, mc_samples=6000, seed=12)
        assert np.max(np.abs(direct.efforts - grid.efforts)) < 1e-6

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudget):
            calibrate_b(lambda b: (0.0, 0.0, None), budget=1.0,
                        assume_linear=False, b_max=1e3)
        evals = []
        with pytest.raises(InfeasibleBudget):
            calibrate_b(lambda b: evals.append(b) or (0.0, 0.0, None), budget=1.0)
        assert evals == [1.0]

    def test_nonlinear_payment_bisection(self):
        # payment sqrt(b): the bracketing search must land on b = B^2 and
        # hand back the result of the evaluation it accepted
        b_star, result = calibrate_b(lambda b: (math.sqrt(b), 0.0, b), budget=3.0,
                                     assume_linear=False)
        assert math.sqrt(b_star) == pytest.approx(3.0, rel=1e-3)
        assert result == b_star

    def test_linear_assumption_is_checked(self):
        # scaling from b = 1 predicts b* = 3, where sqrt(b) pays 1.73, not 3
        with pytest.raises(NoConvergence) as err:
            calibrate_b(lambda b: (math.sqrt(b), 0.0, None), budget=3.0)
        assert err.value.last == pytest.approx(3.0)
        assert err.value.residual == pytest.approx(3.0 - math.sqrt(3.0))

    def test_linear_calibration_reports_its_check(self):
        evals = []

        def payment_at(b):
            evals.append(b)
            return 0.25 * b, 0.0, f"report at {b}"

        assert calibrate_b(payment_at, budget=2.0, b_hint=0.5) == (8.0, "report at 8.0")
        assert evals == [0.5, 8.0]

    @hyp_settings(max_examples=40, deadline=None)
    @given(n_players=st.integers(2, 25), deadline=st.floats(0.05, 1.0),
           e0_ratio=st.floats(0.0, 0.9), budget=st.floats(0.1, 10.0),
           scale=st.floats(1e-2, 1e2))
    def test_termination_invariant_under_reward_rescaling(self, n_players, deadline,
                                                          e0_ratio, budget, scale):
        cfg = BayesianConfig(n_players=n_players, strategy=Termination(deadline),
                             join_model=UNIFORM01, e0_ratio=e0_ratio, budget=budget)
        _, rep = calibrated_stage1(cfg)
        _, scaled = calibrated_stage1(cfg.with_reward(scale))
        assert scaled.calibrated_b == pytest.approx(rep.calibrated_b, rel=1e-9)
        assert scaled.expected_efficiency == pytest.approx(rep.expected_efficiency,
                                                           rel=1e-9)


class TestLinearDecay:
    def test_zero_velocity_equals_full_quota(self):
        base = en_config(3, 3, e0_ratio=0.5)
        cfg = BayesianConfig(n_players=3, strategy=LinearDecay(0.0),
                             join_model=UNIFORM01, e0_ratio=0.5)
        g_lin = solve_bne_linear(cfg, grid_size=16, mc_samples=2000, seed=5)
        g_en = solve_bne_earliest_n(base, grid_size=16, mc_samples=2000, seed=5)
        assert np.max(np.abs(g_lin.efforts - g_en.efforts)) < 1e-9

    def test_steep_decay_kills_late_efforts(self):
        cfg = BayesianConfig(n_players=3, strategy=LinearDecay(50.0),
                             join_model=UNIFORM01, e0_ratio=0.2)
        grid = solve_bne_linear(cfg, grid_size=40, mc_samples=2000, seed=6)
        assert np.all(grid.efforts[grid.times > 0.05] == 0.0)

    def test_single_player_linear_schedule(self):
        cfg = BayesianConfig(n_players=1, strategy=LinearDecay(1.0),
                             join_model=UNIFORM01, e0_ratio=0.25)
        grid = solve_bne_linear(cfg, grid_size=41, mc_samples=64, seed=7)
        expect = math.sqrt(0.5 * 0.25) - 0.25
        assert float(np.interp(0.5, grid.times, grid.efforts)) == pytest.approx(
            expect, abs=1e-9)

    def test_schedule_shapes(self):
        cfg = BayesianConfig(n_players=2, strategy=LinearDecay(0.5),
                             join_model=UNIFORM01, max_reward=1.0)
        assert np.allclose(reward_schedule(cfg, [0.0, 1.0, 2.5]),
                           [1.0, 0.5, 0.0])


def swept(config, strategies, **kwargs):
    """Reports of `config` under each strategy, and the best one."""
    points, best = sweep([replace(config, strategy=s) for s in strategies], **kwargs)
    return [rep for _, rep in points], points[best][1]


class TestSweeps:
    def test_flat_weights_prefer_full_quota(self):
        cfg = en_config(5, 5, e0_ratio=0.5, budget=1.0,
                        weightfn=ConstantWeight(1.0))
        _, best = swept(cfg, [EarliestN(n) for n in (2, 3, 4, 5)], grid_size=16,
                        mc_samples=1500, stage1_samples=15_000, seed=8)
        assert best.parameter == 5

    def test_two_slot_weights_prefer_two(self):
        # requester valuing only the two earliest contributions
        w = StepWeight((0.0, 0.35), (1.0, 0.0))
        cfg = en_config(5, 5, e0_ratio=0.2, budget=1.0, weightfn=w)
        _, best = swept(cfg, [EarliestN(n) for n in (2, 3, 5)], grid_size=21,
                        mc_samples=3000, stage1_samples=20_000, seed=9)
        assert best.parameter == 2

    def test_termination_sweep_unimodal_curve(self):
        w = StepWeight((0.0, 0.3, 0.6, 1.0), (1.0, 0.6, 0.2, 0.0))
        cfg = BayesianConfig(n_players=10, strategy=Termination(0.5),
                             join_model=UNIFORM01, weightfn=w, e0_ratio=0.5,
                             budget=1.0)
        reports, best = swept(cfg, [Termination(float(t))
                                    for t in np.linspace(0.1, 1.0, 10)])
        values = [r.expected_efficiency for r in reports]
        assert single_peaked(values, tol=1e-12)
        assert 0.1 < best.parameter < 1.0

    def test_linear_sweep_scores_calibrated_candidates(self):
        cfg = BayesianConfig(n_players=3, strategy=LinearDecay(0.1),
                             join_model=UNIFORM01, e0_ratio=0.5, budget=0.6,
                             weightfn=StepWeight((0.0, 0.5), (1.0, 0.2)))
        reports, best = swept(cfg, [LinearDecay(0.05), LinearDecay(0.4)],
                              grid_size=16, mc_samples=1500,
                              stage1_samples=10_000, seed=10)
        for rep in reports:
            assert abs(rep.expected_payment - 0.6) <= budget_tolerance(
                0.6, rep.payment_stderr)
        assert best.parameter in (0.05, 0.4)


class TestConfigValidation:
    def test_bad_quota(self):
        with pytest.raises(InvalidInput):
            en_config(3, 4, e0_ratio=0.5)

    def test_bad_ratio(self):
        with pytest.raises(InvalidInput):
            en_config(3, 2, e0_ratio=-0.1)

    def test_deadline_before_support(self):
        with pytest.raises(InvalidInput):
            BayesianConfig(n_players=2, strategy=Termination(-1.0),
                           join_model=UNIFORM01)


def test_newton_step_cap_raises(monkeypatch):
    monkeypatch.setattr(bayesian_closed, "NEWTON_STEPS", 2)
    a_samples = spawn_rng(3).exponential(size=200) + 0.1
    with pytest.raises(NoConvergence) as err:
        bayesian_closed._expected_best_responses(a_samples, np.array([2.0, 4.0]),
                                                 1e-8)
    assert err.value.iterations == 2
    assert err.value.residual > 0
    assert err.value.last.shape == (2,)


class TestGridKernel:
    @hyp_settings(max_examples=60, deadline=None)
    @given(size=st.integers(2, 40), quantile_spaced=st.booleans(),
           n_opp=st.integers(1, 6), mc=st.integers(1, 50),
           seed=st.integers(0, 2**32 - 1))
    def test_interp_operator_matches_interp(self, size, quantile_spaced, n_opp,
                                            mc, seed):
        if quantile_spaced:
            times = bayesian_closed._grid_times(ExponentialJoinTimes(0.7), size)
        else:
            times = np.linspace(0.0, 3.0, size)
        rng = spawn_rng(seed)
        lo, hi = times[0], times[-1]
        # draws below, inside and above the grid (open arrival epochs run
        # past its end), plus the knots themselves
        panel = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo),
                            size=(mc, n_opp))
        panel = np.vstack([panel, np.repeat(times[:, None], n_opp, axis=1)])
        efforts = rng.uniform(0.0, 1.0, size=times.size)
        op = bayesian_closed._interp_operator(panel, times)
        assert op.shape == (panel.shape[0], times.size)
        expect = np.interp(panel, times, efforts).sum(axis=1)
        assert np.max(np.abs(op @ efforts - expect)) <= 1e-13

    def test_warm_newton_matches_cold(self):
        rng = spawn_rng(5)
        a_samples = rng.exponential(size=3000) + 0.05
        b_t = np.linspace(0.0, 3.0, 24)
        tol = 1e-8
        cold = bayesian_closed._expected_best_responses(a_samples, b_t, tol)
        # near the root, at both bracket ends and outside the bracket
        start = cold * (1.0 + 0.05 * rng.standard_normal(b_t.size))
        start[::5] = 0.0
        start[1::5] = 0.25 * b_t[1::5]
        start[2::5] = b_t[2::5]
        warm = bayesian_closed._expected_best_responses(a_samples, b_t, tol, start)
        assert np.max(np.abs(warm - cold)) <= 1e-3 * tol

    def test_iteration_cap_raises_with_last_iterate(self, monkeypatch):
        monkeypatch.setattr(bayesian_closed, "BNE_STEPS", 3)
        cfg = en_config(6, 3, e0_ratio=0.3)
        with pytest.raises(NoConvergence) as err:
            solve_bne_earliest_n(cfg, grid_size=16, mc_samples=1000, seed=0)
        assert err.value.iterations == 3
        assert err.value.residual > 1e-8
        last = err.value.last
        assert last.shape == (16,) and np.all(last >= 0)

    def test_one_draw_panel_fails_the_noise_check(self):
        # one opponent draw leaves the noise of the BNE expectation unknown
        with pytest.raises(MonteCarloNoise):
            solve_bne_earliest_n(en_config(4, 2, e0_ratio=0.5), grid_size=12,
                                 mc_samples=1, seed=0)

    def test_outer_iterations_at_n_near_N(self, monkeypatch):
        calls = []
        inner = bayesian_closed._expected_best_responses

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(bayesian_closed, "_expected_best_responses", counted)
        solve_bne_earliest_n(en_config(20, 19, e0_ratio=0.5), mc_samples=4000,
                             seed=0)
        assert len(calls) <= 60

    def test_large_contest_converges_under_the_cap(self):
        cfg = en_config(100, 99, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, mc_samples=4000, seed=0)
        cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
        assert np.any(grid.efforts > 0)
        assert np.all(grid.efforts <= cap + 1e-12)
