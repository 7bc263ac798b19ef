import dataclasses
import math
import operator
import re
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from crowdcontest import bayesian_closed, open_system
from crowdcontest.bayesian_closed import (BayesianConfig, ClosedPrior, EarliestN,
                                          LinearDecay, Stage1Panel, StageOneReport,
                                          Termination, TypeGrid,
                                          budget_tolerance, calibrate_b,
                                          calibrated_stage1, earliest_n_prob,
                                          effort_upper_bound,
                                          participation_threshold,
                                          reward_schedule,
                                          solve_bne_earliest_n,
                                          solve_bne_linear,
                                          solve_bne_termination,
                                          stage1_metrics_mc,
                                          stage1_metrics_termination)
from crowdcontest.contest import symmetric_ne
from crowdcontest.errors import (InfeasibleBudget, InvalidInput, MonteCarloNoise,
                                 NoConvergence)
from crowdcontest.experiments import load_spec, sweep
from crowdcontest.numerics import bisect, spawn_rng
from crowdcontest.open_system import (PoissonPrior, calibrated_open_stage1,
                                      stage1_open_earliest_n,
                                      stage1_open_termination)
from crowdcontest.timing import (ConstantWeight, ExponentialJoinTimes, PoissonModel,
                                 StepWeight, TableJoinTimes, TableWeight,
                                 UniformJoinTimes, sample_arrival_sequences)

from helpers import (argpartition_payment, bne_quadrature_oracle,
                     condition_noise_two_pass, drawn,
                     convolution_best_responses, interp_operator_by_columns,
                     interp_operator_by_knots, interp_operator_stacked,
                     knots_by_search, single_peaked,
                     termination_effort_e0_zero, threshold_analytic_bound,
                     unblocked_stage1)

GOLDEN = (math.sqrt(5) - 1) / 8
UNIFORM01 = UniformJoinTimes(0.0, 1.0)


def en_config(n_players, n, e0_ratio, join_model=UNIFORM01, **kw):
    return BayesianConfig(prior=ClosedPrior(n_players, join_model), strategy=EarliestN(n),
                          e0_ratio=e0_ratio, **kw)


def count_kernel_evaluations(monkeypatch) -> list:
    """A list that grows by one entry at each evaluation of the grid kernel
    from here on: each one-step map and each exact best response, as both
    are `_expected_best_responses` calls."""
    calls = []
    inner = bayesian_closed._expected_best_responses

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bayesian_closed, "_expected_best_responses", counted)
    return calls


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

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf,
                                   np.array([0.2, math.nan])])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(InvalidInput, match="p must lie"):
            earliest_n_prob(p, 5, 2)

    @pytest.mark.parametrize("n_players", [10.0, 10.5, None])
    def test_player_count_must_be_an_integer(self, n_players):
        with pytest.raises(InvalidInput):
            earliest_n_prob(0.5, n_players, 3)

    @pytest.mark.parametrize("n_rewarded", [3.0, 2.5, None])
    def test_rewarded_count_must_be_an_integer(self, n_rewarded):
        with pytest.raises(InvalidInput):
            earliest_n_prob(0.5, 10, n_rewarded)

    @pytest.mark.parametrize("n_players, eps", [(20, 8), (1031, 4096), (1100, 4096)])
    def test_matches_exact_rationals(self, n_players, eps):
        # the CDF at n - 1 against exact sums of C(m, k) a^k (d - a)^(m-k) / d^m
        # with p = a / d, correctly rounded by int division, to eps units of
        # 2^-52 relative (4096 is below 1e-12): at N = 20 the rounding of
        # 1 - p, raised to the power m - k, sets the error. From N = 1031 on
        # the coefficients leave the float range. Values that underflow past
        # 1e-300 have no relative accuracy
        m = n_players - 1
        ps = [0.0, 0.3, 0.5, 1.0] if n_players > 20 else [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        exact = []
        for p in ps:
            a, d = Fraction(p).as_integer_ratio()
            up = list(accumulate([a] * m, operator.mul, initial=1))
            down = list(accumulate([d - a] * m, operator.mul, initial=1))
            sums = accumulate(math.comb(m, k) * up[k] * down[m - k] for k in range(m))
            exact.append([total / d ** m for total in sums])
        for n in sorted({1, 2, m // 4, m // 2, 600, m} & set(range(1, n_players))):
            expect = [row[n - 1] for row in exact]
            assert earliest_n_prob(np.array(ps), n_players, n) == pytest.approx(
                expect, rel=eps * 2.0 ** -52, abs=1e-300)


class TestEffortUpperBound:
    def test_low_nature_branch(self):
        assert effort_upper_bound(1.0, 0.1) == pytest.approx(0.25)

    def test_high_nature_branch(self):
        assert effort_upper_bound(1.0, 0.5) == pytest.approx(0.25 * 0.5 / 0.75**2)

    @pytest.mark.parametrize("e0", [math.nan, math.inf, -0.1])
    def test_e0_must_be_finite_and_non_negative(self, e0):
        with pytest.raises(InvalidInput, match="e0"):
            effort_upper_bound(1.0, e0)

    def test_zero_reward(self):
        assert effort_upper_bound(0.0, 0.3) == 0.0


class TestEarliestNSolver:
    def test_single_player_foc(self):
        cfg = en_config(1, 1, e0_ratio=0.25)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 64, 0, grid_size=12))
        assert np.allclose(grid.efforts, 0.25, atol=1e-12)

    @pytest.mark.parametrize("e0_ratio", [1e-6, 1e-4, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize("n_players", [2, 5, 10, 20, 40])
    def test_full_quota_reduces_to_complete_info(self, monkeypatch, n_players,
                                                 e0_ratio):
        # n = N rewards every joiner: b(t) is exactly flat, so is the BNE, at
        # the complete-information symmetric NE, and every draw pays the same.
        # The kernel starts there, so one Newton step finds it and one exact
        # best response certifies it, also at the small e0 where iterating
        # from another start stalled
        calls = count_kernel_evaluations(monkeypatch)
        cfg = en_config(n_players, n_players, e0_ratio=e0_ratio)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 512, 1, grid_size=12))
        assert len(calls) == 2
        assert np.unique(grid.efforts).size == 1
        expect = symmetric_ne(n_players, 1.0, cfg.nature_effort)
        assert np.max(np.abs(grid.efforts - expect)) <= 1e-8
        panel = drawn(cfg, "panel", 256, 2).with_knots(grid.times)
        assert stage1_metrics_mc(cfg, grid, panel).payment_stderr == 0.0

    def test_three_player_selective_case(self):
        # N=3, n=1, uniform prior, e0 = 0.2 b: early types fight, late types
        # sit out past a hard threshold
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 8000, 2, grid_size=33))
        e_at = lambda t: float(np.interp(t, grid.times, grid.efforts))
        assert e_at(0.0) > e_at(0.3) > e_at(0.4) > 0.0
        assert e_at(0.55) == 0.0
        assert e_at(0.9) == 0.0
        assert np.all(np.diff(grid.efforts) <= 1e-12)
        t_bar = participation_threshold(grid)
        assert 0.4 < t_bar <= threshold_analytic_bound(cfg) + 0.04

    def test_matches_quadrature_oracle_two_players(self):
        cfg = en_config(2, 1, e0_ratio=0.3)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 30_000, 3, grid_size=25))
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 2,
                                       cfg.nature_effort, UNIFORM01.quantile,
                                       n_nodes=4000)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_matches_quadrature_oracle_three_players(self):
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 30_000, 4, grid_size=25))
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 3,
                                       cfg.nature_effort, UNIFORM01.quantile,
                                       n_nodes=300)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_best_responds_within_its_monte_carlo_error(self):
        # N = 20, n = 10, beyond the quadrature oracles: the best responses
        # to the kernel's efforts, with the opponent law taken by convolution
        # instead of the panel, lie within the Monte Carlo error of the
        # kernel's own, stderr(A/(A+e)^2) / (2 E[A/(A+e)^3]) per point: 5.9e-4
        # apart here, against an error of up to 1.7e-3
        cfg = en_config(20, 10, e0_ratio=0.1)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        oracle = convolution_best_responses(grid.b_values, grid.times, 20,
                                            cfg.nature_effort, UNIFORM01.quantile,
                                            grid.efforts)
        opponents = drawn(cfg, "opponents", 4000, 0, grid_size=64)
        a = (cfg.nature_effort + opponents.operator @ grid.efforts)[:, None]
        e = grid.efforts[grid.efforts > 0]
        stderr = np.std(a / (a + e) ** 2, axis=0, ddof=1) / math.sqrt(a.size)
        mc_error = float(np.max(stderr / (2.0 * np.mean(a / (a + e) ** 3, axis=0))))
        assert np.array_equal(oracle > 0, grid.efforts > 0)
        assert np.max(np.abs(oracle - grid.efforts)) <= 3.0 * mc_error

    def test_bne_condition_residual(self):
        # at active grid points the equilibrium condition holds within the
        # Monte Carlo noise band
        cfg = en_config(3, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 20_000, 5, grid_size=21))
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
            grid = solve_bne_earliest_n(
                cfg, drawn(cfg, "opponents", 4000, 6, grid_size=21))
            cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
            assert np.all(grid.efforts <= cap + 1e-10)


class TestParticipationThreshold:
    def test_full_quota_everyone_active(self):
        cfg = en_config(2, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 512, 1, grid_size=12))
        assert participation_threshold(grid) == pytest.approx(1.0)

    def test_priced_out_everywhere(self):
        cfg = en_config(2, 2, e0_ratio=1.5)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 512, 1, grid_size=12))
        assert participation_threshold(grid) == pytest.approx(0.0)

    def test_binding_threshold_near_analytic_bound(self):
        # with one opponent slot the bound b(t) = e0 pins the cutoff to
        # within one grid cell when opponents' efforts vanish there
        cfg = en_config(3, 1, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 8000, 7, grid_size=65))
        bound = threshold_analytic_bound(cfg)
        assert participation_threshold(grid) <= bound + 1e-9


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

    def test_pmf_is_float64_past_exact_integer_range(self):
        # C(69, 34) > 2**63: exact binomial coefficients would make an
        # object array
        assert bayesian_closed._binom_pmf(69, 0.3).dtype == np.float64

    @pytest.mark.parametrize("n", [20, 70, 1100])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_pmf_matches_exact_rationals(self, n, p):
        # every term against C(m, k) a^k (d - a)^(m-k) / d^m with p = a / d
        # exactly, correctly rounded by int division; terms that underflow
        # past 1e-300 have no relative accuracy
        m = n - 1
        a, d = Fraction(p).as_integer_ratio()
        up = list(accumulate([a] * m, operator.mul, initial=1))
        down = list(accumulate([d - a] * m, operator.mul, initial=1))
        scale = d ** m
        exact = [math.comb(m, k) * up[k] * down[m - k] / scale for k in range(n)]
        assert bayesian_closed._binom_pmf(m, p) == pytest.approx(exact, rel=1e-12,
                                                                 abs=1e-300)

    @pytest.mark.parametrize("n", [2, 20, 40])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 0.8])
    def test_root_evaluation_budget(self, monkeypatch, n, p, ratio):
        # Brent's method solves the smooth BNE equation in a handful of
        # evaluations where bisection took about 42
        evals, searched = [], []

        class Pmf(np.ndarray):
            # each evaluation of the BNE equation, inside the root search or
            # not, multiplies the pmf once
            def __mul__(self, other):
                evals.append(other)
                return np.asarray(self) * other

        def counted(f, lo, hi, tol):
            return bisect(lambda x: searched.append(x) or f(x), lo, hi, tol)
        binom_pmf = bayesian_closed._binom_pmf
        monkeypatch.setattr(bayesian_closed, "_binom_pmf",
                            lambda *args: binom_pmf(*args).view(Pmf))
        monkeypatch.setattr(bayesian_closed, "bisect", counted)
        e = solve_bne_termination(n, p, 3.0, 3.0 * ratio)
        assert e > 0
        # the break-even check at x = 1e-12 is the search's first evaluation:
        # no point is evaluated twice, and none outside the search
        assert searched[0] == 1e-12
        assert len(set(searched)) == len(searched) == len(evals) <= 16
        if (n, p, ratio) == (20, 0.5, 0.5):
            assert len(evals) == 12

    def test_root_below_the_bracket_reads_zero(self):
        # the effort tends to 0 as e0 nears b, or as opponents are almost
        # never in time at e0 = 0; below the bracket's 1e-12 b it is 0
        assert solve_bne_termination(1, 0.5, 1.0, 1.0 - 2.0 ** -53) == 0.0
        assert solve_bne_termination(5, 1e-13, 1.0, 0.0) == 0.0


class TestTerminationStage1:
    def test_matches_complete_info_efficiency(self):
        cfg = BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=Termination(1.0),
                             e0_ratio=0.0)
        tables = cfg.draws()
        rep = stage1_metrics_termination(
            cfg, solve_bne_termination(2, tables.opponents, 1.0, 0.0), tables)
        assert rep.expected_efficiency == pytest.approx(0.5, abs=1e-9)
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-9)

    def test_nature_raises_efficiency(self):
        cfg = BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=Termination(1.0),
                             e0_ratio=0.5)
        tables = cfg.draws()
        rep = stage1_metrics_termination(
            cfg, solve_bne_termination(2, tables.opponents, 1.0, 0.5), tables)
        assert rep.expected_efficiency == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-9)

    def test_vanishing_deadline(self):
        cfg = BayesianConfig(prior=ClosedPrior(5, UNIFORM01), strategy=Termination(1e-9),
                             e0_ratio=0.5)
        tables = cfg.draws()
        rep = stage1_metrics_termination(
            cfg, solve_bne_termination(5, tables.opponents, 1.0, 0.5), tables)
        assert rep.expected_efficiency == pytest.approx(0.0, abs=1e-6)
        assert rep.expected_utility == pytest.approx(0.0, abs=1e-6)

    def test_closed_forms_match_monte_carlo_of_definitions(self):
        # independent route: simulate joint type draws, pay the in-time
        # contributors directly, and compare the averaged payment/efficiency
        # against the closed-form expectations
        from crowdcontest.bayesian_closed import TypeGrid
        w = StepWeight((0.0, 0.4, 0.8), (1.0, 0.5, 0.1))
        cfg = BayesianConfig(prior=ClosedPrior(4, UNIFORM01), strategy=Termination(0.6),
                             weightfn=w, e0_ratio=0.3)
        tables = cfg.draws()
        e_star = solve_bne_termination(4, tables.opponents, 1.0, cfg.nature_effort)
        rep = stage1_metrics_termination(cfg, e_star, tables)
        step_grid = TypeGrid(times=np.array([0.0, 0.6, 0.6 + 1e-12, 1.0]),
                             efforts=np.array([e_star, e_star, 0.0, 0.0]),
                             b_values=np.array([1.0, 1.0, 0.0, 0.0]))
        # a termination config draws no panel: take its prior's and weights'
        # panel, recorded as drawn for it
        panel = drawn(replace(cfg, strategy=EarliestN(1)), "panel", 200_000, 21)
        mc = stage1_metrics_mc(cfg, step_grid, replace(panel, key=cfg.draws_key))
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
        cfg = BayesianConfig(prior=ClosedPrior(n, UNIFORM01), strategy=Termination(p),
                             weightfn=w, e0_ratio=e0_ratio)
        tables = cfg.draws()
        e_star = solve_bne_termination(n, tables.opponents, 1.0, e0_ratio)
        rep = stage1_metrics_termination(cfg, e_star, tables)
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
        cfg = BayesianConfig(prior=ClosedPrior(3, UNIFORM01), strategy=Termination(1.0),
                             weightfn=w, e0_ratio=0.2)
        cfg_half = BayesianConfig(prior=ClosedPrior(3, UNIFORM01),
                                  strategy=Termination(0.5), weightfn=w, e0_ratio=0.2)
        rep_full, rep_half = (
            stage1_metrics_termination(c, solve_bne_termination(3, t.opponents, 1.0, 0.2), t)
            for c, t in ((cfg, cfg.draws()), (cfg_half, cfg_half.draws())))
        # beyond the weight support, later deadlines only dilute efforts
        assert rep_half.expected_efficiency > rep_full.expected_efficiency

    @pytest.mark.parametrize("system", ["closed", "open"])
    def test_shared_tables_match_fresh_calibrations(self, system):
        # one deadline's tables, shared by three e0 ratios, give each ratio
        # the calibration it gets from tables of its own
        w = StepWeight((0.0, 0.3, 0.7), (1.0, 0.6, 0.2))
        if system == "closed":
            calibrate = calibrated_stage1
            configs = [BayesianConfig(prior=ClosedPrior(7, UNIFORM01),
                                      strategy=Termination(0.55), weightfn=w, e0_ratio=r,
                                      budget=1.3) for r in (0.2, 0.5, 0.8)]
        else:
            calibrate = calibrated_open_stage1
            prior = PoissonPrior(PoissonModel(rate=6.0, truncation=25))
            configs = [BayesianConfig(prior=prior, strategy=Termination(0.55),
                                      weightfn=w, e0_ratio=r, budget=1.3)
                       for r in (0.2, 0.5, 0.8)]
        tables = configs[0].draws()
        assert isinstance(tables, bayesian_closed.TerminationTables)
        for cfg in configs:
            assert cfg.draws_key == configs[0].draws_key
            e_shared, shared = calibrate(cfg, draws=tables)
            e_alone, alone = calibrate(cfg, cfg.draws())
            assert e_shared == e_alone > 0
            for field in dataclasses.fields(StageOneReport):
                assert getattr(shared, field.name) == getattr(alone, field.name), \
                    field.name

    def test_closed_tables_hold_the_opponent_pmf(self, monkeypatch):
        # the solve takes the Binomial(N-1, F(T)) pmf from the tables, so a
        # calibration on shared tables builds no pmf of its own
        cfg = BayesianConfig(prior=ClosedPrior(7, UNIFORM01), strategy=Termination(0.55),
                             e0_ratio=0.5, budget=1.3)
        tables = cfg.draws()
        p = float(UNIFORM01.cdf(0.55))
        assert np.array_equal(tables.opponents, bayesian_closed._binom_pmf(6, p))
        assert solve_bne_termination(7, tables.opponents, 1.3, 0.4) == \
            solve_bne_termination(7, p, 1.3, 0.4)
        with pytest.raises(InvalidInput):
            solve_bne_termination(6, tables.opponents, 1.3, 0.4)
        fresh = calibrated_stage1(cfg, cfg.draws())
        built = []
        monkeypatch.setattr(bayesian_closed, "_binom_pmf",
                            lambda *args: built.append(args))
        assert calibrated_stage1(cfg, draws=tables) == fresh
        assert built == []


class TestStage1EarliestN:
    def test_full_quota_no_nature_spends_everything(self):
        cfg = en_config(2, 2, e0_ratio=0.0)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 512, 1, grid_size=12))
        rep = stage1_metrics_mc(cfg, grid, drawn(cfg, "panel", 4000, 2))
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-12)
        assert rep.payment_stderr == pytest.approx(0.0, abs=1e-12)
        assert rep.expected_efficiency == pytest.approx(0.5, abs=1e-6)
        assert rep.expected_utility == pytest.approx(0.5, abs=1e-6)

    def test_one_draw_gives_no_standard_error(self):
        cfg = en_config(4, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 2000, 1, grid_size=12))
        with pytest.raises(InvalidInput):
            stage1_metrics_mc(cfg, grid, drawn(cfg, "panel", 1, 2))

    def test_panel_of_another_prior_is_invalid(self):
        cfg = en_config(4, 2, e0_ratio=0.5)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 2000, 1, grid_size=12))
        with pytest.raises(InvalidInput, match="n_players"):
            stage1_metrics_mc(cfg, grid, drawn(en_config(5, 2, 0.5), "panel", 100, 2))

    def test_panel_is_sorted_and_read_only(self):
        panel = drawn(en_config(6, 2, 0.5), "panel", 50, 3)
        assert np.all(np.diff(panel.types, axis=1) >= 0)
        with pytest.raises(ValueError):
            panel.types[0, 0] = 0.0
        with pytest.raises(ValueError):
            panel.weights[0, 0] = 0.0
        with pytest.raises(InvalidInput):
            Stage1Panel(np.array([[0.2, 0.1]]), np.ones((1, 2)))

    @hyp_settings(max_examples=60, deadline=None)
    @given(n_players=st.integers(1, 12), data=st.data(), rows=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1), e0_ratio=st.floats(0.0, 1.0),
           b=st.floats(0.1, 10.0))
    def test_sorted_prefix_pays_the_n_earliest(self, n_players, data, rows, seed,
                                               e0_ratio, b):
        n = data.draw(st.integers(1, n_players))
        rng = np.random.default_rng(seed)
        draws = rng.random((rows, n_players))
        grid = TypeGrid(np.linspace(0.0, 1.0, 9), 0.25 * b * rng.random(9),
                        np.full(9, b))
        cfg = en_config(n_players, n, e0_ratio, max_reward=b)
        panel = Stage1Panel(np.sort(draws, axis=1), np.ones_like(draws), key=cfg.draws_key)
        rep = stage1_metrics_mc(cfg, grid, panel)
        oracle = argpartition_payment(draws, grid.interp(draws), n, b,
                                      cfg.nature_effort)
        assert rep.expected_payment == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_single_player_payment(self):
        cfg = en_config(1, 1, e0_ratio=0.25)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 64, 0, grid_size=12))
        rep = stage1_metrics_mc(cfg, grid, drawn(cfg, "panel", 2000, 3))
        assert rep.expected_payment == pytest.approx(0.5, abs=1e-12)

    def test_stage1_mc_matches_tensor_quadrature(self):
        # N=2, n=1: the payment and efficiency expectations reduce to 2-d
        # integrals over the type square, computable by dense midpoint
        # quadrature as an independent oracle for the Monte Carlo path
        w = StepWeight((0.0, 0.5), (1.0, 0.4))
        cfg = en_config(2, 1, e0_ratio=0.3, weightfn=w)
        grid = solve_bne_earliest_n(
            cfg, drawn(cfg, "opponents", 20_000, 13, grid_size=25))
        rep = stage1_metrics_mc(cfg, grid, drawn(cfg, "panel", 150_000, 14))

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
    OPEN_PRIOR = PoissonPrior(PoissonModel(rate=4.0, truncation=8))

    @pytest.mark.parametrize("prior, strategy", [
        (ClosedPrior(5, UNIFORM01), EarliestN(2)), (OPEN_PRIOR, EarliestN(2)),
        (ClosedPrior(5, UNIFORM01), Termination(0.5)), (OPEN_PRIOR, Termination(0.5))],
        ids=["closed-earliest-n", "open-earliest-n", "closed-termination",
             "open-termination"])
    def test_either_calibration_serves_either_prior(self, prior, strategy):
        # the closed and open calibrations differ only in the names they
        # call: the prior supplies all the rest, so each gives the same
        # (solution, report) pair on a config over either prior
        cfg = BayesianConfig(prior=prior, strategy=strategy,
                             weightfn=StepWeight((0, 0.3, 0.6), (1, 0.6, 0.2)),
                             e0_ratio=0.5)
        draws = cfg.draws(12, 500, 2000, 1)
        solution, rep = calibrated_stage1(cfg, draws)
        open_solution, open_rep = calibrated_open_stage1(cfg, draws)
        assert rep == open_rep
        if isinstance(strategy, Termination):
            assert solution == open_solution
        else:
            for field in ("times", "efforts", "b_values"):
                assert np.array_equal(getattr(solution, field), getattr(open_solution, field))

    def test_complete_info_identity(self):
        # full quota, no nature: E[R] = b so the calibrated b is the budget
        cfg = en_config(2, 2, e0_ratio=0.0, budget=0.7)
        grid, rep = calibrated_stage1(cfg, cfg.draws(12, 512, 4000, 0))
        assert rep.calibrated_b == pytest.approx(0.7, abs=1e-9)

    def test_termination_algebra_oracle(self):
        # p=1, N=2, e0 = b/2, B=1/2:
        # E[R] = b (sqrt(5)-1)/4 / ((sqrt(5)-1)/4 + 1/2) = 0.381966 b
        cfg = BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=Termination(1.0),
                             e0_ratio=0.5, budget=0.5)
        e_star, rep = calibrated_stage1(cfg, cfg.draws())
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
        _, rep1 = calibrated_stage1(cfg1, cfg1.draws(**kw))
        _, rep2 = calibrated_stage1(cfg2, cfg2.draws(**kw))
        assert rep2.calibrated_b == pytest.approx(2 * rep1.calibrated_b, rel=1e-6)
        assert rep2.expected_efficiency == pytest.approx(rep1.expected_efficiency,
                                                         rel=1e-6)

    def test_fresh_seed_budget_balance(self):
        cfg = en_config(4, 2, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_stage1(cfg, cfg.draws(25, 4000, 40_000, 11))
        fresh = stage1_metrics_mc(cfg.with_reward(rep.calibrated_b), grid,
                                  drawn(cfg, "panel", 40_000, 777))
        tol = budget_tolerance(cfg.budget, fresh.payment_stderr)
        assert abs(fresh.expected_payment - cfg.budget) <= tol

    def test_rescale_matches_direct_resolve(self):
        # the b=1 solve rescaled to b* agrees with re-solving at b* outright
        cfg = en_config(3, 1, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_stage1(cfg, cfg.draws(25, 6000, 20_000, 12))
        direct = solve_bne_earliest_n(cfg.with_reward(rep.calibrated_b),
                                      drawn(cfg, "opponents", 6000, 12, grid_size=25))
        assert np.max(np.abs(direct.efforts - grid.efforts)) < 1e-6

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudget):
            calibrate_b(lambda b: (0.0, 0.0, None), budget=1.0,
                        assume_linear=False)
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

    @pytest.mark.parametrize("power, budget", [(4, 3.0), (8, 100.0)])
    def test_convex_payment_root_search(self, power, budget):
        # E[R] = b^power is convex, where secant steps stall at one bracket
        # end; Brent's method takes at most 8 evaluations, none repeated
        evals = []
        b_star, result = calibrate_b(
            lambda b: evals.append(b) or (b ** power, 0.0, b), budget,
            assume_linear=False)
        assert abs(b_star ** power - budget) <= budget_tolerance(budget, 0.0)
        assert result == b_star
        assert len(evals) <= 8 and len(set(evals)) == len(evals)

    def test_payment_jumping_over_the_budget_fails(self):
        # E[R] jumps from 0.5 to 1.5 at b = 2, so no b meets B = 1: the
        # bracket [1, 2] closes on b = 2 within 60 evaluations
        evals = []
        with pytest.raises(NoConvergence):
            calibrate_b(lambda b: evals.append(b) or (0.5 if b < 2 else 1.5, 0.0, b),
                        budget=1.0, assume_linear=False)
        assert len(evals) <= 60

    def test_payment_above_the_budget_at_every_scale(self):
        # the halving gives up below 1 / CALIBRATION_B_MAX, as the doubling
        # does above CALIBRATION_B_MAX
        evals = []
        with pytest.raises(InfeasibleBudget):
            calibrate_b(lambda b: evals.append(b) or (2.0, 0.0, b), budget=1.0,
                        assume_linear=False)
        assert min(evals) >= 1.0 / bayesian_closed.CALIBRATION_B_MAX
        assert len(evals) == len(set(evals))

    def test_linear_calibration_reports_its_check(self):
        # one evaluation at the hint, its point scaled by B / E[R] = 16
        evals = []

        def report_at(b):
            return StageOneReport(parameter=2.0, calibrated_b=b,
                                  expected_utility=0.3 * b, expected_payment=0.25 * b,
                                  payment_stderr=0.01 * b, expected_efficiency=0.6,
                                  efficiency_stderr=0.02)

        def payment_at(b):
            evals.append(b)
            return 0.25 * b, 0.01 * b, (0.1 * b, report_at(b))

        assert calibrate_b(payment_at, budget=2.0, b_hint=0.5) \
            == (8.0, (0.1 * 8.0, report_at(8.0)))
        assert evals == [0.5]

    @pytest.mark.parametrize("system", ["closed-earliest-n", "open-earliest-n",
                                        "closed-termination", "open-termination"])
    def test_scaled_report_matches_fresh_evaluation(self, system):
        # the homogeneous calibration scales its one evaluation to b*; Stage I
        # evaluated afresh at b* on the returned solution gives the same report
        kw = dict(grid_size=25, mc_samples=4000, seed=3)
        if system == "closed-earliest-n":
            cfg = en_config(5, 2, e0_ratio=0.4, budget=1.7)
            draws = cfg.draws(stage1_samples=20_000, **kw)
            solution, rep = calibrated_stage1(cfg, draws=draws)
            fresh = stage1_metrics_mc(cfg.with_reward(rep.calibrated_b), solution,
                                      draws[0])
        elif system == "open-earliest-n":
            cfg = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=4.0, truncation=12)),
                                 strategy=EarliestN(3), e0_ratio=0.4, budget=1.7)
            draws = cfg.draws(stage1_samples=20_000, **kw)
            solution, rep = calibrated_open_stage1(cfg, draws=draws)
            fresh = stage1_open_earliest_n(cfg.with_reward(rep.calibrated_b), solution,
                                           draws[0])
        elif system == "closed-termination":
            cfg = BayesianConfig(prior=ClosedPrior(6, UNIFORM01),
                                 strategy=Termination(0.6), e0_ratio=0.4, budget=1.7)
            tables = cfg.draws()
            solution, rep = calibrated_stage1(cfg, tables)
            fresh = stage1_metrics_termination(cfg.with_reward(rep.calibrated_b),
                                               solution, tables)
        else:
            cfg = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=4.0, truncation=12)),
                                 strategy=Termination(0.8), e0_ratio=0.4, budget=1.7)
            tables = cfg.draws()
            solution, rep = calibrated_open_stage1(cfg, tables)
            fresh = stage1_open_termination(cfg.with_reward(rep.calibrated_b), solution,
                                            tables)
        assert rep.calibrated_b != cfg.max_reward
        assert rep.expected_payment == pytest.approx(cfg.budget, rel=1e-12)
        for field in ("expected_payment", "payment_stderr", "expected_utility",
                      "expected_efficiency", "efficiency_stderr"):
            assert getattr(rep, field) == pytest.approx(getattr(fresh, field),
                                                        rel=1e-12), field

    def test_homogeneous_calibration_evaluates_each_stage_once(self, monkeypatch):
        calls = []

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("solve_bne_earliest_n", "stage1_metrics_mc"):
            counted(bayesian_closed, name)
        for name in ("solve_bne_open_earliest_n", "stage1_open_earliest_n"):
            counted(open_system, name)
        kw = dict(grid_size=16, mc_samples=2000, stage1_samples=4000, seed=2)
        closed = en_config(4, 2, e0_ratio=0.5)
        calibrated_stage1(closed, closed.draws(**kw))
        open_ = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=4.0, truncation=8)),
                               strategy=EarliestN(2), e0_ratio=0.5)
        calibrated_open_stage1(open_, open_.draws(**kw))
        assert sorted(calls) == ["solve_bne_earliest_n", "solve_bne_open_earliest_n",
                                 "stage1_metrics_mc", "stage1_open_earliest_n"]

    @hyp_settings(max_examples=40, deadline=None)
    @given(n_players=st.integers(2, 25), deadline=st.floats(0.05, 1.0),
           e0_ratio=st.floats(0.0, 0.9), budget=st.floats(0.1, 10.0),
           scale=st.floats(1e-2, 1e2))
    # at a configured reward of 1/64, an absolute tolerance on e (not on e / b)
    # moved b* by 1.25e-9 relative
    @example(n_players=7, deadline=1.0, e0_ratio=0.75, budget=1.0, scale=1 / 64)
    def test_termination_invariant_under_reward_rescaling(self, n_players, deadline,
                                                          e0_ratio, budget, scale):
        cfg = BayesianConfig(prior=ClosedPrior(n_players, UNIFORM01),
                             strategy=Termination(deadline), e0_ratio=e0_ratio,
                             budget=budget)
        tables = cfg.draws()
        _, rep = calibrated_stage1(cfg, tables)
        _, scaled = calibrated_stage1(cfg.with_reward(scale), tables)
        assert scaled.calibrated_b == pytest.approx(rep.calibrated_b, rel=1e-9)
        assert scaled.expected_efficiency == pytest.approx(rep.expected_efficiency,
                                                           rel=1e-9)


class TestDrawsRequired:
    """Every stage takes its draws: none builds default ones, so no solve,
    report or calibration hides a seed or a Monte Carlo size."""

    CLOSED = en_config(3, 2, e0_ratio=0.5)
    LINEAR = BayesianConfig(prior=ClosedPrior(3, UNIFORM01), strategy=LinearDecay(0.5),
                            e0_ratio=0.5)
    TERMINATION = BayesianConfig(prior=ClosedPrior(3, UNIFORM01),
                                 strategy=Termination(0.5), e0_ratio=0.5)
    OPEN = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=4.0, truncation=3)),
                          strategy=EarliestN(2), e0_ratio=0.5)
    OPEN_TERMINATION = replace(OPEN, strategy=Termination(0.5))

    @pytest.mark.parametrize("stage, cfg, args", [
        (solve_bne_earliest_n, CLOSED, ()),
        (solve_bne_linear, LINEAR, ()),
        (stage1_metrics_termination, TERMINATION, (0.1,)),
        (calibrated_stage1, CLOSED, ()),
        (open_system.solve_bne_open_earliest_n, OPEN, ()),
        (open_system.solve_bne_open_termination, OPEN_TERMINATION, ()),
        (stage1_open_termination, OPEN_TERMINATION, (0.1,)),
        (calibrated_open_stage1, OPEN, ())],
        ids=["earliest-n", "linear", "termination-report", "calibration",
             "open-earliest-n", "open-termination", "open-termination-report",
             "open-calibration"])
    def test_stage_without_draws_is_rejected(self, stage, cfg, args):
        with pytest.raises(TypeError):
            stage(cfg, *args)

    @pytest.mark.parametrize("size", [0, 1])
    @pytest.mark.parametrize("field", ["grid_size", "mc_samples", "stage1_samples"])
    @pytest.mark.parametrize("cfg", [CLOSED, OPEN], ids=["closed", "open"])
    def test_draws_reject_fewer_than_two_draws_or_points(self, cfg, field, size):
        # a standard error needs 2 draws and a grid 2 points; fewer draws once
        # failed later, if at all
        sizes = dict(grid_size=16, mc_samples=16, stage1_samples=16, seed=0)
        with pytest.raises(InvalidInput, match=field):
            cfg.draws(**{**sizes, field: size})

    @pytest.mark.parametrize("case", ["weights", "stage1-join-model", "poisson-rate",
                                      "deadline", "stage2-join-model"])
    def test_draws_of_another_config_are_rejected(self, case):
        # each stage here once returned a report from the draws of another
        # prior, weight function or deadline: they pass every shape check
        sizes = dict(grid_size=16, mc_samples=1000, stage1_samples=4000, seed=3)
        step = StepWeight((0, 1.5, 3, 6), (1, 0.6, 0.2, 0))
        cfg = en_config(6, 3, e0_ratio=0.5, join_model=UniformJoinTimes(0.0, 6.0))
        if case == "weights":
            draws = replace(cfg, weightfn=step).draws(**sizes)
            stage, args = calibrated_stage1, (cfg, draws)
        elif case == "stage1-join-model":
            narrow = en_config(6, 3, e0_ratio=0.5, join_model=UniformJoinTimes(0.0, 3.0))
            grid = solve_bne_earliest_n(
                narrow, drawn(narrow, "opponents", 1000, 3, grid_size=16))
            stage, args = stage1_metrics_mc, (narrow, grid, drawn(cfg, "panel", 4000, 4))
        elif case == "poisson-rate":
            slow = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=3.0, truncation=10)),
                                  strategy=EarliestN(3), weightfn=step, e0_ratio=0.5)
            fast = replace(slow, prior=PoissonPrior(PoissonModel(rate=9.0, truncation=10)))
            stage, args = calibrated_open_stage1, (slow, fast.draws(**sizes))
        elif case == "deadline":
            late = replace(cfg, strategy=Termination(4.0), weightfn=step)
            draws = replace(late, strategy=Termination(2.0)).draws()
            stage, args = calibrated_stage1, (late, draws)
        else:
            # a table prior with the uniform prior's quantile grid at 4 points
            table = TableJoinTimes((0.0, 1.0, 2.0, 4.0, 5.0, 6.0),
                                   (0.0, 0.1, 1 / 3, 2 / 3, 0.9, 1.0))
            other = replace(cfg, prior=ClosedPrior(6, table))
            draws = (cfg.draws(4, 1000, 4000, 3)[0],
                     drawn(other, "opponents", 1000, 3, grid_size=4))
            stage, args = calibrated_stage1, (cfg, draws)
        with pytest.raises(InvalidInput, match="drawn for another"):
            stage(*args)

    def test_draws_of_a_twin_table_prior_are_accepted(self):
        # table models compare by their knots: draws of a prior and weights
        # built again from the same knots serve the twin, and other knots
        # are still rejected, named in the message
        def config(cdf):
            return en_config(4, 2, e0_ratio=0.5, join_model=TableJoinTimes((0, 1, 6), cdf),
                             weightfn=TableWeight((0, 3, 6), (1, 0.5, 0)))

        cfg, twin = config((0, 0.5, 1)), config((0, 0.5, 1))
        assert twin == cfg and hash(twin.draws_key) == hash(cfg.draws_key)
        draws = cfg.draws(12, 500, 1000, 1)
        alone, alone_rep = calibrated_stage1(cfg, draws)
        grid, rep = calibrated_stage1(twin, draws)
        assert rep == alone_rep and np.array_equal(grid.efforts, alone.efforts)
        expected = re.escape("TableJoinTimes(times=(0.0, 1.0, 6.0), "
                             "cdf_values=(0.0, 0.4, 1.0))")
        with pytest.raises(InvalidInput, match=f"drawn for another .*{expected}"):
            calibrated_stage1(config((0, 0.4, 1)), draws)


class TestLinearDecay:
    @pytest.fixture(scope="class")
    def preset_solution(self):
        """closed-linear-step at h = 0.2 and its first e0 ratio, with its draws,
        its Stage-II solution and its Stage-I report."""
        spec = load_spec("closed-linear-step")
        cfg = BayesianConfig(prior=spec.prior, strategy=LinearDecay(0.2),
                             weightfn=spec.weightfn,
                             e0_ratio=spec.e0_ratios[0])
        panel, opponents = cfg.draws(spec.grid_size, spec.mc_samples,
                                     spec.stage1_samples, spec.seed)
        grid = solve_bne_linear(cfg, opponents)
        return cfg, panel, opponents, grid, stage1_metrics_mc(cfg, grid, panel)

    @pytest.mark.parametrize("c, rel", [(0.5, 0.0), (2.0, 0.0), (1.7, 1e-12), (3.0, 1e-12)])
    def test_joint_scaling_of_reward_and_velocity(self, preset_solution, c, rel):
        # b(t) = max(0, b - h t) and e0 = e0_ratio b are homogeneous of degree
        # 1 in (b, h) jointly: at (c b, c h) the solve and its report are c
        # times those at (b, h), bit for bit when c is a power of 2
        cfg, panel, opponents, grid, rep = preset_solution
        scaled_cfg = replace(cfg, strategy=LinearDecay(c * cfg.strategy.velocity),
                             max_reward=c * cfg.max_reward)
        scaled = solve_bne_linear(scaled_cfg, opponents)
        scaled_rep = stage1_metrics_mc(scaled_cfg, scaled, panel)
        for field in ("b_values", "efforts"):
            assert getattr(scaled, field) == pytest.approx(c * getattr(grid, field),
                                                           rel=rel, abs=0.0), field
        expect = replace(rep.scaled(c), parameter=scaled_cfg.strategy.velocity)
        for field in dataclasses.fields(StageOneReport):
            assert getattr(scaled_rep, field.name) == pytest.approx(
                getattr(expect, field.name), rel=rel, abs=0.0), field.name

    def test_zero_velocity_equals_full_quota(self):
        base = en_config(3, 3, e0_ratio=0.5)
        cfg = BayesianConfig(prior=ClosedPrior(3, UNIFORM01), strategy=LinearDecay(0.0),
                             e0_ratio=0.5)
        g_lin = solve_bne_linear(cfg, drawn(cfg, "opponents", 2000, 5, grid_size=16))
        g_en = solve_bne_earliest_n(base, drawn(base, "opponents", 2000, 5, grid_size=16))
        assert np.max(np.abs(g_lin.efforts - g_en.efforts)) < 1e-9

    def test_steep_decay_kills_late_efforts(self):
        cfg = BayesianConfig(prior=ClosedPrior(3, UNIFORM01), strategy=LinearDecay(50.0),
                             e0_ratio=0.2)
        grid = solve_bne_linear(cfg, drawn(cfg, "opponents", 2000, 6, grid_size=40))
        assert np.all(grid.efforts[grid.times > 0.05] == 0.0)

    def test_single_player_linear_schedule(self):
        cfg = BayesianConfig(prior=ClosedPrior(1, UNIFORM01), strategy=LinearDecay(1.0),
                             e0_ratio=0.25)
        grid = solve_bne_linear(cfg, drawn(cfg, "opponents", 64, 7, grid_size=41))
        expect = math.sqrt(0.5 * 0.25) - 0.25
        assert float(np.interp(0.5, grid.times, grid.efforts)) == pytest.approx(
            expect, abs=1e-9)

    def test_schedule_shapes(self):
        cfg = BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=LinearDecay(0.5),
                             max_reward=1.0)
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
        cfg = BayesianConfig(prior=ClosedPrior(10, UNIFORM01), strategy=Termination(0.5),
                             weightfn=w, e0_ratio=0.5, budget=1.0)
        reports, best = swept(cfg, [Termination(float(t))
                                    for t in np.linspace(0.1, 1.0, 10)])
        values = [r.expected_efficiency for r in reports]
        assert single_peaked(values, tol=1e-12)
        assert 0.1 < best.parameter < 1.0

    def test_linear_sweep_scores_calibrated_candidates(self):
        cfg = BayesianConfig(prior=ClosedPrior(3, UNIFORM01), strategy=LinearDecay(0.1),
                             e0_ratio=0.5, budget=0.6,
                             weightfn=StepWeight((0.0, 0.5), (1.0, 0.2)))
        reports, best = swept(cfg, [LinearDecay(0.05), LinearDecay(0.4)],
                              grid_size=16, mc_samples=1500,
                              stage1_samples=10_000, seed=10)
        for rep in reports:
            assert abs(rep.expected_payment - 0.6) <= budget_tolerance(
                0.6, rep.payment_stderr)
        assert best.parameter in (0.05, 0.4)


class TestConfigValidation:
    @pytest.mark.parametrize("prior", [UNIFORM01, None, (5, UNIFORM01)])
    def test_prior_must_be_a_prior(self, prior):
        # such a config once failed with AttributeError on `prior.admit`
        with pytest.raises(InvalidInput, match="prior must be a ClosedPrior or PoissonPrior"):
            BayesianConfig(prior=prior, strategy=EarliestN(1))

    def test_bad_quota(self):
        with pytest.raises(InvalidInput):
            en_config(3, 4, e0_ratio=0.5)

    def test_bad_ratio(self):
        with pytest.raises(InvalidInput):
            en_config(3, 2, e0_ratio=-0.1)

    def test_deadline_before_support(self):
        with pytest.raises(InvalidInput):
            BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=Termination(-1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["max_reward", "e0_ratio", "budget", "deadline",
                                       "velocity"])
    def test_non_finite_field(self, field, value):
        strategy = {"deadline": Termination, "velocity": LinearDecay}.get(field)
        with pytest.raises(InvalidInput, match=field):
            if strategy is not None:
                BayesianConfig(prior=ClosedPrior(2, UNIFORM01), strategy=strategy(value))
            else:
                en_config(3, 2, **{"e0_ratio": 0.5, field: value})

    @pytest.mark.parametrize("n_players, n", [(3, 2.5), (3, 2.0), (3.0, 2)])
    def test_non_integer_n(self, n_players, n):
        with pytest.raises(InvalidInput, match="integer"):
            BayesianConfig(prior=ClosedPrior(n_players, UNIFORM01), strategy=EarliestN(n))


def test_newton_step_cap_raises(monkeypatch):
    monkeypatch.setattr(bayesian_closed, "NEWTON_STEPS", 2)
    a_samples = spawn_rng(3).exponential(size=200) + 0.1
    with pytest.raises(NoConvergence) as err:
        bayesian_closed._expected_best_responses(a_samples, np.array([2.0, 4.0]))
    assert err.value.iterations == 2
    assert err.value.residual > 0
    assert err.value.last.shape == (2,)


class TestGridKernel:
    @hyp_settings(max_examples=60, deadline=None)
    @given(size=st.integers(2, 40), quantile_spaced=st.booleans(),
           n_opp=st.integers(0, 6), mc=st.integers(1, 50),
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
        assert not op.flags.writeable
        expect = np.interp(panel, times, efforts).sum(axis=1)
        assert np.max(np.abs(op @ efforts - expect)) <= 1e-13

    def test_operator_without_opponents_is_zero(self):
        # N = 1 leaves no opponent columns: every draw's aggregate is e0
        opponents = drawn(en_config(1, 1, e0_ratio=0.5), "opponents", 5, 0, grid_size=9)
        op = opponents.operator
        assert op.shape == (5, 9) and not np.any(op)
        assert not op.flags.writeable

    @pytest.mark.parametrize("e0_ratio", [0.0, 0.25, 2.0])
    @pytest.mark.parametrize("system", ["closed-earliest-n", "closed-linear",
                                        "open-earliest-n"])
    def test_lone_contributor_meets_its_closed_form(self, system, e0_ratio):
        # without opponents (N = 1, or truncation M = 1) the general kernel
        # settles on the effort of a lone contributor against nature
        if system == "open-earliest-n":
            cfg = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=3.0, truncation=1)),
                                 strategy=EarliestN(1), e0_ratio=e0_ratio)
            grid = open_system.solve_bne_open_earliest_n(
                cfg, drawn(cfg, "opponents", 32, 0, grid_size=16))
        elif system == "closed-linear":
            cfg = BayesianConfig(prior=ClosedPrior(1, UNIFORM01),
                                 strategy=LinearDecay(1.0), e0_ratio=e0_ratio)
            grid = solve_bne_linear(cfg, drawn(cfg, "opponents", 32, 0, grid_size=16))
        else:
            cfg = en_config(1, 1, e0_ratio=e0_ratio)
            grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 32, 0, grid_size=16))
        e0 = cfg.nature_effort
        expect = np.maximum(np.sqrt(grid.b_values * e0) - e0, 0.0)
        assert np.max(np.abs(grid.efforts - expect)) <= 1e-12

    def test_opponents_of_another_grid_are_invalid(self):
        # opponents carry their grid: the config's own quantile-spaced grid
        # serves at any size, one placed for another join model does not, and
        # neither do opponents drawn for another N on the same grid
        cfg = en_config(4, 2, e0_ratio=0.5)
        other_model = en_config(4, 2, e0_ratio=0.5, join_model=UniformJoinTimes(0.0, 6.0))
        for other, match in ((other_model, "join model"),
                             (en_config(6, 2, e0_ratio=0.5), "another N")):
            for solve, config in ((solve_bne_earliest_n, cfg),
                                  (solve_bne_linear,
                                   replace(cfg, strategy=LinearDecay(0.5)))):
                with pytest.raises(InvalidInput, match=match):
                    solve(config, drawn(other, "opponents", 200, 0, grid_size=12))
        for size in (12, 16):
            grid = solve_bne_earliest_n(
                cfg, drawn(cfg, "opponents", 200, 0, grid_size=size))
            assert grid.times.size == size

    def test_warm_newton_matches_cold(self):
        rng = spawn_rng(5)
        a_samples = rng.exponential(size=3000) + 0.05
        b_t = np.linspace(0.0, 3.0, 24)
        tol = 1e-8
        cold, _ = bayesian_closed._expected_best_responses(a_samples, b_t)
        # near the root, at both bracket ends and outside the bracket
        start = cold * (1.0 + 0.05 * rng.standard_normal(b_t.size))
        start[::5] = 0.0
        start[1::5] = 0.25 * b_t[1::5]
        start[2::5] = b_t[2::5]
        warm, _ = bayesian_closed._expected_best_responses(a_samples, b_t, start)
        assert np.max(np.abs(warm - cold)) <= 1e-3 * tol

    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mc=st.integers(1, 300),
           b_t=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
           data=st.data())
    def test_newton_iterates_rise_to_the_root(self, seed, mc, b_t, data):
        # g(e) = E[A/(A+e)^2] b - 1 is convex and decreasing in e, so after
        # the first step of the one-step map N every iterate lies at or left
        # of the root and rises to it; the exact best response is N iterated
        slack = 1e-3 * bayesian_closed.BNE_TOL
        rng = spawn_rng(seed)
        a_samples = rng.exponential(size=mc) * rng.uniform(0.01, 3.0) + 1e-3
        b_t = np.array(b_t)
        root, _ = bayesian_closed._expected_best_responses(a_samples, b_t)
        quarter = 0.25 * b_t
        # 0, near or right of the root, at b(t)/4 and above it
        start = np.array([data.draw(st.sampled_from([0.0, r, q, 2.0 * q, 4.0 * q]))
                          * data.draw(st.floats(0.5, 1.5))
                          for r, q in zip(root, quarter)])
        warm, _ = bayesian_closed._expected_best_responses(a_samples, b_t, start)
        assert np.max(np.abs(warm - root)) <= slack
        x, _ = bayesian_closed._expected_best_responses(a_samples, b_t, start,
                                                        one_step=True)
        for _ in range(bayesian_closed.NEWTON_STEPS):
            assert np.all(x <= root + slack)
            step, _ = bayesian_closed._expected_best_responses(a_samples, b_t, x,
                                                               one_step=True)
            assert np.all(step >= x - slack)
            x, change = step, float(np.max(np.abs(step - x)))
            if change <= slack:
                break
        assert np.max(np.abs(x - root)) <= slack

    @pytest.mark.parametrize("e0_ratio, n, bracketed_means",
                             [(0.0, 2, 66), (1e-3, 4, 22)])
    def test_best_responses_take_no_more_inner_steps(self, monkeypatch, e0_ratio, n,
                                                     bracketed_means):
        # (5, n, e0) on the stall grid's panel: the exact best responses
        # evaluate E[A/(A+x)^k] no more often than the bracketed Newton solve
        # they replaced (66 and 22 evaluations, 41 and 22 without the bracket)
        means_calls = []
        inner = bayesian_closed._condition_means

        def counted(*args):
            means, slopes = inner(*args)

            def counted_means(x):
                means_calls.append(1)
                return means(x)
            return counted_means, slopes

        monkeypatch.setattr(bayesian_closed, "_condition_means", counted)
        cfg = en_config(5, n, e0_ratio, join_model=UniformJoinTimes(0.0, 6.0))
        solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        assert len(means_calls) <= bracketed_means

    def test_iteration_cap_raises_with_last_iterate(self, monkeypatch):
        monkeypatch.setattr(bayesian_closed, "BNE_STEPS", 3)
        cfg = en_config(6, 3, e0_ratio=0.3)
        with pytest.raises(NoConvergence) as err:
            solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 1000, 0, grid_size=16))
        assert err.value.iterations == 3
        assert err.value.residual > 1e-8
        last = err.value.last
        assert last.shape == (16,) and np.all(last >= 0)

    def test_one_draw_panel_fails_the_noise_check(self):
        # one opponent draw leaves the noise of the BNE expectation unknown;
        # the builder draws at least 2, so the operator is cut to its first row
        for cfg in (en_config(4, 2, e0_ratio=0.5),
                    # a lone contributor runs the same kernel and the same check
                    en_config(1, 1, e0_ratio=0.5)):
            opponents = drawn(cfg, "opponents", 2, 0, grid_size=12)
            with pytest.raises(MonteCarloNoise):
                solve_bne_earliest_n(cfg, opponents._replace(
                    operator=opponents.operator[:1]))

    def test_outer_iterations_at_n_near_N(self, monkeypatch):
        # 5 kernel evaluations: the start, three Newton steps and the
        # certifying best response
        calls = count_kernel_evaluations(monkeypatch)
        cfg = en_config(20, 19, e0_ratio=0.5)
        solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        assert len(calls) <= 5

    def test_jacobian_matches_finite_differences(self):
        # J = D M against central differences of the best-response map G at
        # a random iterate around the complete-information start; J has zero
        # rows, and G zero derivatives, where G(x) = 0
        cfg = en_config(4, 2, e0_ratio=0.3)
        e0 = cfg.nature_effort
        opponents = drawn(cfg, "opponents", 2000, 0, grid_size=12)
        op = opponents.operator
        b_t = reward_schedule(cfg, opponents.times)
        x = symmetric_ne(4, b_t, e0) * spawn_rng(3).uniform(0.5, 1.5, b_t.size)

        def best_responses(x):
            return bayesian_closed._expected_best_responses(e0 + op @ x, b_t)

        br, slopes = best_responses(x)
        assert np.any(br == 0) and np.any(br > 0)
        jac = np.zeros((x.size, x.size))
        jac[br > 0] = slopes(op)
        h = 1e-6
        diffs = np.column_stack([(best_responses(x + h * step)[0]
                                  - best_responses(x - h * step)[0]) / (2 * h)
                                 for step in np.eye(x.size)])
        assert np.max(np.abs(jac - diffs)) <= 1e-3 * np.max(np.abs(diffs))

    def test_one_step_jacobian_at_the_fixed_point(self):
        # at the BNE, f(x) = N(x) - x of the one-step map has the Jacobian
        # -(I - D M) that the kernel's Newton step solves with, -I in the
        # rows of points that sit out: 5e-10 off here, 0.39 at 1.3 x
        cfg = en_config(4, 2, e0_ratio=0.3)
        e0 = cfg.nature_effort
        opponents = drawn(cfg, "opponents", 2000, 0, grid_size=12)
        op = opponents.operator
        grid = solve_bne_earliest_n(cfg, opponents)

        def residual(x):
            step, slopes = bayesian_closed._expected_best_responses(
                e0 + op @ x, grid.b_values, x, one_step=True)
            return step - x, step, slopes

        _, step, slopes = residual(grid.efforts)
        assert np.any(step == 0) and np.any(step > 0)
        jac = np.zeros((step.size, step.size))
        jac[step > 0] = slopes(op)
        h = 1e-6
        diffs = np.column_stack([(residual(grid.efforts + h * unit)[0]
                                  - residual(grid.efforts - h * unit)[0]) / (2 * h)
                                 for unit in np.eye(step.size)])
        assert np.max(np.abs(diffs + np.eye(step.size) - jac)) <= 1e-8

    def test_two_players_without_nature_converge(self, monkeypatch):
        # (N, n, e0) = (2, 1, 0), where Newton needs its plain-best-response
        # fallback once: 15 kernel evaluations, 3 of them rejected steps and 2
        # exact best responses (the fallback and the certification)
        calls = count_kernel_evaluations(monkeypatch)
        cfg = en_config(2, 1, e0_ratio=0.0)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        assert len(calls) <= 15
        again, _ = bayesian_closed._expected_best_responses(
            self._opposition(cfg, grid), grid.b_values)
        assert grid.efforts.max() > 0.1
        assert np.max(np.abs(again - grid.efforts)) <= 1e-7

    def test_one_exact_best_response_per_iterate(self, monkeypatch):
        # (N, n, e0) = (8, 1, 0) on the stall grid's panel: at one iterate the
        # certification fails and no Newton step passes Armijo, so the
        # fallback takes the plain best response there; it reuses the
        # certification's rather than computing G at that iterate again
        exact = []
        inner = bayesian_closed._expected_best_responses

        def counted(a_samples, b_t, start=None, one_step=False):
            if not one_step:
                exact.append(start.tobytes())
            return inner(a_samples, b_t, start, one_step)

        monkeypatch.setattr(bayesian_closed, "_expected_best_responses", counted)
        cfg = en_config(8, 1, e0_ratio=0.0, join_model=UniformJoinTimes(0.0, 6.0))
        solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        assert len(exact) >= 3
        assert len(set(exact)) == len(exact)

    @pytest.mark.parametrize("e0_ratio", [0.0, 1e-6, 1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("n_players, n", [(N, n) for N in (5, 10, 20, 40)
                                              for n in (N // 2, N - 1, N)])
    def test_small_nature_effort_converges_or_flags_noise(self, n_players, n,
                                                          e0_ratio):
        # the band of small e0, and e0 = 0, where the grid BNE used to stall:
        # uniform joining times on [0, 6], grid 64, 4000 draws. A panel too
        # small for the result fails loudly, never by running out of steps
        cfg = en_config(n_players, n, e0_ratio, join_model=UniformJoinTimes(0.0, 6.0))
        try:
            grid = solve_bne_earliest_n(
                cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        except MonteCarloNoise:
            return
        assert np.any(grid.efforts > 0)
        cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
        assert np.all(grid.efforts <= cap + 1e-12)

    def test_five_players_four_rewarded_without_nature(self, monkeypatch):
        # (N, n, e0) = (5, 4, 0) on the stall grid's panel: the kernel before
        # one-step maps reached this fixed point after 191 best responses
        # (4901 means calls), with efforts that end at t = 5.14. Another one,
        # with efforts of 6e-4 to 4e-5 on to t = 5.4, fails the noise check
        # (0.119). 9 kernel evaluations reach the first one
        calls = count_kernel_evaluations(monkeypatch)
        cfg = en_config(5, 4, e0_ratio=0.0, join_model=UniformJoinTimes(0.0, 6.0))
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        assert len(calls) <= 9
        assert grid.efforts.max() == pytest.approx(0.196362071061, abs=1e-10)
        assert grid.efforts.sum() == pytest.approx(8.58585128, abs=1e-7)
        assert np.max(grid.efforts[grid.times >= 5.1]) <= 1e-8
        again, _ = bayesian_closed._expected_best_responses(
            self._opposition(cfg, grid), grid.b_values)
        assert np.max(np.abs(again - grid.efforts)) <= 1e-6

    @pytest.mark.parametrize("n_players, n", [(5, 4), (10, 5)])
    def test_returned_grid_is_its_own_best_response(self, n_players, n):
        # e0 = 0 on the stall grid's panel: the kernel certifies an iterate x
        # by ||G(x) - x||_inf <= BNE_TOL and must return x itself; G(x) lies
        # 2.7e-7 and 2.5e-7 from its own best responses here
        cfg = en_config(n_players, n, e0_ratio=0.0,
                        join_model=UniformJoinTimes(0.0, 6.0))
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        again, _ = bayesian_closed._expected_best_responses(
            self._opposition(cfg, grid), grid.b_values)
        assert np.max(np.abs(again - grid.efforts)) <= bayesian_closed.BNE_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("e0", [0.0, 0.05])
    def test_condition_noise_matches_the_two_pass_std(self, seed, e0):
        rng = spawn_rng(seed)
        opposition = rng.exponential(size=3000) * rng.uniform(0.5, 2.0)
        opposition[::11] = 0.0          # draws facing no opposition
        # efforts below 1e-3 of the maximum are left out of the check
        efforts = np.concatenate([[0.0, 1e-5], rng.uniform(1e-3, 2.0, size=30)])
        grid = TypeGrid(np.arange(efforts.size, dtype=float), efforts,
                        np.ones(efforts.size))
        noise = bayesian_closed._bne_condition_noise(e0 + opposition, grid)
        assert noise > 0
        assert noise == pytest.approx(condition_noise_two_pass(e0 + opposition, grid),
                                      rel=1e-9, abs=0.0)

    def test_condition_means_match_numpy(self):
        rng = spawn_rng(11)
        a_samples = rng.exponential(size=500)
        a_samples[::7] = 0.0            # draws facing no opposition at e0 = 0
        x = np.concatenate([[1e-6, 1e-3], rng.uniform(0.0, 2.0, size=30)])
        square, cube = bayesian_closed._condition_means(a_samples, x.size)[0](x)
        a = a_samples[:, None]
        np.testing.assert_allclose(square, np.mean(a / (a + x) ** 2, axis=0),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cube, np.mean(a / (a + x) ** 3, axis=0),
                                   rtol=1e-12, atol=0.0)
        # 1/x^3 overflows here; the draws with A = 0 must not enter
        tiny = np.array([1e-120, 1e-300])
        square, cube = bayesian_closed._condition_means(a_samples, tiny.size)[0](tiny)
        assert np.all(np.isfinite(square)) and np.all(np.isfinite(cube))

    @staticmethod
    def _opposition(cfg, grid):
        """E_-i of each opponent draw of a seed-0, 4000-draw solve of cfg."""
        n_opp = cfg.prior.n_players - 1
        opp = cfg.prior.join_model.sample(spawn_rng(0, 0x5e11), 4000 * n_opp) \
            .reshape(4000, n_opp)
        return bayesian_closed._interp_operator(opp, grid.times) @ grid.efforts

    def test_e0_zero_matches_a_vanishing_nature_effort(self):
        # at e0 = 0 the zero grid maps to itself, but it is no equilibrium: a
        # lone positive effort wins b(t)
        cfg = en_config(20, 10, e0_ratio=0.0)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        near = solve_bne_earliest_n(replace(cfg, e0_ratio=1e-6),
                                    drawn(cfg, "opponents", 4000, 0, grid_size=64))
        noise = bayesian_closed._bne_condition_noise(self._opposition(cfg, near), near)
        assert grid.efforts.max() > 0.1
        assert np.max(np.abs(grid.efforts - near.efforts)) <= noise * near.efforts.max()

    def test_e0_zero_at_n_near_N_is_a_fixed_point(self):
        cfg = en_config(20, 19, e0_ratio=0.0)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        again, _ = bayesian_closed._expected_best_responses(
            self._opposition(cfg, grid), grid.b_values)
        assert grid.efforts.max() > 0.01
        assert np.max(np.abs(again - grid.efforts)) <= 1e-7

    def test_large_contest_converges_under_the_cap(self):
        cfg = en_config(100, 99, e0_ratio=0.2)
        grid = solve_bne_earliest_n(cfg, drawn(cfg, "opponents", 4000, 0, grid_size=64))
        cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
        assert np.any(grid.efforts > 0)
        assert np.all(grid.efforts <= cap + 1e-12)


BLOCK = bayesian_closed.BLOCK_ROWS


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays match in shape and bit for bit, -0.0
    apart from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

#: panel row counts around the Stage-I block size
BLOCK_EDGES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
#: report fields of the Monte Carlo Stage-I pass
MC_FIELDS = ("expected_utility", "expected_payment", "payment_stderr",
             "expected_efficiency", "efficiency_stderr")


class TestBlockedStageOne:
    @staticmethod
    def _grid(cfg, size=17, seed=0):
        times = bayesian_closed._grid_times(cfg.prior.join_model, size)
        efforts = spawn_rng(seed).uniform(0.0, 0.2, size=times.size)
        return TypeGrid(times, efforts, reward_schedule(cfg, times))

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    @pytest.mark.parametrize("strategy", [EarliestN(3), LinearDecay(0.2)],
                             ids=["earliest-n", "linear"])
    def test_closed_blocks_match_the_unblocked_pass(self, rows, strategy):
        cfg = BayesianConfig(prior=ClosedPrior(6, UniformJoinTimes(0.0, 6.0)),
                             strategy=strategy,
                             weightfn=StepWeight((0, 1.5, 3, 6), (1, 0.6, 0.2, 0)),
                             e0_ratio=0.5, max_reward=1.3)
        grid = self._grid(cfg)
        panel = drawn(cfg, "panel", rows, 5)
        if isinstance(strategy, EarliestN):
            def paid_of(efforts):
                return cfg.max_reward * np.sum(efforts[:, :3], axis=1)
        else:
            def paid_of(efforts):
                return np.sum(efforts * reward_schedule(cfg, panel.types), axis=1)
        expect = unblocked_stage1(panel.types, panel.weights, grid.times, grid.efforts,
                                  cfg.nature_effort, paid_of)
        interpolated = stage1_metrics_mc(cfg, grid, panel)
        gathered = stage1_metrics_mc(cfg, grid, panel.with_knots(grid.times))
        expect["expected_utility"] = expect.pop("mean_utility")
        for field in MC_FIELDS:
            assert getattr(interpolated, field) == expect[field]
            assert getattr(gathered, field) == pytest.approx(expect[field], rel=1e-15,
                                                             abs=0.0)

    def test_drawn_panel_is_interpolated_off_its_grid(self):
        # a closed panel from `draws` always carries knots on its opponents'
        # grid; on any other grid Stage I still takes np.interp's branch
        cfg = en_config(5, 2, e0_ratio=0.5)
        panel, opponents = cfg.draws(12, 200, 300, 1)
        assert np.array_equal(panel.knots[0], opponents.times)
        grid = self._grid(cfg)
        got = bayesian_closed._panel_efforts(panel, grid)(slice(None))
        assert same_bits(got, np.interp(panel.types, grid.times, grid.efforts))

    def test_knots_of_another_grid_are_not_used(self):
        cfg = en_config(5, 2, e0_ratio=0.5)
        grid = self._grid(cfg)
        panel = drawn(cfg, "panel", 300, 2)
        elsewhere = panel.with_knots(np.linspace(0.0, 1.0, 5))
        assert stage1_metrics_mc(cfg, grid, elsewhere) == stage1_metrics_mc(cfg, grid,
                                                                            panel)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [-math.inf, 0.0, math.inf]],
                             ids=["nan", "infinite-ends"])
    def test_knots_need_a_finite_increasing_grid(self, times):
        # the knot search assumes one: an infinite end built its buckets from
        # inf * 0, and a NaN gave meaningless positions
        panel = drawn(en_config(3, 2, e0_ratio=0.5), "panel", 10, 2)
        with pytest.raises(InvalidInput, match="finite and strictly increasing"):
            panel.with_knots(times)

    @hyp_settings(max_examples=80, deadline=None)
    @given(size=st.integers(2, 40), quantile_spaced=st.booleans(),
           cols=st.integers(1, 8), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_knot_gather_matches_interp(self, size, quantile_spaced, cols, rows, seed):
        if quantile_spaced:
            times = bayesian_closed._grid_times(ExponentialJoinTimes(0.7), size)
        else:
            times = np.linspace(0.0, 3.0, size)
        rng = spawn_rng(seed)
        lo, hi = times[0], times[-1]
        # types left of, inside and right of the grid, and the knots themselves
        types = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), size=(rows, cols))
        on_knots = rng.choice(times, size=(rows, cols))
        types = np.sort(np.vstack([types, on_knots]), axis=1)
        efforts = rng.uniform(0.0, 1.0, size=times.size)
        grid = TypeGrid(times, efforts, np.ones(times.size))
        panel = Stage1Panel(types, np.ones_like(types)).with_knots(times)
        gathered = bayesian_closed._panel_efforts(panel, grid)(slice(None))
        expect = np.interp(types, times, efforts)
        assert np.max(np.abs(gathered - expect)) <= 1e-15 * np.max(np.abs(efforts))

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    def test_operator_matches_the_column_loop(self, rows):
        times = bayesian_closed._grid_times(ExponentialJoinTimes(0.7), 20)
        rng = spawn_rng(rows)
        panel = rng.uniform(-0.5, 1.5 * times[-1], size=(rows, 7))
        panel[::9] = times[rng.integers(0, times.size, size=7)]
        op = bayesian_closed._interp_operator(panel, times)
        expect = interp_operator_by_columns(panel, times)
        assert np.max(np.abs(op - expect)) <= 1e-15 * panel.shape[1]

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    @pytest.mark.parametrize("kind", ["sorted", "unsorted", "past-end", "no-columns"])
    @pytest.mark.parametrize("size", [3, 24])
    def test_operator_matches_the_knot_gather_bit_for_bit(self, rows, kind, size):
        times = np.linspace(0.0, 1.5, size)
        rng = spawn_rng(rows)
        if kind == "sorted":
            # arrival epochs: the first lie inside the grid, the last past its
            # end in every row
            panel = sample_arrival_sequences(PoissonModel(rate=6.0, truncation=30),
                                             rng, rows)
            assert np.all(panel[:, -1] > times[-1]) and np.any(panel[:, 0] < times[-1])
        elif kind == "unsorted":
            # draws below, inside and past the grid and on its knots; columns
            # 3 and 7 to 23 lie at or past its end in every row, 4 to 6 do
            # not: the last cell takes 17 1s after fractions, which adding
            # 17 at once rounds differently on the 3-point grid
            panel = rng.uniform(-0.5, 2.5, size=(rows, 24))
            panel[::9] = times[rng.integers(0, times.size, size=24)]
            panel[:, [3, *range(7, 24)]] = times[-1] + rng.exponential(size=(rows, 18))
            panel[::5, 8] = times[-1]
        elif kind == "past-end":
            # every draw at or past the end: no column is placed
            panel = times[-1] + rng.exponential(size=(rows, 6))
            panel[::3] = times[-1]
        else:
            panel = np.empty((rows, 0))
        op = bayesian_closed._interp_operator(panel, times)
        assert same_bits(op, interp_operator_by_knots(panel, times))

    @pytest.mark.parametrize("rows", BLOCK_EDGES)
    @pytest.mark.parametrize("past_end", [True, False], ids=["past-end", "inside"])
    def test_open_operator_matches_the_stacked_build_bit_for_bit(self, rows, past_end):
        panel = sample_arrival_sequences(PoissonModel(rate=6.0, truncation=30),
                                         spawn_rng(rows), rows)
        # the open grid is uniform from 0: ending it at 1.5 leaves the last
        # epochs past its end in every row, ending it past every epoch none
        times = np.linspace(0.0, 1.5 if past_end else 1.01 * panel.max(), 24)
        assert np.any(np.all(panel >= times[-1], axis=0)) == past_end
        positions = open_system._epoch_positions(times)
        op = bayesian_closed._interp_operator(panel, times, positions)
        assert same_bits(op, interp_operator_stacked(panel, times, positions))

    @hyp_settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["uniform", "exponential", "clustered", "heavy-tailed"]),
           size=st.integers(2, 80), cols=st.integers(0, 4),
           rows=st.sampled_from([1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_knots_match_the_search_bit_for_bit(self, kind, size, cols, rows, seed):
        rng = spawn_rng(seed)
        if kind == "uniform":
            lo = rng.uniform(-5.0, 5.0)
            times = np.linspace(lo, lo + rng.uniform(0.1, 10.0), size)
        elif kind == "exponential":
            times = bayesian_closed._grid_times(ExponentialJoinTimes(rng.uniform(0.1, 5.0)),
                                                size)
        elif kind == "clustered":
            # a table grid with three clusters of knots 1e-12 of its span apart
            base = np.sort(rng.uniform(0.0, 6.0, size))
            clusters = base[rng.integers(0, size, 3), None] + 6e-12 * np.arange(1, 20)
            times = np.unique(np.concatenate([base, clusters.ravel()]))
        else:
            # every knot but the last in the first bucket: most guesses fail
            times = np.append(np.linspace(0.0, 1.0, size - 1), 1e6)
        lo, hi = times[0], times[-1]
        # types below, inside and above the grid, on and beside its knots,
        # and at -inf and inf, in a 1-d panel (cols = 0) or a 2-d one
        pool = np.concatenate([rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 64),
                               times, np.nextafter(times, -np.inf),
                               np.nextafter(times, np.inf), [-np.inf, np.inf]])
        types = rng.choice(pool, size=(rows, cols) if cols else rows)
        index, offset = bayesian_closed._knots(types, times)
        expect_index, expect_offset = knots_by_search(types, times)
        assert index.dtype == expect_index.dtype
        assert np.array_equal(index, expect_index)
        assert same_bits(offset, expect_offset)

    @pytest.mark.parametrize("tail", ["zero", "positive", "none", "constant"])
    def test_interpolated_efforts_are_np_interp_bit_for_bit(self, tail):
        # without knots, Stage I interpolates only up to where the efforts
        # turn constant; the efforts past that point keep np.interp's bits
        times = np.linspace(0.0, 3.0, 24)
        rng = spawn_rng(11)
        efforts = rng.uniform(0.1, 1.0, size=times.size)
        if tail == "zero":
            efforts[15:] = 0.0
        elif tail == "positive":
            efforts[15:] = 0.4
        elif tail == "constant":
            efforts[:] = 0.4
        types = np.vstack([rng.uniform(-1.0, 4.5, size=(60, 8)),
                           rng.choice(times, size=(20, 8))])
        types.sort(axis=1)
        panel = Stage1Panel(types, np.ones_like(types))
        grid = TypeGrid(times, efforts, np.ones(times.size))
        got = bayesian_closed._panel_efforts(panel, grid)(slice(None))
        assert same_bits(got, np.interp(types, times, efforts))
