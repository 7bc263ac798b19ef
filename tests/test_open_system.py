import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crowdcontest import open_system
from crowdcontest.bayesian_closed import (BLOCK_ROWS, BayesianConfig, EarliestN,
                                          LinearDecay, Termination, TypeGrid,
                                          _interp_operator, budget_tolerance,
                                          effort_upper_bound)
from crowdcontest.errors import InvalidInput
from crowdcontest.experiments import sweep
from crowdcontest.numerics import spawn_rng
from crowdcontest.open_system import (PoissonPrior, calibrated_open_stage1,
                                      open_earliest_n_prob,
                                      open_termination_conditional_eff,
                                      open_termination_prob,
                                      solve_bne_open_earliest_n,
                                      solve_bne_open_termination,
                                      stage1_open_earliest_n,
                                      stage1_open_termination)
from crowdcontest.timing import (ConstantWeight, PoissonModel, StepWeight,
                                 sample_arrival_sequences)

from helpers import (bne_quadrature_oracle, drawn, open_grid_times_by_public_prob,
                     single_peaked, unblocked_stage1)


def open_en(rate, truncation, n, e0_ratio, **kw):
    prior = PoissonPrior(PoissonModel(rate=rate, truncation=truncation))
    return BayesianConfig(prior=prior, strategy=EarliestN(n), e0_ratio=e0_ratio, **kw)


def open_tt(rate, deadline, e0_ratio, truncation=40, **kw):
    prior = PoissonPrior(PoissonModel(rate=rate, truncation=truncation))
    return BayesianConfig(prior=prior, strategy=Termination(deadline), e0_ratio=e0_ratio,
                          **kw)


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

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", None])
    def test_non_integer_n(self, n):
        with pytest.raises(InvalidInput, match="integer"):
            open_earliest_n_prob(1.0, 1.0, n)

    def test_integer_types_of_n(self):
        assert open_earliest_n_prob(1.0, 1.0, np.int64(2)) == \
            open_earliest_n_prob(1.0, 1.0, 2)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_rate(self, rate):
        with pytest.raises(InvalidInput, match="rate"):
            open_earliest_n_prob(rate, 1.0, 2)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
    def test_non_finite_s(self, s):
        with pytest.raises(InvalidInput, match="finite"):
            open_earliest_n_prob(1.0, s, 2)


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

    @pytest.mark.parametrize("k", [0.5, math.nan, math.inf, -1, np.array([0.0, 1.5])])
    def test_k_must_be_integers_at_least_zero(self, k):
        with pytest.raises(InvalidInput, match="k must be integers"):
            open_termination_prob(1.0, 1.0, k)

    def test_integral_floats_count_as_k(self):
        assert open_termination_prob(2.0, 0.7, 3.0) == open_termination_prob(2.0, 0.7, 3)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_rate(self, rate):
        # a negative rate must not pass on a negative deadline either
        for deadline in (1.0, -1.0):
            with pytest.raises(InvalidInput, match="rate"):
                open_termination_prob(rate, deadline, 1)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_non_finite_deadline(self, deadline):
        with pytest.raises(InvalidInput, match="deadline"):
            open_termination_prob(1.0, deadline, 1)

    def test_overflowing_rate_times_deadline(self):
        with pytest.raises(InvalidInput, match="finite"):
            open_termination_prob(1e200, 1e200, 1)

    @pytest.mark.parametrize("rate, deadline", [(0.1, 0.3), (9.0, 0.7), (9.0, 1.5),
                                                (50.0, 6.0)])
    def test_array_equals_scalar_calls(self, rate, deadline):
        ks = np.arange(int(2.0 * rate * deadline) + 64)
        pmf = open_termination_prob(rate, deadline, ks)
        assert pmf.tolist() == [open_termination_prob(rate, deadline, k)
                                for k in ks.tolist()]
        grid = ks[:60].reshape(6, 10)
        assert open_termination_prob(rate, deadline, grid).tolist() == \
            pmf[:60].reshape(6, 10).tolist()


class TestOpenTerminationSolver:
    def test_e0_zero_matches_direct_summation(self):
        cfg = open_tt(1.0, 1.0, e0_ratio=0.0)
        e_star = solve_bne_open_termination(cfg, cfg.draws())
        c = math.exp(-1) / (1 - math.exp(-1))
        direct = sum(c / math.factorial(k + 1) * k / (k + 1) ** 2
                     for k in range(1, 51))
        assert e_star == pytest.approx(direct, abs=1e-9)

    def test_vanishing_window_leaves_nature_duel(self):
        cfg = open_tt(1.0, 1e-7, e0_ratio=0.25)
        assert solve_bne_open_termination(cfg, cfg.draws()) == pytest.approx(0.25, abs=1e-6)

    def test_lhs_strictly_decreasing(self):
        lam_t, b, e0 = 2.0, 1.0, 0.3
        ks = np.arange(80)
        pk = open_termination_prob(1.0, lam_t, ks)
        es = np.linspace(1e-4, b, 120)
        lhs = [float(np.sum(pk * b * (e0 + ks * e) / (e0 + (ks + 1) * e) ** 2))
               for e in es]
        assert all(b2 < b1 for b1, b2 in zip(lhs, lhs[1:]))

    def test_priced_out(self):
        cfg = open_tt(1.0, 1.0, e0_ratio=1.5)
        assert solve_bne_open_termination(cfg, cfg.draws()) == 0.0

    def test_nobody_to_meet_without_nature(self):
        # rate T = 1e-11: the truncated meeting pmf keeps only k = 0
        cfg = open_tt(1.0, 1e-11, e0_ratio=0.0)
        assert solve_bne_open_termination(cfg, cfg.draws()) == 0.0


class TestOpenEarliestNSolver:
    def test_lone_contributor_closed_form(self):
        cfg = open_en(1.0, 1, 1, e0_ratio=0.25)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 64, 0, grid_size=24))
        expect = np.maximum(np.sqrt(grid.b_values * 0.25) - 0.25, 0.0)
        assert np.max(np.abs(grid.efforts - expect)) < 1e-12
        assert grid.efforts[0] == pytest.approx(0.25)

    def test_matches_quadrature_oracle_two_contributors(self):
        # M = 2: the opponent is a single exponential epoch, so the BNE
        # admits a deterministic 1-d quadrature oracle
        cfg = open_en(1.5, 2, 1, e0_ratio=0.3)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 40_000, 1, grid_size=25))
        quantile = lambda q: -np.log1p(-np.asarray(q)) / 1.5
        oracle = bne_quadrature_oracle(grid.b_values, grid.times, 2,
                                       cfg.nature_effort, quantile,
                                       n_nodes=6000)
        assert np.max(np.abs(grid.efforts - oracle)) < 2e-3

    def test_monotone_and_bounded(self):
        cfg = open_en(2.0, 12, 3, e0_ratio=0.5)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 4000, 2, grid_size=33))
        assert np.all(np.diff(grid.efforts) <= 1e-12)
        cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
        assert np.all(grid.efforts <= cap + 1e-10)

    def test_full_quota_early_effort_sandwiched(self):
        # the earliest joiner competes against M-1 opponents whose effective
        # rewards are weakly decayed, so their pressure is at most that of a
        # full-information symmetric contest and at least nothing at all
        from crowdcontest.contest import symmetric_ne
        cfg = open_en(0.05, 4, 4, e0_ratio=0.5)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 20_000, 3, grid_size=33))
        sym = symmetric_ne(4, 1.0, 0.5)
        solo = math.sqrt(1.0 * 0.5) - 0.5
        assert sym - 1e-3 <= grid.efforts[0] <= solo + 1e-3

    @pytest.mark.parametrize("grid_size", [0, 1])
    def test_grid_of_fewer_than_two_points_is_invalid(self, grid_size):
        with pytest.raises(InvalidInput, match="grid_size"):
            drawn(open_en(2.0, 5, 2, e0_ratio=0.5), "opponents", 50, 0,
                  grid_size=grid_size)

    def test_solve_runs_on_the_grid_size_of_its_opponents(self):
        cfg = open_en(2.0, 5, 2, e0_ratio=0.5)
        for size in (24, 40):
            opponents = drawn(cfg, "opponents", 500, 0, grid_size=size)
            assert opponents.grid_size == size
            assert not opponents.epochs.flags.writeable
            assert solve_bne_open_earliest_n(cfg, opponents).times.size == size
        # the grid size given to the draws reaches the calibration's solve
        grid, _ = calibrated_open_stage1(cfg, cfg.draws(24, 500, 2000, 0))
        assert grid.times.size == 24

    def test_rate_only_rescales_time(self):
        # the open system is scale-free: multiplying the arrival rate by c
        # compresses the effort schedule by c and changes nothing else
        slow = open_en(0.05, 4, 2, e0_ratio=0.5)
        fast = open_en(1.0, 4, 2, e0_ratio=0.5)
        g_slow = solve_bne_open_earliest_n(
            slow, drawn(slow, "opponents", 20_000, 3, grid_size=33))
        g_fast = solve_bne_open_earliest_n(
            fast, drawn(fast, "opponents", 20_000, 3, grid_size=33))
        remapped = np.interp(g_slow.times * 0.05, g_fast.times, g_fast.efforts)
        assert np.max(np.abs(g_slow.efforts - remapped)) < 1e-12


class TestOpenPlacement:
    """The open grid is uniform from 0, and the operator places epochs on it
    by one multiplication (`_epoch_positions`) instead of np.interp."""

    @staticmethod
    def _operators(panel, times):
        return (_interp_operator(panel, times, open_system._epoch_positions(times)),
                _interp_operator(panel, times))

    @pytest.mark.parametrize("rows", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      3 * BLOCK_ROWS + 7])
    @pytest.mark.parametrize("size", [3, 24])
    def test_operator_matches_the_interp_placement(self, rows, size):
        # arrival epochs: the first lie inside the grid, the last past its end
        times = np.linspace(0.0, 1.5, size)
        panel = sample_arrival_sequences(PoissonModel(rate=6.0, truncation=30),
                                         spawn_rng(rows), rows)
        op, expect = self._operators(panel, times)
        assert np.max(np.abs(op - expect)) <= 1e-13
        assert np.max(np.abs(op.sum(axis=1) - panel.shape[1])) <= 1e-12

    @pytest.mark.parametrize("rows", [2, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("kind", ["past-end", "no-columns"])
    def test_panels_without_placed_columns_are_bit_identical(self, rows, kind):
        times = np.linspace(0.0, 1.5, 24)
        if kind == "past-end":
            panel = times[-1] + spawn_rng(rows).exponential(size=(rows, 6))
            panel[::3] = times[-1]
        else:
            panel = np.empty((rows, 0))
        op, expect = self._operators(panel, times)
        assert np.array_equal(op.view(np.uint64), expect.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 10, 19])
    def test_solve_matches_the_interp_placement(self, n, monkeypatch):
        # the benchmark's open sizes: 29 opponents, grid 24, 2000 sequences
        cfg = open_en(9.0, 30, n, e0_ratio=0.5)
        opponents = drawn(cfg, "opponents", 2000, 4, grid_size=24)
        grid = solve_bne_open_earliest_n(cfg, opponents)
        monkeypatch.setattr(open_system, "_epoch_positions", lambda times: None)
        expect = solve_bne_open_earliest_n(cfg, opponents)
        assert np.array_equal(grid.times, expect.times)
        assert np.max(np.abs(grid.efforts - expect.efforts)) <= 1e-10

    @pytest.mark.parametrize("e0_ratio", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("rate", [0.5, 9.0, 40.0])
    def test_grid_matches_the_search_on_the_public_prob(self, rate, e0_ratio):
        cfg = open_en(rate, 30, 1, e0_ratio=e0_ratio)
        for n in range(1, 31):
            assert np.array_equal(open_system._open_grid_times(cfg, n, 24),
                                  open_grid_times_by_public_prob(cfg, n, 24))


class TestOpenStage1:
    def test_full_quota_no_nature_spends_everything(self):
        cfg = open_en(2.0, 5, 5, e0_ratio=0.0)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 8000, 0, grid_size=40))
        rep = stage1_open_earliest_n(cfg, grid, drawn(cfg, "panel", 4000, 1))
        assert rep.expected_payment == pytest.approx(1.0, abs=1e-12)
        assert rep.payment_stderr == 0.0

    def test_opponents_of_another_prior_are_invalid(self):
        cfg = open_en(2.0, 5, 2, e0_ratio=0.5)
        opponents = drawn(open_en(2.0, 6, 2, 0.5), "opponents", 200, 0, grid_size=12)
        with pytest.raises(InvalidInput, match="truncation"):
            solve_bne_open_earliest_n(cfg, opponents)

    def test_panel_of_another_prior_is_invalid(self):
        cfg = open_en(2.0, 5, 2, e0_ratio=0.5)
        grid = solve_bne_open_earliest_n(
            cfg, drawn(cfg, "opponents", 2000, 0, grid_size=12))
        with pytest.raises(InvalidInput, match="truncation"):
            stage1_open_earliest_n(cfg, grid,
                                   drawn(open_en(2.0, 6, 2, 0.5), "panel", 100, 1))
        with pytest.raises(InvalidInput, match="2 Monte Carlo draws"):
            stage1_open_earliest_n(cfg, grid, drawn(cfg, "panel", 1, 1))

    @pytest.mark.parametrize("rows", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      3 * BLOCK_ROWS + 7])
    def test_blocks_match_the_unblocked_pass(self, rows):
        cfg = open_en(5.0, 6, 3, e0_ratio=0.5, max_reward=1.3,
                      weightfn=StepWeight((0, 0.5, 1, 2), (1, 0.6, 0.2, 0)))
        times = np.linspace(0.0, 1.2, 17)
        grid = TypeGrid(times, spawn_rng(1).uniform(0.0, 0.2, size=17), np.ones(17))
        panel = drawn(cfg, "panel", rows, 3)
        rep = stage1_open_earliest_n(cfg, grid, panel)
        expect = unblocked_stage1(panel.types, panel.weights, times, grid.efforts,
                                  cfg.nature_effort,
                                  lambda efforts: 1.3 * np.sum(efforts[:, :3], axis=1))
        assert rep.expected_utility == expect.pop("mean_utility")
        for field, value in expect.items():
            assert getattr(rep, field) == value

    def test_one_pass_allocates_no_panel_sized_array(self):
        # a 10 000 x 30 effort array alone takes 2.3 MiB
        cfg = open_en(9.0, 30, 10, e0_ratio=0.5,
                      weightfn=StepWeight((0, 1.5, 3, 6), (1, 0.6, 0.2, 0)))
        times = np.linspace(0.0, 3.0, 24)
        grid = TypeGrid(times, spawn_rng(2).uniform(0.0, 0.2, size=24), np.ones(24))
        panel = drawn(cfg, "panel", 10_000, 1)
        tracemalloc.start()
        try:
            stage1_open_earliest_n(cfg, grid, panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_reward_scaling_moves_utility_not_efficiency(self):
        cfg1 = open_en(2.0, 6, 3, e0_ratio=0.5, max_reward=1.0)
        cfg2 = open_en(2.0, 6, 3, e0_ratio=0.5, max_reward=2.0)
        g1 = solve_bne_open_earliest_n(
            cfg1, drawn(cfg1, "opponents", 4000, 4, grid_size=25))
        rep1 = stage1_open_earliest_n(cfg1, g1, drawn(cfg1, "panel", 10_000, 5))
        rep2 = stage1_open_earliest_n(cfg2, g1.scaled(2.0),
                                      drawn(cfg2, "panel", 10_000, 5))
        assert rep2.expected_utility == pytest.approx(2 * rep1.expected_utility,
                                                      rel=1e-9)
        assert rep2.expected_efficiency == pytest.approx(rep1.expected_efficiency,
                                                         rel=1e-9)

    def test_budget_balance_fresh_seed(self):
        cfg = open_en(3.0, 10, 4, e0_ratio=0.5, budget=1.0)
        grid, rep = calibrated_open_stage1(cfg, cfg.draws(25, 4000, 30_000, 6))
        fresh = stage1_open_earliest_n(cfg.with_reward(rep.calibrated_b), grid,
                                       drawn(cfg, "panel", 30_000, 909))
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
        tables = cfg.draws()
        e_star = solve_bne_open_termination(cfg, tables)
        rep = stage1_open_termination(cfg, e_star, tables)
        lam_t = 2.0
        manual_eff = sum(
            math.exp(-lam_t) * lam_t**m / math.factorial(m)
            * (0.5 + m * e_star) / 1.0 for m in range(1, 31))
        assert rep.expected_efficiency == pytest.approx(manual_eff, abs=1e-12)

    def test_calibration_balances_budget(self):
        cfg = open_tt(2.0, 0.8, e0_ratio=0.2, budget=0.9)
        tables = cfg.draws()
        e_star, rep = calibrated_open_stage1(cfg, tables)
        assert abs(rep.expected_payment - 0.9) <= budget_tolerance(0.9, 0.0)
        # the effort of the accepted evaluation comes out with the report
        assert e_star == solve_bne_open_termination(cfg.with_reward(rep.calibrated_b),
                                                    tables)


def deadline_sweep(config, t_grid):
    """Reports of `config` at each deadline of `t_grid`, and the best deadline."""
    points, best = sweep([replace(config, strategy=Termination(float(t)))
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
        tables = cfg.draws()
        rep = stage1_open_termination(cfg, solve_bne_open_termination(cfg, tables), tables)
        assert rep.expected_efficiency == pytest.approx(0.0, abs=1e-5)


def test_config_validation():
    with pytest.raises(InvalidInput):
        open_en(1.0, 4, 9, e0_ratio=0.5)
    # open systems take the closed system's earliest-n and termination types,
    # not linear decay
    with pytest.raises(InvalidInput, match="EarliestN or Termination"):
        BayesianConfig(prior=PoissonPrior(PoissonModel(rate=1.0, truncation=4)),
                       strategy=LinearDecay(0.5))
    with pytest.raises(InvalidInput):
        open_tt(1.0, -1.0, e0_ratio=0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["max_reward", "e0_ratio", "budget", "deadline"])
def test_non_finite_field(field, value):
    with pytest.raises(InvalidInput, match=field):
        if field == "deadline":
            open_tt(1.0, value, e0_ratio=0.5)
        else:
            open_en(1.0, 4, 2, **{"e0_ratio": 0.5, field: value})


def test_non_integer_n():
    with pytest.raises(InvalidInput, match="integer"):
        open_en(1.0, 4, 2.5, e0_ratio=0.5)
