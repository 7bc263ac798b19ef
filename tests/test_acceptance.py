"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line (visible with `pytest -s` or in the failure report).
"""

import math
import time

import numpy as np
import pytest

from crowdcontest.bayesian_closed import (BayesianConfig, ClosedPrior, EarliestN,
                                          Termination, budget_tolerance,
                                          calibrated_stage1,
                                          effort_upper_bound,
                                          participation_threshold,
                                          solve_bne_earliest_n,
                                          solve_bne_termination,
                                          stage1_metrics_mc)
from crowdcontest.contest import (ContestConfig, efficiency_identical,
                                  solve_ne, symmetric_ne)
from crowdcontest.csf_analysis import (efficiency_vmax_beta_threshold,
                                       optimal_beta_gain)
from crowdcontest.experiments import gen_trace_preset, sweep
from crowdcontest.numerics import spawn_rng
from crowdcontest.open_system import (PoissonPrior, calibrated_open_stage1,
                                      open_termination_conditional_eff,
                                      stage1_open_earliest_n)
from crowdcontest.timing import (ConstantWeight, PoissonModel, StepWeight,
                                 UniformJoinTimes, ingest_trace_file)

from helpers import drawn, ne_by_iteration, single_peaked, termination_effort_e0_zero

PAPER_STEP = StepWeight((0.0, 1.5, 3.0, 6.0), (1.0, 0.6, 0.2, 0.0))


def _announce(num: int, label: str):
    print(f"[ACCEPTANCE] criterion {num:2d} PASS - {label}")


def test_criterion_01_closed_form_ne_agreement():
    rng = spawn_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        b = float(rng.uniform(0.1, 5.0))
        e0 = float(rng.uniform(0.0, 1.2)) * b
        root = math.sqrt((n - 1) ** 2 * b * b + 4 * e0 * b * n)
        formula = max(((n - 1) * b - 2 * e0 * n + root) / (2 * n * n), 0.0)
        assert symmetric_ne(n, b, e0) == pytest.approx(formula, abs=1e-9)
        profile = solve_ne(ContestConfig(max_rewards=np.full(n, b),
                                         nature_effort=e0))
        assert np.max(np.abs(profile.efforts - formula)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _announce(1, f"identical-reward NE closed form, 1000 instances in {elapsed:.2f}s")


def test_criterion_02_ne_oracle_equivalence():
    rng = spawn_rng(202)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 5))
        b = rng.uniform(0.1, 2.0, size=n)
        e0 = float(rng.uniform(0.0, 1.0))
        config = ContestConfig(max_rewards=b, nature_effort=e0)
        reference = solve_ne(config).efforts
        for _ in range(10):
            iterated = ne_by_iteration(config, rng.uniform(0.0, 0.5, size=n),
                                       abs_tol=1e-9)
            assert np.max(np.abs(iterated - reference)) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _announce(2, f"best-response iteration oracle, 200x10 starts in {elapsed:.1f}s")


def test_criterion_03_efficiency_bounds_and_endpoints():
    for n in range(2, 51):
        w = np.ones(n)
        for ratio in (0.0, 0.2, 0.5, 0.8, 0.99):
            val = efficiency_identical(n, 1.0, ratio, w)
            lower = (n - 1) / n
            upper = 1.0
            assert lower - 1e-12 <= val < upper
    assert efficiency_identical(2, 1.0, 0.0, [1.0, 1.0]) == pytest.approx(
        0.5, abs=1e-12)
    assert efficiency_identical(100, 1.0, 0.0, np.ones(100)) == pytest.approx(
        0.99, abs=1e-12)
    _announce(3, "efficiency bounds on the (n, e0/b) grid plus exact endpoints")


def test_criterion_04_discrimination_gain_landmarks():
    beta = optimal_beta_gain(1.0)
    assert beta == pytest.approx(1.5214, abs=1e-3)
    assert beta**3 - beta - 2.0 == pytest.approx(0.0, abs=1e-9)
    threshold = efficiency_vmax_beta_threshold()
    assert threshold == pytest.approx(3.9026, abs=1e-2)
    _announce(4, f"gain maximizer beta*={beta:.4f}, regime threshold {threshold:.4f}")


def test_criterion_05_termination_closed_form():
    rng = spawn_rng(505)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        p = float(rng.random())
        b = float(rng.uniform(0.2, 3.0))
        solved = solve_bne_termination(n, p, b, 0.0)
        assert solved == pytest.approx(termination_effort_e0_zero(n, p, b),
                                       abs=1e-9)
    for b in (1.0, 2.3):
        assert solve_bne_termination(2, 1.0, b, 0.5 * b) == pytest.approx(
            (math.sqrt(5) - 1) / 8 * b, abs=1e-9)
    _announce(5, "termination effort closed form, 300 random (N, p) instances")


def test_criterion_06_consistency_triangle():
    from crowdcontest.timing import ExponentialJoinTimes
    rng = spawn_rng(606)
    start = time.perf_counter()
    models = [UniformJoinTimes(0.0, 6.0), ExponentialJoinTimes(rate=0.8)]
    for i in range(20):
        n = int(rng.integers(2, 9))
        ratio = float(rng.choice([0.2, 0.5, 0.8]))
        b = float(rng.uniform(0.5, 2.0))
        model = models[i % 2]
        sym = symmetric_ne(n, b, ratio * b)

        en_cfg = BayesianConfig(prior=ClosedPrior(n, model), strategy=EarliestN(n),
                                max_reward=b, e0_ratio=ratio)
        grid = solve_bne_earliest_n(
            en_cfg, drawn(en_cfg, "opponents", 2000, i, grid_size=16))
        assert np.max(np.abs(grid.efforts - sym)) <= 1e-4
        assert np.all(grid.efforts <= effort_upper_bound(grid.b_values,
                                                         en_cfg.nature_effort) + 1e-10)

        tt = solve_bne_termination(n, 1.0, b, ratio * b)
        assert tt == pytest.approx(sym, abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _announce(6, f"earliest-n(n=N) = termination(p=1) = symmetric NE, "
                 f"20 instances in {elapsed:.1f}s")


def test_criterion_07_conditional_efficiency_collapse():
    e_star, b, t_end, e0 = 0.12, 1.0, 2.0, 0.4
    weightfns = [ConstantWeight(1.0),
                 StepWeight((0.0, 0.6, 1.2, 2.0), (1.0, 0.6, 0.2, 0.0))]
    for wf in weightfns:
        for m in (1, 2, 3):
            rng = spawn_rng(707, m)
            draws = np.sort(rng.uniform(0.0, t_end, size=(100_000, m)), axis=1)
            weights = np.asarray(wf(draws)).reshape(-1, m)
            samples = np.sum(weights, axis=1) * (e0 + m * e_star) / (b * m)
            mc = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
            closed = open_termination_conditional_eff(m, e_star, b, t_end, wf, e0)
            assert abs(closed - mc) <= 3 * se + 1e-12
    _announce(7, "collapsed conditional efficiency vs nested-integral MC, "
                 "m in {1,2,3}, two weight functions")


def test_criterion_08_budget_balance_across_ratios():
    model = UniformJoinTimes(0.0, 6.0)
    checked = 0
    for ratio in (0.2, 0.5, 0.8):
        # closed earliest-n, fresh-seed re-measurement
        cfg = BayesianConfig(prior=ClosedPrior(6, model), strategy=EarliestN(3),
                             weightfn=PAPER_STEP, e0_ratio=ratio, budget=1.0)
        grid, rep = calibrated_stage1(cfg, cfg.draws(25, 3000, 40_000, 88))
        fresh = stage1_metrics_mc(cfg.with_reward(rep.calibrated_b), grid,
                                  drawn(cfg, "panel", 40_000, 4242))
        assert abs(fresh.expected_payment - 1.0) <= budget_tolerance(
            1.0, fresh.payment_stderr)

        # closed termination (exact stage 1)
        cfg_t = BayesianConfig(prior=ClosedPrior(10, model), strategy=Termination(2.0),
                               weightfn=PAPER_STEP, e0_ratio=ratio, budget=1.0)
        _, rep_t = calibrated_stage1(cfg_t, cfg_t.draws())
        assert abs(rep_t.expected_payment - 1.0) <= budget_tolerance(1.0, 0.0)

        # open earliest-n, fresh-seed re-measurement
        cfg_o = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=9.0, truncation=20)),
                               strategy=EarliestN(4), weightfn=PAPER_STEP, e0_ratio=ratio,
                               budget=1.0)
        grid_o, rep_o = calibrated_open_stage1(cfg_o, cfg_o.draws(25, 3000, 40_000, 89))
        fresh_o = stage1_open_earliest_n(cfg_o.with_reward(rep_o.calibrated_b),
                                         grid_o, drawn(cfg_o, "panel", 40_000, 4243))
        assert abs(fresh_o.expected_payment - 1.0) <= budget_tolerance(
            1.0, fresh_o.payment_stderr)

        # open termination (exact stage 1)
        cfg_ot = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=9.0, truncation=40)),
                                strategy=Termination(0.5), weightfn=PAPER_STEP,
                                e0_ratio=ratio, budget=1.0)
        _, rep_ot = calibrated_open_stage1(cfg_ot, cfg_ot.draws())
        assert abs(rep_ot.expected_payment - 1.0) <= budget_tolerance(1.0, 0.0)
        checked += 4
    _announce(8, f"|E[R]-B| within tolerance on {checked} calibrated sweeps, "
                 f"e0/b in 0.2/0.5/0.8")


@pytest.fixture(scope="module")
def synthetic_trace_model(tmp_path_factory):
    path = gen_trace_preset("uniform200", 12, tmp_path_factory.mktemp("trace") / "t.csv")
    return ingest_trace_file(path, (0.0, 6.0 * 3600.0), "seconds")


def test_criterion_09_figure_shape_properties(synthetic_trace_model):
    model = synthetic_trace_model
    ratios = (0.2, 0.5, 0.8)
    n_values = [2, 3, 4, 6, 8, 10, 12, 14, 17, 20]
    sweeps = {}
    for ratio in ratios:
        points, _ = sweep([BayesianConfig(prior=ClosedPrior(20, model),
                                          strategy=EarliestN(n), weightfn=PAPER_STEP,
                                          e0_ratio=ratio, budget=1.0)
                           for n in n_values],
                          grid_size=33, mc_samples=2500, stage1_samples=20_000,
                          seed=5)
        sweeps[ratio] = [rep for _, rep in points]

    # (a) efficiency-vs-n single-peaked up to Monte Carlo noise
    for ratio in ratios:
        effs = [r.expected_efficiency for r in sweeps[ratio]]
        tol = 3 * max(r.efficiency_stderr for r in sweeps[ratio])
        assert single_peaked(effs, tol=tol), f"ratio {ratio}: {effs}"

    # (a) efficiency-vs-T single-peaked (closed-form stage 1)
    t_curves = {}
    for ratio in ratios:
        points_t, _ = sweep([BayesianConfig(prior=ClosedPrior(20, model),
                                            strategy=Termination(float(t)),
                                            weightfn=PAPER_STEP, e0_ratio=ratio,
                                            budget=1.0)
                             for t in np.arange(0.25, 6.01, 0.25)])
        t_curves[ratio] = [r.expected_efficiency for _, r in points_t]
        assert single_peaked(t_curves[ratio], tol=1e-9)

    # (b) more nature effort lifts the efficiency pointwise (except possibly
    # at the smallest sweep value)
    for i, n in enumerate(n_values):
        noise = 3 * max(sweeps[r][i].efficiency_stderr for r in ratios)
        e2, e5, e8 = (sweeps[r][i].expected_efficiency for r in ratios)
        if n > 2:
            assert e2 <= e5 + noise and e5 <= e8 + noise
    for i in range(len(t_curves[0.2])):
        assert t_curves[0.2][i] <= t_curves[0.5][i] + 1e-12
        assert t_curves[0.5][i] <= t_curves[0.8][i] + 1e-12

    # (c) effort-vs-join-time: nonincreasing with a hard cutoff
    cfg_e = BayesianConfig(prior=ClosedPrior(20, model), strategy=EarliestN(6),
                           weightfn=PAPER_STEP, e0_ratio=0.5, budget=1.0)
    grid = solve_bne_earliest_n(cfg_e, drawn(cfg_e, "opponents", 2500, 6, grid_size=49))
    assert np.all(np.diff(grid.efforts) <= 1e-12)
    cutoff = participation_threshold(grid)
    assert cutoff < grid.times[-1]
    assert np.all(grid.efforts[grid.times > cutoff] == 0.0)

    # (d) contour: calibrated b strictly decreasing in n and in T
    for budget in (0.5, 1.0, 2.0):
        bs = []
        for n in (2, 5, 9, 14, 20):
            cfg_n = BayesianConfig(prior=ClosedPrior(20, model), strategy=EarliestN(n),
                                   weightfn=PAPER_STEP, e0_ratio=0.5, budget=budget)
            _, rep = calibrated_stage1(cfg_n, cfg_n.draws(33, 2500, 20_000, 7))
            bs.append(rep.calibrated_b)
        assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:])), bs

        bs_t = []
        for t_end in (0.75, 1.5, 3.0, 4.5, 6.0):
            cfg_tt = BayesianConfig(prior=ClosedPrior(20, model),
                                    strategy=Termination(t_end), weightfn=PAPER_STEP,
                                    e0_ratio=0.5, budget=budget)
            _, rep = calibrated_stage1(cfg_tt, cfg_tt.draws())
            bs_t.append(rep.calibrated_b)
        assert all(b2 < b1 for b1, b2 in zip(bs_t, bs_t[1:])), bs_t

    _announce(9, "trace-driven figure shapes: unimodal curves, nature-effort "
                 "ordering, effort cutoffs, decreasing contours")


def test_criterion_10_effort_cap_on_all_grids(synthetic_trace_model):
    model = synthetic_trace_model
    checked = 0
    for ratio in (0.2, 0.5, 0.8):
        for n in (1, 3, 10, 20):
            cfg = BayesianConfig(prior=ClosedPrior(20, model), strategy=EarliestN(n),
                                 weightfn=PAPER_STEP, e0_ratio=ratio, budget=1.0)
            grid = solve_bne_earliest_n(
                cfg, drawn(cfg, "opponents", 2500, 10, grid_size=33))
            cap = effort_upper_bound(grid.b_values, cfg.nature_effort)
            assert np.all(grid.efforts <= cap + 1e-10)
            checked += 1
    # open system instances
    for ratio in (0.2, 0.8):
        cfg_o = BayesianConfig(prior=PoissonPrior(PoissonModel(rate=9.0, truncation=20)),
                               strategy=EarliestN(5), weightfn=PAPER_STEP, e0_ratio=ratio,
                               budget=1.0)
        from crowdcontest.open_system import solve_bne_open_earliest_n
        grid_o = solve_bne_open_earliest_n(
            cfg_o, drawn(cfg_o, "opponents", 2500, 11, grid_size=33))
        cap = effort_upper_bound(grid_o.b_values, cfg_o.nature_effort)
        assert np.all(grid_o.efforts <= cap + 1e-10)
        checked += 1
    _announce(10, f"equilibrium efforts under the theoretical cap on "
                  f"{checked} solved grids")
