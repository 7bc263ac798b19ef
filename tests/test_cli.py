import numpy as np
import pytest
from scipy import stats

from crowdcontest.bayesian_closed import (BayesianConfig, EarliestN, Termination,
                                          TypeGrid, calibrated_stage1)
from crowdcontest.cli import main
from crowdcontest.errors import ConfigError, InvalidInput
from crowdcontest.experiments import (PRESETS, TRACE_PRESETS, gen_trace_preset,
                                      load_spec, parse_spec, run_spec, sweep)
from crowdcontest.open_system import (OpenConfig, OpenEarliestN, OpenTermination,
                                      calibrated_open_stage1)
from crowdcontest.timing import UniformJoinTimes, ingest_trace_file

SMALL_SPEC = """
[experiment]
name = tiny
mode = closed
strategy = earliest_n
sweep = 2,3,4
e0_ratio = 0.5
budget = 1.0
seed = 7
n_players = 4
grid_size = 17
mc_samples = 1200
stage1_samples = 6000
output = tiny.csv

[join_model]
kind = uniform
lo = 0
hi = 6

[weights]
kind = step
breakpoints = 0,1.5,3,6
values = 1,0.6,0.2,0
"""

#: SMALL_SPEC's sweep in the open system, and a small open termination sweep
OPEN_SPEC = SMALL_SPEC.replace("mode = closed", "mode = open\nrate = 5\ntruncation = 6")
OPEN_TERMINATION_SPEC = OPEN_SPEC.replace("strategy = earliest_n", "strategy = termination") \
    .replace("sweep = 2,3,4", "sweep = 0.2,0.5,1.0")

TERMINATION_SPEC = """
[experiment]
name = tt
mode = closed
strategy = termination
sweep = 0.5:6:0.5
e0_ratio = 0.2,0.5,0.8
budget = 1.0
seed = 3
n_players = 12
output = tt.csv

[join_model]
kind = uniform
lo = 0
hi = 6

[weights]
kind = step
breakpoints = 0,1.5,3,6
values = 1,0.6,0.2,0
"""

COMPLETE_INFO_SPEC = """
[experiment]
name = ci
mode = complete_info
sweep = 1:4:1
n_players = 4
"""


def _read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestSpecParsing:
    def test_happy_path(self):
        spec = parse_spec(SMALL_SPEC)
        assert spec.mode == "closed"
        assert spec.sweep == (2.0, 3.0, 4.0)
        assert spec.e0_ratios == (0.5,)

    def test_range_sweep(self):
        spec = parse_spec(TERMINATION_SPEC)
        assert len(spec.sweep) == 12
        assert spec.sweep[0] == 0.5
        assert spec.sweep[-1] == 6.0

    def test_increasing_step_weights_name_the_invariant(self):
        bad = SMALL_SPEC.replace("values = 1,0.6,0.2,0", "values = 0.2,0.6,1,1")
        with pytest.raises(ConfigError) as err:
            parse_spec(bad)
        assert "weights" in str(err.value)
        assert "nonincreasing" in str(err.value)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            parse_spec(SMALL_SPEC.replace("mode = closed", "mode = sideways"))

    def test_missing_sweep(self):
        with pytest.raises(ConfigError):
            parse_spec(SMALL_SPEC.replace("sweep = 2,3,4", "sweep ="))

    def test_open_mode_needs_rate(self):
        text = SMALL_SPEC.replace("mode = closed", "mode = open")
        with pytest.raises(ConfigError) as err:
            parse_spec(text)
        assert "rate" in str(err.value)

    def test_load_spec_unknown_source(self):
        with pytest.raises(ConfigError):
            load_spec("no-such-spec-or-preset")

    def test_presets_all_parse(self):
        for name, text in PRESETS.items():
            spec = parse_spec(text)
            assert spec.name == name

    def test_earliestn_preset_sweeps_2_to_20(self):
        spec = load_spec("closed-earliestn-step")
        assert len(spec.sweep) == 19
        assert spec.sweep[0] == 2.0
        assert spec.sweep[-1] == 20.0


class TestRunSpec:
    def test_small_run_tables(self, tmp_path):
        spec = parse_spec(SMALL_SPEC)
        paths = run_spec(spec, out_dir=tmp_path)
        assert [p.name for p in paths] == ["tiny.csv", "tiny_effort.csv",
                                           "tiny_contour.csv", "tiny_optimum.csv"]
        header, rows = _read_rows(paths[0])
        assert header == ["n", "e0_ratio", "efficiency", "efficiency_stderr",
                          "calibrated_b", "expected_payment", "payment_stderr"]
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        for r in rows:
            balance = abs(float(r["expected_payment"]) - spec.budget)
            assert balance <= max(1e-3 * spec.budget,
                                  2 * float(r["payment_stderr"])) + 1e-12

    def test_open_termination_run(self, tmp_path):
        spec = parse_spec("""
[experiment]
name = ott
mode = open
strategy = termination
sweep = 0.2,0.5,1.0
e0_ratio = 0.5
budget = 1.0
seed = 2
rate = 5
truncation = 30
output = ott.csv

[weights]
kind = inverse_power
power = 2
scale = 1
""")
        paths = run_spec(spec, out_dir=tmp_path)
        _, rows = _read_rows(paths[0])
        assert [r["T"] for r in rows] == ["0.2", "0.5", "1.0"]
        for r in rows:
            assert abs(float(r["expected_payment"]) - 1.0) <= 1e-3
        _, effort_rows = _read_rows(paths[1])
        assert len(effort_rows) == 6  # flat in-time effort, two knots per T

    def test_termination_run_and_contour_monotonicity(self, tmp_path):
        spec = parse_spec(TERMINATION_SPEC)
        paths = run_spec(spec, out_dir=tmp_path)
        _, rows = _read_rows(paths[2])
        for ratio in ("0.2", "0.5", "0.8"):
            for budget in ("0.5", "1.0", "2.0"):
                bs = [float(r["calibrated_b"]) for r in rows
                      if r["budget"] == budget and r["e0_ratio"] == ratio]
                assert len(bs) == 12
                assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))

    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_derived_contour_matches_full_calibration(self, tmp_path, mode):
        # the budget-2 contour row is scaled from the budget-1 calibration;
        # a full calibration at budget 2 must give the same reward scale
        spec = parse_spec(SMALL_SPEC if mode == "closed" else OPEN_SPEC)
        paths = run_spec(spec, out_dir=tmp_path)
        _, rows = _read_rows(paths[2])
        [row] = [r for r in rows if r["budget"] == "2.0" and r["n"] == "3"]
        if mode == "closed":
            cfg = BayesianConfig(n_players=spec.n_players, strategy=EarliestN(3),
                                 join_model=spec.join_model, weightfn=spec.weightfn,
                                 e0_ratio=0.5, budget=2.0)
            calibrate = calibrated_stage1
        else:
            cfg = OpenConfig(poisson=spec.poisson, strategy=OpenEarliestN(3),
                             weightfn=spec.weightfn, e0_ratio=0.5, budget=2.0)
            calibrate = calibrated_open_stage1
        _, rep = calibrate(cfg, grid_size=spec.grid_size, mc_samples=spec.mc_samples,
                           stage1_samples=spec.stage1_samples, seed=spec.seed)
        assert float(row["calibrated_b"]) == pytest.approx(rep.calibrated_b, rel=1e-12)

    @pytest.mark.parametrize("text", [SMALL_SPEC, OPEN_SPEC, TERMINATION_SPEC],
                             ids=["closed", "open", "termination"])
    def test_optimum_row_is_the_best_main_row(self, tmp_path, text):
        spec = parse_spec(text)
        paths = run_spec(spec, out_dir=tmp_path)
        header, rows = _read_rows(paths[0])
        opt_header, optimum = _read_rows(paths[3])
        assert opt_header == header[:5]
        assert [r["e0_ratio"] for r in optimum] == [repr(x) for x in spec.e0_ratios]
        for opt in optimum:
            curve = [r for r in rows if r["e0_ratio"] == opt["e0_ratio"]]
            best = max(curve, key=lambda r: float(r["efficiency"]))
            assert opt == {k: best[k] for k in opt_header}

    def test_byte_identical_reruns(self, tmp_path):
        spec = parse_spec(SMALL_SPEC)
        first = run_spec(spec, out_dir=tmp_path / "a")
        second = run_spec(spec, out_dir=tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text", [SMALL_SPEC, OPEN_SPEC, OPEN_TERMINATION_SPEC],
                             ids=["closed", "open-earliest-n", "open-termination"])
    def test_worker_count_never_changes_output(self, tmp_path, monkeypatch, text):
        spec = parse_spec(text)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "1")
        serial = run_spec(spec, out_dir=tmp_path / "serial")
        monkeypatch.setenv("CROWDCONTEST_THREADS", "4")
        threaded = run_spec(spec, out_dir=tmp_path / "threaded")
        assert [p.name for p in serial] == [p.name for p in threaded]
        for p1, p2 in zip(serial, threaded):
            assert p1.read_bytes() == p2.read_bytes()

    def test_csf_surface_preset(self, tmp_path):
        paths = run_spec(load_spec("csf-gain-surface"), out_dir=tmp_path)
        header, rows = _read_rows(paths[0])
        assert header == ["u", "beta", "v", "gain"]
        assert len(rows) == 6 * 3 * 41
        # gain grows with u at any fixed (beta > 1, v)
        by_u = {}
        for r in rows:
            if r["beta"] != rows[5]["beta"] or r["v"] != "1.0":
                continue
            by_u[float(r["u"])] = float(r["gain"])
        us = sorted(by_u)
        assert all(by_u[a] <= by_u[b] for a, b in zip(us, us[1:]))

    def test_complete_info_preset(self, tmp_path):
        paths = run_spec(load_spec("complete-info-efficiency"), out_dir=tmp_path)
        _, rows = _read_rows(paths[0])
        assert len(rows) == 4 * 49


class TestSweep:
    def test_points_match_separate_calibrations(self, monkeypatch):
        spec = parse_spec(SMALL_SPEC)
        poisson = parse_spec(OPEN_SPEC).poisson
        configs = [
            BayesianConfig(n_players=4, strategy=EarliestN(3), join_model=spec.join_model,
                           weightfn=spec.weightfn, e0_ratio=0.5),
            BayesianConfig(n_players=4, strategy=Termination(2.0),
                           join_model=spec.join_model, weightfn=spec.weightfn,
                           e0_ratio=0.2, budget=2.0),
            OpenConfig(poisson=poisson, strategy=OpenEarliestN(2),
                       weightfn=spec.weightfn, e0_ratio=0.5),
            OpenConfig(poisson=poisson, strategy=OpenTermination(0.5),
                       weightfn=spec.weightfn, e0_ratio=0.8)]
        sizes = dict(grid_size=17, mc_samples=1200, stage1_samples=6000, seed=7)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        points, best = sweep(configs, **sizes)
        assert len(points) == len(configs)
        for cfg, (solution, rep) in zip(configs, points):
            calibrate = calibrated_stage1 if isinstance(cfg, BayesianConfig) \
                else calibrated_open_stage1
            alone, alone_rep = calibrate(cfg, **sizes)
            assert rep == alone_rep
            if isinstance(alone, TypeGrid):
                for field in ("times", "efforts", "b_values"):
                    assert np.array_equal(getattr(solution, field), getattr(alone, field))
            else:
                assert solution == alone
        effs = [rep.expected_efficiency for _, rep in points]
        assert best == effs.index(max(effs))

    def test_empty_sweep_is_invalid(self):
        with pytest.raises(InvalidInput):
            sweep([])


class TestCliEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.ini"
        spec_file.write_text(SMALL_SPEC)
        code = main(["run", str(spec_file), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tiny.csv").exists()

    def test_solver_error_exit_code_flushes_marker(self, tmp_path):
        # starved Monte Carlo budget in a no-nature open system: the noise
        # guard fires, partial tables land on disk with a failure marker
        spec_file = tmp_path / "noisy.ini"
        spec_file.write_text("""
[experiment]
name = noisy
mode = open
strategy = earliest_n
sweep = 2
rate = 2.0
truncation = 6
e0_ratio = 0.0
budget = 1.0
seed = 1
grid_size = 25
mc_samples = 300
stage1_samples = 2000
output = noisy.csv
""")
        assert main(["run", str(spec_file), "--out-dir", str(tmp_path)]) == 3
        assert "# FAILED" in (tmp_path / "noisy.csv").read_text()

    def test_config_error_exit_code(self, tmp_path):
        spec_file = tmp_path / "bad.ini"
        spec_file.write_text(SMALL_SPEC.replace("values = 1,0.6,0.2,0",
                                                "values = 0.2,0.6,1,1"))
        assert main(["run", str(spec_file), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, field", [
        (SMALL_SPEC.replace("lo = 0\nhi = 6", "lo = 6\nhi = 0"), "join_model"),
        (OPEN_SPEC.replace("rate = 5", "rate = -3"), "experiment"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = trace\npath = no/such/trace.csv\nwindow = 0,6"),
         "join_model"),
        (SMALL_SPEC.replace("n_players = 4", "n_players = abc"), "experiment.n_players"),
        (SMALL_SPEC.replace("sweep = 2,3,4", "sweep = 2,3,5"), "experiment.sweep"),
        (OPEN_SPEC.replace("sweep = 2,3,4", "sweep = 2,7"), "experiment.sweep"),
        (SMALL_SPEC.replace("sweep = 2,3,4", "sweep = 2,inf"), "experiment.sweep"),
        (SMALL_SPEC.replace("grid_size = 17", "grid_size = 1"), "experiment.grid_size"),
        (SMALL_SPEC.replace("seed = 7", "seed = -1"), "experiment.seed"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 0"), "experiment.sweep"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 1:5:1"), "experiment.sweep"),
        (SMALL_SPEC.replace("e0_ratio = 0.5", "e0_ratio = nan"), "experiment.e0_ratio"),
        (SMALL_SPEC.replace("budget = 1.0", "budget = nan"), "experiment.budget"),
        (SMALL_SPEC.replace("mc_samples = 1200", "mc_samples = 1"),
         "experiment.mc_samples"),
        (SMALL_SPEC.replace("stage1_samples = 6000", "stage1_samples = 1"),
         "experiment.stage1_samples"),
    ], ids=["lo-above-hi", "negative-rate", "missing-trace", "non-integer-N",
            "n-above-N", "n-above-truncation", "infinite-n", "grid-size-1", "negative-seed",
            "complete-info-n-0", "complete-info-n-above-N", "nan-e0-ratio",
            "nan-budget", "one-mc-sample", "one-stage1-sample"])
    def test_bad_spec_value_exits_2_naming_the_field(self, tmp_path, capsys, text,
                                                       field):
        spec_file = tmp_path / "bad.ini"
        spec_file.write_text(text)
        assert main(["run", str(spec_file), "--out-dir", str(tmp_path)]) == 2
        assert f"config error: [{field}]" in capsys.readouterr().err

    def test_unknown_preset_exit_code(self, tmp_path):
        assert main(["run", "definitely-not-a-preset",
                     "--out-dir", str(tmp_path)]) == 2

    def test_preset_list(self, capsys):
        assert main(["preset-list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out
        for name in TRACE_PRESETS:
            assert name in out

    def test_trace_gen_roundtrip(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace-gen", "uniform20", "11", str(out)]) == 0
        model = ingest_trace_file(out, (0.0, 6.0 * 3600.0))
        assert model.n_users == 20
        truth = UniformJoinTimes(0.0, 6.0)
        result = stats.kstest(model.sample_times, lambda x: truth.cdf(x))
        assert result.pvalue > 0.05


class TestTraceGeneration:
    def test_deterministic_bytes(self, tmp_path):
        a = gen_trace_preset("uniform20", 5, tmp_path / "a.csv")
        b = gen_trace_preset("uniform20", 5, tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
        c = gen_trace_preset("uniform20", 6, tmp_path / "c.csv")
        assert a.read_bytes() != c.read_bytes()

    def test_one_line_per_distinct_user(self, tmp_path):
        path = gen_trace_preset("uniform20", 3, tmp_path / "t.csv")
        lines = path.read_text().strip().splitlines()
        users = [line.split(",")[0] for line in lines]
        assert len(lines) == 20
        assert len(set(users)) == 20

    def test_duplicate_records_survive_roundtrip(self, tmp_path):
        from crowdcontest.experiments import gen_synthetic_trace
        path = gen_synthetic_trace(15, UniformJoinTimes(0.0, 6.0), 9,
                                   tmp_path / "dup.csv", window_hours=6.0,
                                   duplicates=True)
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 15
        model = ingest_trace_file(path, (0.0, 6.0 * 3600.0))
        assert model.n_users == 15

    def test_uniform_ks_mostly_passes(self, tmp_path):
        truth = UniformJoinTimes(0.0, 6.0)
        passes = 0
        for seed in range(30):
            path = gen_trace_preset("uniform20", seed, tmp_path / f"k{seed}.csv")
            model = ingest_trace_file(path, (0.0, 6.0 * 3600.0))
            passes += stats.kstest(model.sample_times,
                                   lambda x: truth.cdf(x)).pvalue > 0.05
        assert passes >= 27

    def test_bimodal_trace_has_two_modes(self, tmp_path):
        path = gen_trace_preset("bimodal60", 2, tmp_path / "bi.csv")
        model = ingest_trace_file(path, (0.0, 6.0 * 3600.0))
        grid = np.linspace(0.0, 6.0, 301)
        dens = model.smoothed_pdf(grid)
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        peaks = grid[1:-1][interior]
        prominent = [p for p in peaks
                     if dens[np.argmin(np.abs(grid - p))] > 0.25 * dens.max()]
        assert len(prominent) == 2

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            gen_trace_preset("nope", 1, tmp_path / "x.csv")
