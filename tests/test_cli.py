import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import stats

from crowdcontest import bayesian_closed as bc
from crowdcontest import open_system as osys
from crowdcontest.bayesian_closed import (BayesianConfig, ClosedPrior, EarliestN,
                                          Termination, TypeGrid, calibrated_stage1)
from crowdcontest.cli import main
from crowdcontest.errors import ConfigError, InvalidInput, SolverError
from crowdcontest.experiments import (PRESETS, TRACE_PRESETS, OutputTable,
                                      _column_cells, gen_trace_preset, load_spec,
                                      parse_spec, run_spec, sweep)
from crowdcontest.open_system import calibrated_open_stage1
from crowdcontest.timing import UniformJoinTimes, ingest_trace_file

from helpers import drawn

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

    def test_range_sweep_has_no_float_noise(self):
        spec = parse_spec(TERMINATION_SPEC.replace("sweep = 0.5:6:0.5",
                                                   "sweep = 0.1:1.5:0.1"))
        assert len(spec.sweep) == 15
        assert spec.sweep[2] == 0.3
        assert spec.sweep[-1] == 1.5
        assert load_spec("closed-earliestn-step").sweep == \
            tuple(float(n) for n in range(2, 21))
        assert load_spec("closed-termination-step").sweep == \
            tuple(0.25 * k for k in range(1, 25))

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
    def test_rendered_cells(self):
        # a float cell is its shortest round-trip repr; a numpy scalar
        # renders as the number it holds
        table = OutputTable(name="cells", columns=("i", "x", "s"), meta={"k": 1})
        table.add(3, 0.1, "step")
        table.add(-2, -0.0, "a b")
        table.add(0, 1e-300, "")
        table.add(np.int64(7), np.float64(2.5e16), "x")
        # bulk rows, one sequence per column
        table.extend([True, 1], [0.0, 1.0], ["step", "step"])
        assert table.render() == ("# table=cells\n# k=1\ni,x,s\n3,0.1,step\n"
                                  "-2,-0.0,a b\n0,1e-300,\n7,2.5e+16,x\n"
                                  "True,0.0,step\n1,1.0,step\n")
        with pytest.raises(ConfigError):
            table.extend([1], [2.0])
        with pytest.raises(ValueError):
            table.extend([1, 2], [2.0], ["a"])

    def test_failed_calls_store_nothing(self):
        # a call that raises leaves no partial row behind, not even the
        # common prefix of unequal columns
        table = OutputTable(name="t", columns=("i", "x"))
        table.add(1, 2.0)
        rendered = table.render()
        with pytest.raises(ValueError):
            table.extend([3, 4, 5], [6.0])
        assert table.render() == rendered
        with pytest.raises(ConfigError):
            table.extend([3], [6.0], [7])
        assert table.render() == rendered
        with pytest.raises(ConfigError):
            table.add(3, 6.0, 7)
        assert table.render() == rendered

    def test_complete_info_without_e0_ratios_has_no_rows(self, tmp_path):
        spec = parse_spec("[experiment]\nname = ci\nmode = complete_info\n"
                          "sweep = 2,3\ne0_ratio =\nn_players = 4\noutput = ci.csv\n")
        (path,) = run_spec(spec, out_dir=tmp_path)
        assert path.read_text().splitlines()[-1] == "n,e0_ratio,efficiency"

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
        cfg = BayesianConfig(prior=spec.prior, strategy=EarliestN(3),
                             weightfn=spec.weightfn, e0_ratio=0.5, budget=2.0)
        calibrate = calibrated_stage1 if mode == "closed" else calibrated_open_stage1
        _, rep = calibrate(cfg, cfg.draws(spec.grid_size, spec.mc_samples,
                                          spec.stage1_samples, spec.seed))
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

    def test_import_loads_no_thread_pool(self):
        # only a run with more than one worker starts threads
        code = "import sys, crowdcontest; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.split() == ["False"]

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

    @pytest.mark.parametrize("preset", ["csf-gain-surface", "complete-info-efficiency"])
    def test_preset_files_match_rowwise_str(self, preset, tmp_path, monkeypatch):
        # the columnar store renders the bytes of `str` over each row of the
        # values the table holds: value columns of distinct floats beside
        # key columns that repeat a few values
        written = []
        write = OutputTable.write

        def record(table, path):
            written.append((table, path))
            write(table, path)

        monkeypatch.setattr(OutputTable, "write", record)
        run_spec(load_spec(preset), out_dir=tmp_path)
        assert written
        for table, path in written:
            lines = path.read_text().splitlines(keepends=True)
            body = lines.index(",".join(table.columns) + "\n") + 1
            assert "".join(lines[body:]) == "".join(
                ",".join(map(str, row)) + "\n" for row in zip(*table._values))


#: values that print alike, or compare equal and print differently
_LOOKALIKES = st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, False, math.nan, math.inf,
                               -math.inf, "", np.int64(0), np.int64(1), np.float64(-0.0),
                               np.float64(1.0), np.float64(math.nan)])
#: lookalikes mixed with arbitrary ints, floats, strings and numpy scalars
_CELL_VALUES = st.one_of(
    _LOOKALIKES,
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))
#: numbers of each type a table holds
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-2**70, 2**70),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans())


@st.composite
def _distinct_column(draw, size):
    """`size` values, more than half of them distinct, so that the column is
    formatted cell by cell: unique numbers of mixed types, with repeats and
    lookalikes (signed zeros, NaN, ±inf, 1 beside 1.0 and True) mixed in."""
    unique = draw(st.integers(size // 2 + 1, size)) if size else 0
    values = draw(st.lists(_NUMBERS, min_size=unique, max_size=unique, unique=True))
    extra = st.one_of(_LOOKALIKES, st.sampled_from(values)) if values else _LOOKALIKES
    repeats = draw(st.lists(extra, min_size=size - unique, max_size=size - unique))
    return draw(st.permutations(values + repeats))


@st.composite
def _repeating_column(draw, size):
    """`size` values drawn from a few, so values repeat heavily."""
    pool = draw(st.lists(_CELL_VALUES, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


@st.composite
def _tables(draw):
    """Columns of one length, each repeating a few values or mostly distinct;
    the first `split` rows are added one by one, the rest by `extend`."""
    size = draw(st.integers(0, 40))
    columns = draw(st.lists(_repeating_column(size) | _distinct_column(size),
                            min_size=1, max_size=4))
    rows = list(zip(*columns))
    return len(columns), rows, draw(st.integers(0, len(rows)))


@hyp_settings(max_examples=200, deadline=None)
@given(_tables())
def test_render_matches_rowwise_str(table_rows):
    width, rows, split = table_rows
    table = OutputTable(name="t", columns=tuple(f"c{i}" for i in range(width)))
    for row in rows[:split]:
        table.add(*row)
    if rows[split:]:
        table.extend(*zip(*rows[split:]))
    body = "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert table.render() == f"# table=t\n{','.join(table.columns)}\n{body}"


@st.composite
def _columns(draw):
    """A column drawn from a few values, so values repeat: of one type, which
    formats through one dict unless a value is zero, or of mixed types. Or a
    mostly distinct column, formatted cell by cell."""
    if draw(st.booleans()):
        return draw(_distinct_column(draw(st.integers(0, 40))))
    kind = draw(st.sampled_from([
        st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.integers(-2**70, 2**70),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
        | st.sampled_from([np.float64(0.0), np.float64(-0.0), np.float64(math.nan)]),
        # equal values of different types, which one dict would merge
        st.sampled_from([1, 1.0, True, np.int64(1), np.float64(1.0), 0, -0.0, False]),
        _CELL_VALUES]))
    pool = draw(st.lists(kind, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@hyp_settings(max_examples=300, deadline=None)
@given(_columns())
def test_column_cells_match_str(column):
    assert _column_cells(column) == [str(x) for x in column]


@st.composite
def _small_specs(draw):
    """A small spec of any mode and strategy: closed earliest-n, termination
    or linear decay on a uniform, exponential or kinked table prior, open
    earliest-n or termination, complete information or the CSF surfaces."""
    mode = draw(st.sampled_from(["closed", "closed", "closed", "open", "open",
                                 "complete_info", "csf_surfaces"]))
    lines = ["[experiment]", "name = generated", f"mode = {mode}",
             f"seed = {draw(st.integers(0, 9))}"]
    if mode == "csf_surfaces":
        return "\n".join(lines) + "\n"
    count = draw(st.integers(3, 5))
    ratios = draw(st.lists(st.sampled_from(["0", "0.25", "0.5", "1"]), min_size=1,
                           max_size=2, unique=True))
    lines += [f"n_players = {count}", f"e0_ratio = {','.join(ratios)}"]
    if mode == "complete_info":
        ns = draw(st.lists(st.integers(1, count), min_size=1, max_size=3, unique=True))
        return "\n".join(lines + [f"sweep = {','.join(map(str, ns))}"]) + "\n"
    strategy = draw(st.sampled_from(["earliest_n", "termination"]
                                    + ["linear"] * (mode == "closed")))
    values = {"earliest_n": st.integers(1, count).map(str),
              "termination": st.sampled_from(["0.5", "1.5", "4"]),
              "linear": st.sampled_from(["0.05", "0.2"])}[strategy]
    sweep_values = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    lines += [f"strategy = {strategy}", f"sweep = {','.join(sweep_values)}",
              "grid_size = 8", "mc_samples = 400", "stage1_samples = 300"]
    if mode == "open":
        lines += [f"rate = {draw(st.sampled_from(['2', '5']))}", f"truncation = {count}"]
    else:
        lines += ["", "[join_model]", draw(st.sampled_from([
            "kind = uniform\nlo = 0\nhi = 6", "kind = exponential\nrate = 1",
            "kind = table\ntimes = 0,1,6\ncdf = 0,0.5,1"]))]
    if draw(st.booleans()):
        lines += ["", "[weights]", "kind = step", "breakpoints = 0,1.5,3,6",
                  "values = 1,0.6,0.2,0"]
    return "\n".join(lines) + "\n"


@hyp_settings(max_examples=40, deadline=None)
@given(_small_specs())
def test_generated_specs_write_the_same_bytes_at_one_and_two_workers(text):
    spec = parse_spec(text)
    written = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for workers in ("1", "2"):
            mp.setenv("CROWDCONTEST_THREADS", workers)
            out = Path(tmp, workers)
            try:
                run_spec(spec, out_dir=out)
                failure = None
            except SolverError as exc:
                # a failing spec flushes its tables with the failure marker
                failure = str(exc)
            written.append((failure, {p.name: p.read_bytes()
                                      for p in sorted(out.glob("*.csv"))}))
    assert written[0][1] and written[0] == written[1]


def test_column_cells_keep_signed_zeros_and_distinct_nans():
    assert _column_cells([0.0, -0.0, 0.0]) == ["0.0", "-0.0", "0.0"]
    assert _column_cells([float("nan"), 2.5, float("nan"), 2.5]) == \
        ["nan", "2.5", "nan", "2.5"]
    assert _column_cells([1, 1.0, True, np.float64(1.0)]) == ["1", "1.0", "True", "1.0"]


class TestSweep:
    def test_points_match_separate_calibrations(self, monkeypatch):
        spec = parse_spec(SMALL_SPEC)
        open_prior = parse_spec(OPEN_SPEC).prior
        configs = [
            BayesianConfig(prior=ClosedPrior(4, spec.join_model), strategy=EarliestN(3),
                           weightfn=spec.weightfn, e0_ratio=0.5),
            BayesianConfig(prior=ClosedPrior(4, spec.join_model),
                           strategy=Termination(2.0), weightfn=spec.weightfn,
                           e0_ratio=0.2, budget=2.0),
            BayesianConfig(prior=open_prior, strategy=EarliestN(2),
                           weightfn=spec.weightfn, e0_ratio=0.5),
            BayesianConfig(prior=open_prior, strategy=Termination(0.5),
                           weightfn=spec.weightfn, e0_ratio=0.8)]
        sizes = dict(grid_size=17, mc_samples=1200, stage1_samples=6000, seed=7)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        points, best = sweep(configs, **sizes)
        assert len(points) == len(configs)
        for cfg, (solution, rep) in zip(configs, points):
            calibrate = calibrated_stage1 if isinstance(cfg.prior, ClosedPrior) \
                else calibrated_open_stage1
            alone, alone_rep = calibrate(cfg, cfg.draws(**sizes))
            assert rep == alone_rep
            if isinstance(alone, TypeGrid):
                for field in ("times", "efforts", "b_values"):
                    assert np.array_equal(getattr(solution, field), getattr(alone, field))
            else:
                assert solution == alone
        effs = [rep.expected_efficiency for _, rep in points]
        assert best == effs.index(max(effs))

    #: the streams of the priors' Stage-I panels and Stage-II opponents
    #: (`ClosedPrior.draws`, `PoissonPrior.draws`)
    PANEL_STREAMS = {0x51a6e1: "closed panel", 0x07e4: "open panel"}
    OPPONENT_STREAMS = {0x5e11: "closed opponents", 0x09e4: "open opponents"}

    @staticmethod
    def _drawn_streams(monkeypatch, streams: dict) -> list:
        """A list that names, from here on, each stream of `streams` that a
        prior's draws sample from."""
        drawn = []
        for module in (bc, osys):
            def counted(seed, *key, spawn=module.spawn_rng):
                drawn.extend(streams[k] for k in key if k in streams)
                return spawn(seed, *key)
            monkeypatch.setattr(module, "spawn_rng", counted)
        return drawn

    def test_sweep_builds_one_stage1_panel(self, monkeypatch):
        spec = parse_spec(SMALL_SPEC)
        open_prior = parse_spec(OPEN_SPEC).prior
        built = self._drawn_streams(monkeypatch, self.PANEL_STREAMS)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        sizes = dict(grid_size=17, mc_samples=1200, stage1_samples=6000, seed=7)
        sweep([BayesianConfig(prior=ClosedPrior(4, spec.join_model),
                              strategy=EarliestN(n), weightfn=spec.weightfn,
                              e0_ratio=0.5) for n in (2, 3, 4)], **sizes)
        assert built == ["closed panel"]
        sweep([BayesianConfig(prior=open_prior, strategy=EarliestN(n),
                              weightfn=spec.weightfn, e0_ratio=0.5) for n in (2, 3, 4)],
              **sizes)
        assert built == ["closed panel", "open panel"]

    def test_sweep_builds_one_opponent_panel(self, monkeypatch):
        spec = parse_spec(SMALL_SPEC)
        open_prior = parse_spec(OPEN_SPEC).prior
        built = self._drawn_streams(monkeypatch, self.OPPONENT_STREAMS)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        sizes = dict(grid_size=17, mc_samples=1200, stage1_samples=6000, seed=7)
        sweep([BayesianConfig(prior=ClosedPrior(4, spec.join_model),
                              strategy=EarliestN(n), weightfn=spec.weightfn,
                              e0_ratio=0.5) for n in (2, 3, 4)], **sizes)
        assert built == ["closed opponents"]
        sweep([BayesianConfig(prior=open_prior, strategy=EarliestN(n),
                              weightfn=spec.weightfn, e0_ratio=0.5) for n in (2, 3, 4)],
              **sizes)
        assert built == ["closed opponents", "open opponents"]

    def test_standalone_solves_match_the_shared_sweep(self, monkeypatch):
        spec = parse_spec(SMALL_SPEC)
        open_prior = parse_spec(OPEN_SPEC).prior
        configs = [BayesianConfig(prior=ClosedPrior(4, spec.join_model),
                                  strategy=EarliestN(n), weightfn=spec.weightfn,
                                  e0_ratio=0.5) for n in (2, 3, 4)]
        configs += [BayesianConfig(prior=open_prior, strategy=EarliestN(n),
                                   weightfn=spec.weightfn, e0_ratio=0.5)
                    for n in (2, 3, 4)]
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        points, _ = sweep(configs, grid_size=17, mc_samples=1200, stage1_samples=6000,
                          seed=7)
        for cfg, (grid, rep) in zip(configs, points):
            solve = bc.solve_bne_earliest_n if isinstance(cfg.prior, ClosedPrior) \
                else osys.solve_bne_open_earliest_n
            alone = solve(cfg, drawn(cfg, "opponents", 1200, 7, grid_size=17)).scaled(
                rep.calibrated_b / cfg.max_reward)
            for field in ("times", "efforts", "b_values"):
                assert np.array_equal(getattr(grid, field), getattr(alone, field))

    @pytest.mark.parametrize("preset", ["closed-earliestn-step", "closed-linear-step"])
    def test_spec_builds_one_stage1_panel(self, tmp_path, monkeypatch, preset):
        # three e0 ratios, and for linear decay the recalibrated contour rows,
        # all share the spec's one prior
        text = PRESETS[preset]
        for key, value in (("sweep", "2,3"), ("e0_ratio", "0.2,0.5,0.8"),
                           ("n_players", "4"), ("grid_size", "12"),
                           ("mc_samples", "600"), ("stage1_samples", "2000")):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        built = self._drawn_streams(monkeypatch, self.PANEL_STREAMS)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        run_spec(parse_spec(text), out_dir=tmp_path)
        assert built == ["closed panel"]

    @pytest.mark.parametrize("preset, prior", [
        ("closed-termination-step", ClosedPrior),
        ("open-termination-step", osys.PoissonPrior)])
    def test_spec_builds_termination_tables_once_per_deadline(self, tmp_path, monkeypatch,
                                                              preset, prior):
        # the tables depend on the prior and the deadline, not on e0 or b: the
        # three e0 ratios of each deadline share one build, and neither the
        # solves nor the reports build their own
        built, inner = [], prior.draws

        def counted(self, cfg, *sizes):
            built.append(cfg.strategy.deadline)
            return inner(self, cfg, *sizes)

        monkeypatch.setattr(prior, "draws", counted)
        monkeypatch.setenv("CROWDCONTEST_THREADS", "2")
        spec = load_spec(preset)
        run_spec(spec, out_dir=tmp_path)
        assert len(spec.e0_ratios) == 3
        assert built == list(spec.sweep)
        assert len(built) == {"closed-termination-step": 24,
                              "open-termination-step": 15}[preset]

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
                            "kind = trace\npath = no/such/trace.csv\nwindow = 0,6\n"
                            "unit = hours"),
         "join_model"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = trace\npath = no/such/trace.csv\nwindow = 0,6"),
         "join_model.unit"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = trace\npath = no/such/trace.csv\nwindow = 0,6\n"
                            "unit = minutes"),
         "join_model.unit"),
        (SMALL_SPEC.replace("n_players = 4", "n_players = abc"), "experiment.n_players"),
        (SMALL_SPEC.replace("n_players = 4", "n_players = 0"), "experiment.n_players"),
        (SMALL_SPEC.replace("sweep = 2,3,4", "sweep = 2,3,5"), "experiment.sweep"),
        (OPEN_SPEC.replace("sweep = 2,3,4", "sweep = 2,7"), "experiment.sweep"),
        (SMALL_SPEC.replace("sweep = 2,3,4", "sweep = 2,inf"), "experiment.sweep"),
        (SMALL_SPEC.replace("grid_size = 17", "grid_size = 1"), "experiment.grid_size"),
        (SMALL_SPEC.replace("seed = 7", "seed = -1"), "experiment.seed"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 0"), "experiment.sweep"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 1:5:1"), "experiment.sweep"),
        (OPEN_TERMINATION_SPEC.replace("sweep = 0.2,0.5,1.0", "sweep = 1.0,inf"),
         "experiment.sweep"),
        (SMALL_SPEC.replace("strategy = earliest_n", "strategy = linear")
         .replace("sweep = 2,3,4", "sweep = nan"), "experiment.sweep"),
        (SMALL_SPEC.replace("values = 1,0.6,0.2,0", "values = 1,nan,0.2,0"),
         "weights.values"),
        (SMALL_SPEC.replace("e0_ratio = 0.5", "e0_ratio = nan"), "experiment.e0_ratio"),
        (SMALL_SPEC.replace("e0_ratio = 0.5", "e0_ratio = 0.5,inf"),
         "experiment.e0_ratio"),
        (SMALL_SPEC.replace("budget = 1.0", "budget = nan"), "experiment.budget"),
        (SMALL_SPEC.replace("mc_samples = 1200", "mc_samples = 1"),
         "experiment.mc_samples"),
        (SMALL_SPEC.replace("stage1_samples = 6000", "stage1_samples = 1"),
         "experiment.stage1_samples"),
        (SMALL_SPEC.replace("kind = step", "kind = constant\nvalue = nan"), "weights"),
        (SMALL_SPEC.replace("kind = step", "kind = constant\nvalue = inf"), "weights"),
        (SMALL_SPEC.replace("kind = step", "kind = inverse_power\npower = nan"),
         "weights"),
        (SMALL_SPEC.replace("kind = step", "kind = inverse_power\nscale = inf"),
         "weights"),
        (SMALL_SPEC.replace("kind = step", "kind = inverse_power\nt0 = nan"), "weights"),
        (SMALL_SPEC.replace("hi = 6", "hi = inf"), "join_model"),
        (SMALL_SPEC.replace("lo = 0", "lo = nan"), "join_model"),
        (SMALL_SPEC.replace("kind = uniform", "kind = exponential\nrate = inf"),
         "join_model"),
        (SMALL_SPEC.replace("lo = 0\nhi = 6", "lo = -1e308\nhi = 1e308"), "join_model"),
        (TERMINATION_SPEC.replace("lo = 0\nhi = 6", "lo = -1e308\nhi = 1e308"),
         "join_model"),
        (SMALL_SPEC.replace("kind = uniform", "kind = exponential\nrate = 1e-310"),
         "join_model"),
        (TERMINATION_SPEC.replace("kind = uniform", "kind = exponential\nrate = 1e-310"),
         "join_model"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = table\ntimes = -1e308,1e308\ncdf = 0,1"), "join_model"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = table\ntimes = -1e308,0,1e308\ncdf = 0,0.5,1"),
         "join_model"),
        (SMALL_SPEC.replace("kind = step\nbreakpoints = 0,1.5,3,6\nvalues = 1,0.6,0.2,0",
                            "kind = table\ntimes = -1e308,1e308\nvalues = 1,0"),
         "weights"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = table\ntimes = 0,1e-310\ncdf = 0,1"), "join_model"),
        (SMALL_SPEC.replace("kind = step\nbreakpoints = 0,1.5,3,6\nvalues = 1,0.6,0.2,0",
                            "kind = table\ntimes = 0,1e-310\nvalues = 1,0"),
         "weights"),
        (SMALL_SPEC.replace("kind = uniform\nlo = 0\nhi = 6",
                            "kind = table\ntimes = 1e6,1000000.000000001,1000001\n"
                            "cdf = 0,0.99,1"), "experiment.grid_size"),
        (SMALL_SPEC.replace("sweep = 2,3,4", "sweep = 2.4,2.5"), "experiment.sweep"),
        (OPEN_SPEC.replace("sweep = 2,3,4", "sweep = 2,3.5"), "experiment.sweep"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 2.4,2.5"),
         "experiment.sweep"),
        (COMPLETE_INFO_SPEC.replace("sweep = 1:4:1", "sweep = 1.5:3:0.5"),
         "experiment.sweep"),
    ], ids=["lo-above-hi", "negative-rate", "missing-trace", "missing-trace-unit",
            "unknown-trace-unit", "non-integer-N", "zero-N",
            "n-above-N", "n-above-truncation", "infinite-n", "grid-size-1", "negative-seed",
            "complete-info-n-0", "complete-info-n-above-N", "infinite-deadline",
            "nan-velocity", "nan-weight", "nan-e0-ratio", "infinite-e0-ratio",
            "nan-budget", "one-mc-sample", "one-stage1-sample", "nan-constant-weight",
            "infinite-constant-weight", "nan-power", "infinite-scale", "nan-t0",
            "infinite-hi", "nan-lo", "infinite-rate", "infinite-width",
            "infinite-width-termination", "infinite-mean", "infinite-mean-termination",
            "overflowing-table-times", "overflowing-table-quantile",
            "overflowing-table-weights", "overflowing-table-cdf-slope",
            "overflowing-table-weight-slope", "repeating-quantile-grid", "fractional-n",
            "fractional-n-open", "complete-info-fractional-n",
            "complete-info-fractional-range"])
    def test_bad_spec_value_exits_2_naming_the_field(self, tmp_path, capsys, text,
                                                       field):
        spec_file = tmp_path / "bad.ini"
        spec_file.write_text(text)
        assert main(["run", str(spec_file), "--out-dir", str(tmp_path)]) == 2
        assert f"config error: [{field}]" in capsys.readouterr().err

    def test_large_closed_termination_contest(self, tmp_path):
        # the termination pmf stays float64 past N ~ 1030, where exact
        # binomial coefficients overflow a float
        spec_file = tmp_path / "large.ini"
        spec_file.write_text(TERMINATION_SPEC.replace("n_players = 12", "n_players = 1100")
                             .replace("sweep = 0.5:6:0.5", "sweep = 1,6"))
        assert main(["run", str(spec_file), "--out-dir", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "tt.csv")
        assert len(rows) == 2 * 3

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
        model = ingest_trace_file(out, (0.0, 6.0 * 3600.0), "seconds")
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
        model = ingest_trace_file(path, (0.0, 6.0 * 3600.0), "seconds")
        assert model.n_users == 15

    def test_uniform_ks_mostly_passes(self, tmp_path):
        truth = UniformJoinTimes(0.0, 6.0)
        passes = 0
        for seed in range(30):
            path = gen_trace_preset("uniform20", seed, tmp_path / f"k{seed}.csv")
            model = ingest_trace_file(path, (0.0, 6.0 * 3600.0), "seconds")
            passes += stats.kstest(model.sample_times,
                                   lambda x: truth.cdf(x)).pvalue > 0.05
        assert passes >= 27

    def test_bimodal_trace_has_two_modes(self, tmp_path):
        path = gen_trace_preset("bimodal60", 2, tmp_path / "bi.csv")
        model = ingest_trace_file(path, (0.0, 6.0 * 3600.0), "seconds")
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
