import bisect
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import stats

from crowdcontest.errors import EmptyTrace, InvalidInput, MalformedRecord
from crowdcontest.numerics import spawn_rng
from crowdcontest.timing import (ConstantWeight, EmpiricalJoinTimes,
                                 ExponentialJoinTimes, InversePowerWeight,
                                 PoissonModel, StepWeight, TableJoinTimes,
                                 TableWeight, UniformJoinTimes, ingest_trace,
                                 parse_trace_file, poisson_pmf,
                                 sample_arrival_sequences)

ALL_MODELS = [
    UniformJoinTimes(0.0, 6.0),
    ExponentialJoinTimes(rate=0.7),
    TableJoinTimes([0.0, 1.0, 4.0, 6.0], [0.0, 0.25, 0.9, 1.0]),
    EmpiricalJoinTimes(np.array([0.5, 1.0, 2.5, 2.5, 4.0, 5.5]), 6.0),
]


class TestIngestTrace:
    def test_ecdf_anchor_points(self):
        m = ingest_trace([("a", 1.0), ("b", 2.0), ("c", 3.0)], (0.0, 6.0), "hours")
        assert m.cdf(0.0) == 0.0
        assert m.cdf(2.0) == pytest.approx(2 / 3)
        assert m.cdf(3.0) == pytest.approx(1.0)
        assert m.cdf(6.0) == pytest.approx(1.0)

    def test_duplicate_users_keep_first(self):
        m = ingest_trace([("a", 2.0), ("a", 1.0), ("a", 5.0), ("b", 3.0)],
                         (0.0, 6.0), "hours")
        assert m.n_users == 2
        assert m.sample_times[0] == pytest.approx(1.0)

    def test_out_of_window_dropped(self):
        m = ingest_trace([("a", 1.0), ("b", 9.0)], (0.0, 6.0), "hours")
        assert m.n_users == 1

    def test_empty_after_filtering(self):
        with pytest.raises(EmptyTrace):
            ingest_trace([("a", 9.0)], (0.0, 6.0), "hours")

    def test_user_joining_at_window_start(self):
        # an atom at the origin is smeared over a negligible width
        m = ingest_trace([("a", 0.0), ("b", 3.0)], (0.0, 6.0), "hours")
        assert m.cdf(0.0) == 0.0
        assert m.cdf(1e-6) == pytest.approx(0.5)
        assert m.cdf(3.0) == pytest.approx(1.0)

    def test_epoch_second_windows_rebased_to_hours(self):
        base = 1_600_000_000.0
        m = ingest_trace([("a", base + 3600.0), ("b", base + 7200.0)],
                         (base, base + 6 * 3600.0), "seconds")
        assert m.support == (0.0, 6.0)
        assert m.cdf(1.0) == pytest.approx(0.5)

    def test_long_window_in_hours_stays_in_hours(self):
        # a 30-hour window is longer than any day, yet its unit is hours
        m = ingest_trace([("a", 5.0), ("b", 20.0), ("c", 29.0)], (0.0, 30.0), "hours")
        assert m.support == (0.0, 30.0)
        assert m.cdf(20.0) == pytest.approx(2 / 3)

    def test_unknown_unit_is_invalid(self):
        with pytest.raises(InvalidInput, match="unit"):
            ingest_trace([("a", 1.0)], (0.0, 6.0), "minutes")

    def test_uniform_trace_passes_ks_in_most_seeds(self):
        passes = 0
        seeds = range(40)
        for seed in seeds:
            rng = spawn_rng(seed, 99)
            times = rng.uniform(0.0, 6.0, size=20)
            m = ingest_trace([(f"u{i}", t) for i, t in enumerate(times)],
                             (0.0, 6.0), "hours")
            stat = stats.kstest(m.sample_times, lambda x: x / 6.0)
            passes += stat.pvalue > 0.05
        assert passes >= 0.9 * len(seeds)


class TestTraceFile(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_header_and_epoch_seconds(self, tmp_path):
        path = self._write(tmp_path, "user_id,ap_id,timestamp\nu1,ap0,100.5\nu2,ap1,200\n")
        records = parse_trace_file(path)
        assert records == [("u1", 100.5), ("u2", 200.0)]

    def test_datetime_timestamps(self, tmp_path):
        path = self._write(tmp_path,
                           "u1,ap0,2024-05-01 10:30:00\nu2,ap1,2024-05-01 11:00:00\n")
        records = parse_trace_file(path)
        assert records[1][1] - records[0][1] == pytest.approx(1800.0)

    def test_datetime_timestamps_are_utc(self, tmp_path, monkeypatch):
        path = self._write(tmp_path, "u1,ap0,1970-01-01 00:00:00\n")
        monkeypatch.setenv("TZ", "America/New_York")
        time.tzset()
        try:
            assert parse_trace_file(path) == [("u1", 0.0)]
        finally:
            monkeypatch.undo()
            time.tzset()

    def test_malformed_line_reports_number(self, tmp_path):
        path = self._write(tmp_path, "u1,ap0,100\nu2,ap1\n")
        with pytest.raises(MalformedRecord) as err:
            parse_trace_file(path)
        assert err.value.line_no == 2

    def test_bad_timestamp_mid_file(self, tmp_path):
        path = self._write(tmp_path, "u1,ap0,100\nu2,ap1,whenever\n")
        with pytest.raises(MalformedRecord) as err:
            parse_trace_file(path)
        assert err.value.line_no == 2

    def test_nonfinite_timestamp_rejected(self, tmp_path):
        path = self._write(tmp_path, "u1,ap0,100\nu2,ap1,nan\n")
        with pytest.raises(MalformedRecord) as err:
            parse_trace_file(path)
        assert err.value.line_no == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyTrace):
            parse_trace_file(self._write(tmp_path, "user_id,ap_id,timestamp\n"))


class TestJoinModels:
    def test_uniform_cdf(self):
        assert UniformJoinTimes(0, 1).cdf(0.3) == pytest.approx(0.3)

    def test_exponential_cdf(self):
        assert ExponentialJoinTimes(2.0).cdf(1.0) == pytest.approx(1 - math.exp(-2))

    def test_table_cdf_from_ingest_example(self):
        m = ingest_trace([("a", 1.0), ("b", 2.0), ("c", 3.0)], (0.0, 6.0), "hours")
        assert m.cdf(2.0) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("build, other", [
        (lambda: TableJoinTimes([0.0, 1.0, 6.0], [0.0, 0.5, 1.0]),
         lambda: TableJoinTimes([0.0, 1.0, 6.0], [0.0, 0.4, 1.0])),
        (lambda: EmpiricalJoinTimes(np.array([0.5, 1.0, 2.5]), 6.0),
         lambda: EmpiricalJoinTimes(np.array([0.5, 1.0, 2.0]), 6.0)),
        (lambda: TableWeight([0.0, 2.0, 4.0], [1.0, 0.5, 0.0]),
         lambda: TableWeight([0.0, 2.0, 4.0], [1.0, 0.4, 0.0]))],
        ids=["table", "empirical", "table-weight"])
    def test_tables_compare_by_class_and_knots(self, build, other):
        a, b = build(), build()
        assert a == b and hash(a) == hash(b)
        assert a != other()
        assert repr(a).startswith(f"{type(a).__name__}(times=(0.0, ")

    def test_an_empirical_model_is_not_its_knots_table(self):
        empirical = EmpiricalJoinTimes(np.array([0.5, 1.0, 2.5]), 6.0)
        assert empirical != TableJoinTimes(empirical._xs, empirical._ys)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_sampling_matches_cdf(self, model):
        samples = model.sample(spawn_rng(31), 100_000)
        hi = model.support[1] if math.isfinite(model.support[1]) else model.quantile(0.999)
        grid = np.linspace(model.support[0], hi, 500)
        ecdf = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
        assert np.max(np.abs(ecdf - model.cdf(grid))) < 0.01

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_pdf_integrates_to_cdf_increments(self, model):
        hi = model.support[1] if math.isfinite(model.support[1]) else model.quantile(0.9999)
        grid = np.linspace(model.support[0], hi, 60_001)
        mids = 0.5 * (grid[1:] + grid[:-1])
        integral = np.cumsum(model.pdf(mids) * np.diff(grid))
        target = model.cdf(grid[1:]) - model.cdf(grid[0])
        assert np.max(np.abs(integral - target)) < 1e-4

    def test_out_of_support_conventions(self):
        m = UniformJoinTimes(1.0, 2.0)
        assert m.cdf(0.0) == 0.0
        assert m.cdf(5.0) == 1.0
        assert m.pdf(0.0) == 0.0

    @pytest.mark.parametrize("build", [
        lambda: UniformJoinTimes(0.0, math.inf),
        lambda: UniformJoinTimes(-math.inf, 1.0),
        lambda: UniformJoinTimes(math.nan, 1.0),
        lambda: UniformJoinTimes(0.0, math.nan),
        lambda: ExponentialJoinTimes(math.inf),
        lambda: ExponentialJoinTimes(math.nan),
        lambda: TableJoinTimes([0.0, 1.0, math.inf], [0.0, 0.5, 1.0]),
        lambda: TableJoinTimes([0.0, math.nan, 2.0], [0.0, 0.5, 1.0]),
        lambda: TableJoinTimes([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        # finite parameters whose width, mean or largest sampled quantile
        # overflows would put NaN or inf on the type grid
        lambda: UniformJoinTimes(-1e308, 1e308),
        lambda: ExponentialJoinTimes(1e-310),
        lambda: ExponentialJoinTimes(1e-308),
        lambda: TableJoinTimes([-1e308, 1e308], [0.0, 1.0]),
        lambda: TableJoinTimes([-1e308, -9e307, 9e307, 1e308], [0.0, 0.1, 0.9, 1.0]),
        # finite steps whose quantile slope, time per unit of cdf, overflows
        lambda: TableJoinTimes([-1e308, 0.0, 1e308], [0.0, 0.5, 1.0]),
        lambda: TableJoinTimes([0.0, 1.5e308, 1.6e308], [0.0, 0.1, 1.0]),
    ], ids=["uniform-inf-hi", "uniform-inf-lo", "uniform-nan-lo", "uniform-nan-hi",
            "exponential-inf", "exponential-nan", "table-inf-time", "table-nan-time",
            "table-nan-cdf", "uniform-infinite-width", "exponential-infinite-mean",
            "exponential-infinite-quantile", "table-infinite-step",
            "table-infinite-inner-step", "table-infinite-quantile-slope",
            "table-infinite-inner-quantile-slope"])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(InvalidInput, match="finite|rise"):
            build()

    def test_overflowing_cdf_slope_rejected(self):
        # a rise of the cdf over a step of 1e-310 read cdf = pdf = inf halfway;
        # a flat step that short is harmless
        with pytest.raises(InvalidInput, match="finite steps per unit of time"):
            TableJoinTimes([0.0, 1e-310], [0.0, 1.0])
        flat = TableJoinTimes([0.0, 1e-310, 1.0], [0.0, 0.0, 1.0])
        assert flat.cdf(5e-311) == flat.pdf(5e-311) == 0.0
        assert flat.cdf(0.5) == pytest.approx(0.5, rel=1e-12)

    def test_largest_finite_parameters_keep_finite_times(self):
        uniform = UniformJoinTimes(-1e308, 7e307)
        exponential = ExponentialJoinTimes(3e-307)
        table = TableJoinTimes([-1e308, 7e307], [0.0, 1.0])
        q = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert np.all(np.isfinite(uniform.quantile(q)))
        assert np.all(np.isfinite(exponential.quantile(q)))
        assert np.all(np.isfinite(table.quantile(q)))

    def test_smoothed_pdf_is_a_density(self):
        m = EmpiricalJoinTimes(np.array([1.0, 2.0, 3.0, 4.5]), 6.0)
        grid = np.linspace(-10, 16, 20_001)
        mass = np.trapezoid(m.smoothed_pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestWeights:
    def test_paper_step_values(self):
        # steps 1/0.6/0.2/0 switching 1.5h, 3h and 6h after the start
        w = StepWeight((0.0, 1.5, 3.0, 6.0), (1.0, 0.6, 0.2, 0.0))
        assert w(2.0) == 0.6  # noon for a 10:00 start
        assert w(0.0) == 1.0
        assert w(7.0) == 0.0  # beyond the last breakpoint: last value

    def test_inverse_quadratic_values(self):
        w = InversePowerWeight(power=2.0, scale=6.0, t0=10.0)
        assert w(10.0) == pytest.approx(1.0)
        assert w(16.0) == pytest.approx(0.25)

    def test_inverse_cubic_preset(self):
        w = InversePowerWeight(power=3.0, scale=3.0)
        assert w(3.0) == pytest.approx(0.125)

    def test_table_weight_interpolates(self):
        w = TableWeight([0.0, 2.0, 4.0], [1.0, 0.5, 0.0])
        assert w(1.0) == pytest.approx(0.75)
        assert w(9.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("w", [
        StepWeight((0.0, 1.5, 3.0, 6.0), (1.0, 0.6, 0.2, 0.0)),
        InversePowerWeight(power=2.0, scale=6.0),
        InversePowerWeight(power=3.0, scale=3.0),
        TableWeight([0.0, 2.0, 4.0], [1.0, 0.5, 0.0]),
        ConstantWeight(1.0),
    ], ids=lambda w: type(w).__name__)
    def test_nonincreasing_on_dense_grid(self, w):
        grid = np.linspace(-1.0, 10.0, 1000)
        vals = np.asarray(w(grid))
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0)

    @pytest.mark.parametrize("w", [
        StepWeight((0.0, 1.5, 3.0, 6.0), (1.0, 0.6, 0.2, 0.0)),
        InversePowerWeight(power=2.0, scale=6.0),
        InversePowerWeight(power=1.0, scale=2.0, t0=0.5),
        TableWeight([0.0, 2.0, 4.0], [1.0, 0.5, 0.0]),
    ], ids=lambda w: type(w).__name__)
    def test_analytic_integral_matches_midpoint_rule(self, w):
        lo, hi = 0.25, 5.5
        xs = np.linspace(lo, hi, 400_001)
        mids = 0.5 * (xs[1:] + xs[:-1])
        brute = float(np.sum(w(mids)) * (hi - lo) / mids.size)
        assert w.integral(lo, hi) == pytest.approx(brute, abs=5e-6)

    @pytest.mark.parametrize("build", [
        lambda: ConstantWeight(math.nan),
        lambda: ConstantWeight(math.inf),
        lambda: InversePowerWeight(power=math.nan),
        lambda: InversePowerWeight(power=math.inf),
        lambda: InversePowerWeight(scale=math.nan),
        lambda: InversePowerWeight(scale=math.inf),
        lambda: InversePowerWeight(t0=math.nan),
        lambda: InversePowerWeight(t0=-math.inf),
        lambda: StepWeight((math.nan,), (1.0,)),
        lambda: StepWeight((0.0, math.inf), (1.0, 0.5)),
        lambda: StepWeight((-math.inf, 0.0), (1.0, 0.5)),
        lambda: StepWeight((0.0, math.nan), (1.0, 0.5)),
        lambda: StepWeight((0.0, 1.0), (math.inf, 0.5)),
        lambda: StepWeight((0.0, 1.0), (1.0, math.nan)),
        lambda: TableWeight([0.0, math.inf], [1.0, 0.5]),
        lambda: TableWeight([math.nan, 1.0], [1.0, 0.5]),
        lambda: TableWeight([0.0, 1.0], [math.inf, 0.5]),
        lambda: TableWeight([0.0, 1.0], [1.0, math.nan]),
        # finite knots whose spacing overflows: np.interp returned 1.0 at 0.0
        lambda: TableWeight([-1e308, 1e308], [1.0, 0.0]),
        lambda: TableWeight([-1e308, -9e307, 9e307, 1e308], [1.0, 0.9, 0.1, 0.0]),
    ], ids=["constant-nan", "constant-inf", "power-nan", "power-inf", "scale-nan",
            "scale-inf", "t0-nan", "t0-inf", "step-nan-breakpoint",
            "step-inf-breakpoint", "step-minus-inf-breakpoint", "step-nan-breakpoint-2",
            "step-inf-value", "step-nan-value", "table-inf-time", "table-nan-time",
            "table-inf-value", "table-nan-value", "table-infinite-step",
            "table-infinite-inner-step"])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(InvalidInput, match="finite"):
            build()

    def test_widest_finite_table_interpolates(self):
        w = TableWeight([-1e308, 7e307], [1.0, 0.0])
        assert w(0.0) == pytest.approx(7e307 / 1.7e308, rel=1e-12)

    @pytest.mark.parametrize("times, values", [([0.0, 1e-310], [1.0, 0.0]),
                                               ([0.0, 0.1], [1e308, 0.0])],
                             ids=["short-step", "steep-fall"])
    def test_overflowing_weight_slope_rejected(self, times, values):
        # finite knots whose fall per unit of time overflows: the short step
        # read -inf halfway, where the table says 0.5
        with pytest.raises(InvalidInput, match="finite steps per unit of time"):
            TableWeight(times, values)

    def test_short_flat_weight_step_interpolates(self):
        w = TableWeight([0.0, 1e-310, 1.0], [1.0, 1.0, 0.0])
        assert w(5e-311) == 1.0
        assert w(0.5) == pytest.approx(0.5, rel=1e-12)

    def test_increasing_step_rejected(self):
        with pytest.raises(InvalidInput):
            StepWeight((0.0, 1.0), (0.2, 0.9))


class TestPoisson:
    def test_pmf_values(self):
        m = PoissonModel(rate=1.0)
        assert poisson_pmf(m, 1.0, 0) == pytest.approx(math.exp(-1))
        assert poisson_pmf(PoissonModel(rate=2.0), 1.0, 2) == pytest.approx(2 * math.exp(-2))

    def test_pmf_normalization(self):
        m = PoissonModel(rate=1.0)
        total = float(np.sum(poisson_pmf(m, 20.0, np.arange(201))))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rate, t", [(0.1, 0.3), (1.0, 1.0), (9.0, 1.5),
                                         (50.0, 6.0)])
    def test_pmf_array_equals_scalar_calls(self, rate, t):
        m = PoissonModel(rate=rate)
        ks = np.arange(int(2.0 * rate * t) + 64)
        pmf = poisson_pmf(m, t, ks)
        assert pmf.tolist() == [poisson_pmf(m, t, k) for k in ks.tolist()]
        assert poisson_pmf(m, t, ks[:60].reshape(6, 10)).tolist() == \
            pmf[:60].reshape(6, 10).tolist()

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(InvalidInput):
            PoissonModel(rate=rate)

    @pytest.mark.parametrize("truncation", [0, 2.5, 3.0, "3", None])
    def test_truncation_must_be_a_positive_integer(self, truncation):
        with pytest.raises(InvalidInput):
            PoissonModel(rate=1.0, truncation=truncation)

    def test_pmf_validation(self):
        with pytest.raises(InvalidInput):
            poisson_pmf(PoissonModel(rate=1.0), -1.0, 2)
        with pytest.raises(InvalidInput):
            poisson_pmf(PoissonModel(rate=1.0), 1.0, -2)

    @pytest.mark.parametrize("t, m", [(math.nan, 2), (math.inf, 2), (-math.inf, 2),
                                      (1.0, 1.5), (1.0, math.nan), (1.0, math.inf),
                                      (1.0, np.array([0.0, 0.5]))])
    def test_pmf_needs_a_finite_time_and_integer_counts(self, t, m):
        with pytest.raises(InvalidInput):
            poisson_pmf(PoissonModel(rate=1.0), t, m)

    def test_pmf_takes_integral_floats_as_counts(self):
        m = PoissonModel(rate=2.0)
        assert poisson_pmf(m, 1.5, 3.0) == poisson_pmf(m, 1.5, 3)
        assert poisson_pmf(m, 1.5, np.arange(5.0)).tolist() == \
            poisson_pmf(m, 1.5, np.arange(5)).tolist()

    def test_sequence_is_strictly_increasing(self):
        seq = sample_arrival_sequences(PoissonModel(rate=3.0, truncation=25), spawn_rng(4),
                                       1)[0]
        assert seq.shape == (25,)
        assert np.all(np.diff(seq) > 0)

    def test_erlang_means(self):
        seqs = sample_arrival_sequences(PoissonModel(rate=2.0, truncation=5), spawn_rng(10),
                                        200_000)
        se1 = seqs[:, 0].std(ddof=1) / math.sqrt(seqs.shape[0])
        se3 = seqs[:, 2].std(ddof=1) / math.sqrt(seqs.shape[0])
        assert abs(seqs[:, 0].mean() - 0.5) <= 3 * se1
        assert abs(seqs[:, 2].mean() - 1.5) <= 3 * se3

    def test_conditional_arrivals_are_ordered_uniforms(self):
        # given N(T) = 3, the first epoch over T follows Beta(1, 3)
        model = PoissonModel(rate=3.0, truncation=8)
        horizon = 1.0
        rng = spawn_rng(77)
        firsts = []
        while len(firsts) < 600:
            seqs = sample_arrival_sequences(model, rng, 2000)
            counts = np.sum(seqs <= horizon, axis=1)
            firsts.extend(seqs[counts == 3, 0] / horizon)
        result = stats.kstest(np.asarray(firsts[:600]), stats.beta(1, 3).cdf)
        assert result.pvalue > 0.05


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6, unique=True))
@hyp_settings(max_examples=50, deadline=None)
def test_random_step_weights_nonincreasing(breaks):
    breaks = sorted(breaks)
    values = np.linspace(1.0, 0.0, len(breaks))
    w = StepWeight(tuple(breaks), tuple(values))
    grid = np.linspace(0.0, 12.0, 500)
    assert np.all(np.diff(np.asarray(w(grid))) <= 1e-12)


@given(breaks=st.lists(st.floats(-5.0, 10.0), min_size=1, max_size=6, unique=True),
       t=st.lists(st.floats(-10.0, 20.0), min_size=0, max_size=40),
       rows=st.integers(1, 3))
@hyp_settings(max_examples=80, deadline=None)
def test_step_weight_values_match_a_scalar_search(breaks, t, rows):
    breaks = sorted(breaks)
    values = np.linspace(1.0, 0.1, len(breaks))
    w = StepWeight(tuple(breaks), tuple(values))
    # the knots themselves, besides arbitrary points, in a 2-d panel
    t = np.tile(np.concatenate([t, breaks]), (rows, 1))
    expect = [[w.values[max(bisect.bisect_right(w.breakpoints, x) - 1, 0)]
               for x in row] for row in t.tolist()]
    got = w(t)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(expect).reshape(t.shape))
    for scalar in (float(t[0, 0]), breaks[0] - 1.0, breaks[-1] + 1.0):
        got = w(scalar)
        assert type(got) is float
        assert got == w.values[max(bisect.bisect_right(w.breakpoints, scalar) - 1, 0)]
    # -inf takes the first value; +inf and NaN, which a search of the
    # breakpoints places past the last one, take the last
    edges = [w.values[0], w.values[-1], w.values[-1]]
    assert w(np.array([[-np.inf, np.inf, np.nan]])).tolist() == [edges]
    assert [w(x) for x in (-np.inf, np.inf, np.nan)] == edges
