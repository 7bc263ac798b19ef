"""Budget-calibrated sweeps (`sweep`) and the declarative experiment runner
built on them: INI specs (or named presets) describing a
closed/open/complete-info/discrimination-surface sweep, executed into CSV tables with a
metadata header. Identical spec text + seed reproduces byte-identical files.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import bayesian_closed as bc
from . import open_system as osys
from .contest import efficiency_identical
from .csf_analysis import reward_discrim_efficiency, reward_discrim_gain
from .errors import ConfigError, EmptyTrace, InvalidInput, MalformedRecord, SolverError
from .numerics import RngSeed, spawn_rng
from .timing import (TRACE_UNITS, ConstantWeight, ExponentialJoinTimes,
                     InversePowerWeight, JoinTimeModel, PoissonModel, StepWeight,
                     TableJoinTimes, TableWeight, UniformJoinTimes, ingest_trace_file)

THREADS_ENV = "CROWDCONTEST_THREADS"
CONTOUR_BUDGETS = (0.5, 1.0, 2.0)


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(int(raw), 1)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")


def _parallel_map(fn, items):
    """Map preserving input order; worker count from the environment."""
    workers = _thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------

def _column_cells(column) -> list[str]:
    """str(x) per value: cell by cell where most values are distinct, else
    once per distinct (type, value), but falsy values (0.0 == -0.0) and NaN
    (never equal) every time. A column of one type without a falsy value maps
    its distinct values through one dict: equal nonzero values of one type
    share their bits, so their strings are the same, and a NaN finds itself
    by identity."""
    distinct = set(column)
    if 2 * len(distinct) > len(column):
        return list(map(str, column))
    if all(distinct) and len(set(map(type, column))) == 1:
        memo = {x: str(x) for x in distinct}
        return list(map(memo.__getitem__, column))
    memo = {}
    cells = []
    for x in column:
        if not x or x != x:
            cells.append(str(x))
            continue
        key = (type(x), x)
        cell = memo.get(key)
        if cell is None:
            cell = memo[key] = str(x)
        cells.append(cell)
    return cells


@dataclass
class OutputTable:
    """A CSV table: `#` metadata lines, a header and one line per row, each
    cell `str(value)`, stored by column. `add` appends one row, `extend` one
    row per index of equally long columns; a call that raises stores nothing."""

    name: str
    columns: tuple[str, ...]
    meta: dict = field(default_factory=dict)
    failure: str | None = None

    def __post_init__(self):
        self._values = [[] for _ in self.columns]

    def add(self, *values) -> None:
        self.extend(*[(value,) for value in values])

    def extend(self, *columns) -> None:
        if len(columns) != len(self.columns):
            raise ConfigError(f"row width {len(columns)} != {len(self.columns)}")
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"column lengths {[len(c) for c in columns]} differ")
        for stored, column in zip(self._values, columns):
            stored.extend(column)

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())

    def render(self) -> str:
        buf = io.StringIO()
        buf.write(f"# table={self.name}\n")
        for key in sorted(self.meta):
            buf.write(f"# {key}={self.meta[key]}\n")
        buf.write(",".join(self.columns) + "\n")
        if any(self._values):
            cells = map(_column_cells, self._values)
            buf.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")
        if self.failure is not None:
            buf.write(f"# FAILED: {self.failure}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

MODES = ("closed", "open", "complete_info", "csf_surfaces")
STRATEGIES = ("earliest_n", "termination", "linear")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    mode: str
    strategy: str | None
    sweep: tuple[float, ...]
    e0_ratios: tuple[float, ...]
    budget: float
    seed: int
    n_players: int
    grid_size: int
    mc_samples: int
    stage1_samples: int
    join_model: JoinTimeModel | None
    prior: bc.ClosedPrior | osys.PoissonPrior | None
    weightfn: object
    output: str
    raw_text: str

    @property
    def spec_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


@contextmanager
def _field(name: str):
    """Report a value met while building field `name` that does not parse,
    breaks a model's invariant or names an unreadable trace as a ConfigError
    naming that field."""
    try:
        yield
    except (ValueError, OverflowError, OSError, EmptyTrace, MalformedRecord) as exc:
        raise ConfigError(str(exc), name) from exc


def _number(sec: configparser.SectionProxy, key: str, default, kind=int,
            low=-math.inf):
    """sec[key] (or `default` when absent) converted by `kind`; it must be
    finite and at least `low`."""
    name = f"{sec.name}.{key}"
    with _field(name):
        value = kind(sec.get(key, default))
    if not low <= value < math.inf:
        raise ConfigError(f"must be finite and >= {low}, got {value!r}", name)
    return value


def _floats(raw: str, fieldname: str) -> tuple[float, ...]:
    """The comma-separated finite numbers of `raw`."""
    try:
        values = tuple(float(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {raw!r}", fieldname)
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"expected finite numbers, got {raw!r}", fieldname)
    return values


def _sweep_values(raw: str) -> tuple[float, ...]:
    """Either an explicit comma list or an inclusive start:stop:step range.
    A range is counted and stepped in decimal arithmetic on the spec text,
    so 0.1:1.5:0.1 gives 0.3 and ends at 1.5 without binary rounding noise."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {raw!r}",
                              "experiment.sweep")
        import decimal      # only range sweeps need it; importing the package does not
        try:
            start, stop, step = (decimal.Decimal(p) for p in parts)
        except decimal.InvalidOperation:
            raise ValueError(f"range bounds must be numbers, got {raw!r}")
        if not all(math.isfinite(float(x)) for x in (start, stop, step)):
            raise ValueError(f"range bounds must be finite, got {raw!r}")
        if not float(step) > 0:
            raise ConfigError("sweep step must be > 0", "experiment.sweep")
        count = math.floor((stop - start) / step) + 1
        return tuple(float(start + i * step) for i in range(count))
    return _floats(raw, "experiment.sweep")


def _build_join_model(cfg: configparser.ConfigParser) -> JoinTimeModel | None:
    if not cfg.has_section("join_model"):
        return None
    sec = cfg["join_model"]
    kind = sec.get("kind", "uniform").strip()
    if kind == "uniform":
        return UniformJoinTimes(sec.getfloat("lo", 0.0), sec.getfloat("hi", 6.0))
    if kind == "exponential":
        return ExponentialJoinTimes(sec.getfloat("rate", 1.0))
    if kind == "table":
        times = _floats(sec.get("times", ""), "join_model.times")
        probs = _floats(sec.get("cdf", ""), "join_model.cdf")
        return TableJoinTimes(times, probs)
    if kind == "trace":
        path = sec.get("path", "")
        if not path:
            raise ConfigError("trace join model needs a path", "join_model.path")
        window = _floats(sec.get("window", ""), "join_model.window")
        if len(window) != 2:
            raise ConfigError("window must be start,end", "join_model.window")
        unit = sec.get("unit", "").strip()
        if unit not in TRACE_UNITS:
            raise ConfigError(f"unit must be one of {sorted(TRACE_UNITS)}, got {unit!r}",
                              "join_model.unit")
        return ingest_trace_file(path, (window[0], window[1]), unit)
    raise ConfigError(f"unknown join model kind {kind!r}", "join_model.kind")


def _build_weightfn(cfg: configparser.ConfigParser):
    if not cfg.has_section("weights"):
        return ConstantWeight(1.0)
    sec = cfg["weights"]
    kind = sec.get("kind", "constant").strip()
    if kind == "constant":
        return ConstantWeight(sec.getfloat("value", 1.0))
    if kind == "step":
        return StepWeight(_floats(sec.get("breakpoints", ""), "weights.breakpoints"),
                          _floats(sec.get("values", ""), "weights.values"))
    if kind == "inverse_power":
        return InversePowerWeight(power=sec.getfloat("power", 2.0),
                                  scale=sec.getfloat("scale", 6.0),
                                  t0=sec.getfloat("t0", 0.0))
    if kind == "table":
        return TableWeight(_floats(sec.get("times", ""), "weights.times"),
                           _floats(sec.get("values", ""), "weights.values"))
    raise ConfigError(f"unknown weight kind {kind!r}", "weights.kind")


def parse_spec(text: str) -> ExperimentSpec:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cfg.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"INI parse failure: {exc}")
    if not cfg.has_section("experiment"):
        raise ConfigError("missing [experiment] section", "experiment")
    exp = cfg["experiment"]
    mode = exp.get("mode", "").strip()
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}",
                          "experiment.mode")
    strategy = exp.get("strategy", "").strip() or None
    if mode in ("closed", "open"):
        if strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}",
                              "experiment.strategy")
        if mode == "open" and strategy == "linear":
            raise ConfigError("linear decay is a closed-system strategy",
                              "experiment.strategy")
    with _field("experiment.sweep"):
        sweep_values = _sweep_values(exp.get("sweep", "")) \
            if exp.get("sweep", "").strip() else tuple()
    if mode != "csf_surfaces" and not sweep_values:
        raise ConfigError("sweep must be nonempty", "experiment.sweep")

    prior = None
    if mode == "open":
        if "rate" not in exp:
            raise ConfigError("open mode needs an arrival rate", "experiment.rate")
        rate = _number(exp, "rate", None, float)
        truncation = _number(exp, "truncation", 30)
        with _field("experiment"):
            prior = osys.PoissonPrior(PoissonModel(rate=rate, truncation=truncation))

    with _field("join_model"):
        join_model = _build_join_model(cfg)
    if mode == "closed" and join_model is None:
        raise ConfigError("closed mode needs a [join_model] section", "join_model")

    with _field("weights"):
        weightfn = _build_weightfn(cfg)
    n_players = _number(exp, "n_players", 20)
    if mode == "closed":
        with _field("experiment.n_players"):
            prior = bc.ClosedPrior(n_players, join_model)
    spec = ExperimentSpec(
        name=exp.get("name", "experiment").strip(),
        mode=mode,
        strategy=strategy,
        sweep=sweep_values,
        e0_ratios=_floats(exp.get("e0_ratio", "0.5"), "experiment.e0_ratio"),
        budget=_number(exp, "budget", 1.0, float),
        seed=_number(exp, "seed", 0, low=0),
        n_players=n_players,
        grid_size=_number(exp, "grid_size", bc.GRID_SIZE, low=2),
        mc_samples=_number(exp, "mc_samples", bc.MC_SAMPLES, low=2),
        stage1_samples=_number(exp, "stage1_samples", bc.STAGE1_SAMPLES, low=2),
        join_model=join_model,
        prior=prior,
        weightfn=weightfn,
        output=exp.get("output", "out.csv").strip(),
        raw_text=text,
    )
    if mode == "closed" and strategy != "termination":
        with _field("experiment.grid_size"):
            bc._quantile_grid(join_model, spec.grid_size)
    if spec.budget <= 0:
        raise ConfigError("budget must be > 0", "experiment.budget")
    if not all(r >= 0 for r in spec.e0_ratios):
        raise ConfigError("e0_ratio must be >= 0", "experiment.e0_ratio")
    with _field("experiment.sweep"):
        for value in sweep_values:
            if mode == "complete_info" and not (float(value).is_integer()
                                                and 1 <= value <= spec.n_players):
                raise ConfigError(f"n must be an integer in [1, n_players], got {value}",
                                  "experiment.sweep")
            if mode in ("closed", "open"):
                # build each sweep value's config now, so that a value its
                # strategy rejects (say n outside [1, N], or [1, M] in open
                # mode) fails here
                _config(spec, value, 0.0, spec.budget)
    return spec


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _meta(spec: ExperimentSpec) -> dict:
    return {
        "name": spec.name,
        "mode": spec.mode,
        "seed": spec.seed,
        "spec_sha256": spec.spec_hash,
        "abs_tol": bc.BNE_TOL,
        "budget": spec.budget,
    }


def _strategy_obj(spec: ExperimentSpec, value: float) -> bc.Strategy:
    if spec.strategy == "earliest_n":
        # a fractional n goes through as it is, for EarliestN to reject
        return bc.EarliestN(int(value) if float(value).is_integer() else value)
    if spec.strategy == "termination":
        return bc.Termination(value)
    return bc.LinearDecay(value)


def _config(spec: ExperimentSpec, value: float, ratio: float,
            budget: float) -> bc.BayesianConfig:
    """The config of one sweep value at one e0 ratio over the spec's prior."""
    return bc.BayesianConfig(spec.prior, _strategy_obj(spec, value), spec.weightfn,
                             e0_ratio=ratio, budget=budget)


def _calibrate_all(configs, draws: dict, grid_size: int, mc_samples: int,
                   stage1_samples: int, seed: RngSeed
                   ) -> list[tuple[bc.TypeGrid | float, bc.StageOneReport]]:
    """`sweep`'s calibrated points. Each config's draws (`config.draws`:
    a prior's Monte Carlo draws, a termination deadline's exact tables) are
    built serially on first use and kept in the caller's `draws` by
    `config.draws_key`."""
    def draws_of(cfg):
        if cfg.draws_key not in draws:
            draws[cfg.draws_key] = cfg.draws(grid_size, mc_samples, stage1_samples, seed)
        return draws[cfg.draws_key]

    def calibrated(item):
        cfg, cfg_draws = item
        calibrate = bc.calibrated_stage1 if isinstance(cfg.prior, bc.ClosedPrior) \
            else osys.calibrated_open_stage1
        return calibrate(cfg, cfg_draws)

    return _parallel_map(calibrated, [(cfg, draws_of(cfg)) for cfg in configs])


def sweep(configs, grid_size: int = bc.GRID_SIZE, mc_samples: int = bc.MC_SAMPLES,
          stage1_samples: int = bc.STAGE1_SAMPLES, seed: RngSeed = 0
          ) -> tuple[list[tuple[bc.TypeGrid | float, bc.StageOneReport]], int]:
    """Budget-calibrate every config of a sweep, closed or open, with
    `CROWDCONTEST_THREADS` workers. The draws
    (`config.draws`: the Stage-I panel and the Stage-II opponents, or a
    termination strategy's exact tables) depend only on `config.draws_key`
    and the sweep's sizes and seed, so one per distinct key (a prior, or a
    prior and a deadline) is shared read-only by every config and worker.

    Returns the (Stage-II solution, StageOneReport) pair of each config, in
    input order, and the index of the highest expected efficiency: the
    sweep's optimum. The optimum is a swept point; nothing between the
    points is searched.
    """
    configs = list(configs)
    if not configs:
        raise InvalidInput("sweep needs at least one config")
    points = _calibrate_all(configs, {}, grid_size, mc_samples, stage1_samples, seed)
    return points, int(np.argmax([rep.expected_efficiency for _, rep in points]))


def _run_bne_sweep(spec: ExperimentSpec) -> list[OutputTable]:
    param_col = {"earliest_n": "n", "termination": "T", "linear": "h"}[spec.strategy]
    main = OutputTable(name=spec.name,
                       columns=(param_col, "e0_ratio", "efficiency",
                                "efficiency_stderr", "calibrated_b",
                                "expected_payment", "payment_stderr"),
                       meta=_meta(spec))
    effort = OutputTable(name=f"{spec.name}-effort",
                         columns=("t", param_col, "e0_ratio", "effort", "b_of_t"),
                         meta=_meta(spec))
    contour = OutputTable(name=f"{spec.name}-contour",
                          columns=("budget", param_col, "e0_ratio", "calibrated_b"),
                          meta=_meta(spec))
    optimum = OutputTable(name=f"{spec.name}-optimum",
                          columns=main.columns[:5], meta=_meta(spec))
    tables = [main, effort, contour, optimum]
    # the draws do not depend on e0 or the budget: one per prior (and
    # deadline) serves every e0 ratio and recalibrated contour row of the spec
    draws = {}
    width = len(spec.sweep)

    def run(cases):
        # the sweep's calibrated points at each (e0 ratio, budget) case
        configs = [_config(spec, value, ratio, budget)
                   for ratio, budget in cases for value in spec.sweep]
        points = _calibrate_all(configs, draws, spec.grid_size, spec.mc_samples,
                                spec.stage1_samples, spec.seed)
        return [points[i:i + width] for i in range(0, len(points), width)]

    try:
        sweeps = run([(ratio, spec.budget) for ratio in spec.e0_ratios])
    except SolverError as exc:
        main.failure = str(exc)
        return tables

    def _param(value: float):
        return int(round(value)) if spec.strategy == "earliest_n" else value

    for ratio, points in zip(spec.e0_ratios, sweeps):
        best = int(np.argmax([rep.expected_efficiency for _, rep in points]))
        for i, (value, (stage2, rep)) in enumerate(zip(spec.sweep, points)):
            row = (_param(value), ratio, rep.expected_efficiency,
                   rep.efficiency_stderr, rep.calibrated_b)
            main.add(*row, rep.expected_payment, rep.payment_stderr)
            if i == best:
                optimum.add(*row)
            if isinstance(stage2, bc.TypeGrid):
                size = len(stage2.times)
                effort.extend(stage2.times.tolist(), [_param(value)] * size, [ratio] * size,
                              stage2.efforts.tolist(), stage2.b_values.tolist())
            else:
                # termination: the in-time effort e* is flat, tabulate the step
                effort.add(0.0, _param(value), ratio, stage2, rep.calibrated_b)
                effort.add(float(value), _param(value), ratio, stage2, rep.calibrated_b)

    # contour lines: calibrated b over the sweep at reference budgets. Where
    # the model is homogeneous in b, b* is proportional to the budget, so the
    # row follows from the main table; linear decay is recalibrated at every
    # budget but the spec's own.
    scales = bc.scales_with_reward(_strategy_obj(spec, spec.sweep[0]))
    off_budget = [] if scales else [(ratio, budget) for ratio in spec.e0_ratios
                                    for budget in CONTOUR_BUDGETS
                                    if budget != spec.budget]
    try:
        recalibrated = dict(zip(off_budget, run(off_budget)))
    except SolverError as exc:
        contour.failure = str(exc)
        return tables
    for ratio, points in zip(spec.e0_ratios, sweeps):
        for budget in CONTOUR_BUDGETS:
            if (ratio, budget) in recalibrated:
                factor, at_budget = 1.0, recalibrated[ratio, budget]
            else:
                factor, at_budget = budget / spec.budget, points
            for value, (_, rep) in zip(spec.sweep, at_budget):
                contour.add(budget, _param(value), ratio, factor * rep.calibrated_b)
    return tables


def _run_complete_info(spec: ExperimentSpec) -> list[OutputTable]:
    table = OutputTable(name=spec.name,
                        columns=("n", "e0_ratio", "efficiency"),
                        meta=_meta(spec))
    n_total = spec.n_players
    model = spec.join_model or UniformJoinTimes(0.0, 1.0)
    # requester valuations at the expected order statistics of the prior
    ranks = model.quantile((np.arange(1, n_total + 1)) / (n_total + 1.0))
    weights = np.asarray(spec.weightfn(ranks), dtype=float)
    ns = [round(value) for value in spec.sweep]
    # one row per (e0 ratio, n), ratio-major
    efficiency = efficiency_identical(np.array(ns), 1.0,
                                      np.array(spec.e0_ratios)[:, None], weights)
    table.extend(ns * len(spec.e0_ratios),
                 [ratio for ratio in spec.e0_ratios for _ in ns],
                 efficiency.ravel().tolist())
    return [table]


def _run_csf_surfaces(spec: ExperimentSpec) -> list[OutputTable]:
    gain = OutputTable(name=f"{spec.name}-gain",
                       columns=("u", "beta", "v", "gain"), meta=_meta(spec))
    eff = OutputTable(name=f"{spec.name}-efficiency",
                      columns=("u", "beta", "v", "efficiency"), meta=_meta(spec))
    us = (1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
    betas = np.geomspace(1.0, 10.0, 41)
    vs = (0.25, 0.5, 1.0)
    # rows run u-major, then v, then beta; one (u, beta) surface per v
    u_col, v_col, beta_col = zip(*product(us, vs, betas.tolist()))
    for table, surface in ((gain, reward_discrim_gain), (eff, reward_discrim_efficiency)):
        values = np.stack([surface(betas, v, np.array(us)[:, None]) for v in vs], axis=1)
        table.extend(u_col, beta_col, v_col, values.ravel().tolist())
    return [gain, eff]


def run_spec(spec: ExperimentSpec, out_dir=".") -> list[Path]:
    """Execute a parsed spec; one CSV per produced table. Returns the paths.
    Raises SolverError after flushing partial tables with a failure marker."""
    if spec.mode == "complete_info":
        tables = _run_complete_info(spec)
    elif spec.mode == "csf_surfaces":
        tables = _run_csf_surfaces(spec)
    else:
        tables = _run_bne_sweep(spec)

    stem = Path(spec.output).stem or "out"
    out_dir = Path(out_dir)
    paths = []
    failed = None
    for i, table in enumerate(tables):
        suffix = "" if i == 0 else f"_{table.name.rsplit('-', 1)[-1]}"
        path = out_dir / f"{stem}{suffix}.csv"
        table.write(path)
        paths.append(path)
        if table.failure:
            failed = table.failure
    if failed:
        raise SolverError(failed)
    return paths


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------

def gen_synthetic_trace(n_users: int, model: JoinTimeModel, seed: int,
                        out_path, window_hours: float | None = None,
                        duplicates: bool = False) -> Path:
    """Write a synthetic trace in the ingestible format: one joining record
    per user (plus optional later duplicate records to exercise the
    first-timestamp rule), as epoch-second timestamps from a zero base.
    Byte-identical for a fixed seed."""
    rng = spawn_rng(seed, 0x7ace)
    joins = np.sort(model.sample(rng, n_users))
    hi = window_hours if window_hours is not None else float(model.support[1])
    lines = []
    for idx, t in enumerate(joins):
        lines.append(f"u{idx:04d},ap{int(rng.integers(0, 8)):02d},{t * 3600.0:.3f}")
        if duplicates:
            for _ in range(int(rng.integers(0, 3))):
                later = min(t + float(rng.uniform(0.0, 2.0)), hi)
                lines.append(f"u{idx:04d},ap{int(rng.integers(0, 8)):02d},"
                             f"{later * 3600.0:.3f}")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_path


def _bimodal_model(width: float = 6.0) -> TableJoinTimes:
    """Two-bump mixture on [0, width], tabulated as a fine piecewise-linear CDF."""
    ts = np.linspace(0.0, width, 601)
    z1 = (ts - 0.25 * width) / (0.07 * width)
    z2 = (ts - 0.72 * width) / (0.09 * width)
    dens = 0.55 * np.exp(-0.5 * z1 * z1) + 0.45 * np.exp(-0.5 * z2 * z2)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]))])
    cdf /= cdf[-1]
    # strictly increasing knots for the inverse
    cdf = np.maximum.accumulate(cdf + np.arange(cdf.size) * 1e-12)
    cdf /= cdf[-1]
    return TableJoinTimes(ts, cdf)


TRACE_PRESETS: dict[str, tuple[int, object, float]] = {
    "uniform20": (20, lambda: UniformJoinTimes(0.0, 6.0), 6.0),
    "uniform200": (200, lambda: UniformJoinTimes(0.0, 6.0), 6.0),
    "bimodal60": (60, _bimodal_model, 6.0),
    "exponential100": (100, lambda: ExponentialJoinTimes(rate=0.6), 24.0),
}


def gen_trace_preset(preset: str, seed: int, out_path) -> Path:
    if preset not in TRACE_PRESETS:
        raise ConfigError(f"unknown trace preset {preset!r}; "
                          f"known: {sorted(TRACE_PRESETS)}", "trace-gen")
    n_users, factory, width = TRACE_PRESETS[preset]
    return gen_synthetic_trace(n_users, factory(), seed, out_path,
                               window_hours=width)


# ---------------------------------------------------------------------------
# Experiment presets (synthetic stand-ins for the trace-driven figures)
# ---------------------------------------------------------------------------

_STEP_WEIGHTS = """
[weights]
kind = step
breakpoints = 0,1.5,3,6
values = 1,0.6,0.2,0
"""

_INVERSE_WEIGHTS = """
[weights]
kind = inverse_power
power = 2
scale = 6
t0 = 0
"""

_UNIFORM_JOIN = """
[join_model]
kind = uniform
lo = 0
hi = 6
"""

PRESETS: dict[str, str] = {
    "closed-earliestn-step": f"""
[experiment]
name = closed-earliestn-step
mode = closed
strategy = earliest_n
sweep = 2:20:1
e0_ratio = 0.5
budget = 1.0
seed = 42
n_players = 20
grid_size = 48
mc_samples = 4000
stage1_samples = 40000
output = closed_earliestn_step.csv
{_UNIFORM_JOIN}{_STEP_WEIGHTS}""",
    "closed-earliestn-inverse": f"""
[experiment]
name = closed-earliestn-inverse
mode = closed
strategy = earliest_n
sweep = 2:20:1
e0_ratio = 0.5
budget = 1.0
seed = 42
n_players = 20
grid_size = 48
mc_samples = 4000
stage1_samples = 40000
output = closed_earliestn_inverse.csv
{_UNIFORM_JOIN}{_INVERSE_WEIGHTS}""",
    "closed-termination-step": f"""
[experiment]
name = closed-termination-step
mode = closed
strategy = termination
sweep = 0.25:6:0.25
e0_ratio = 0.2,0.5,0.8
budget = 1.0
seed = 42
n_players = 20
output = closed_termination_step.csv
{_UNIFORM_JOIN}{_STEP_WEIGHTS}""",
    "closed-termination-inverse": f"""
[experiment]
name = closed-termination-inverse
mode = closed
strategy = termination
sweep = 0.25:6:0.25
e0_ratio = 0.2,0.5,0.8
budget = 1.0
seed = 42
n_players = 20
output = closed_termination_inverse.csv
{_UNIFORM_JOIN}{_INVERSE_WEIGHTS}""",
    "closed-linear-step": f"""
[experiment]
name = closed-linear-step
mode = closed
strategy = linear
sweep = 0.05,0.1,0.2,0.4,0.8
e0_ratio = 0.5
budget = 1.0
seed = 42
n_players = 10
grid_size = 40
mc_samples = 4000
stage1_samples = 40000
output = closed_linear_step.csv
{_UNIFORM_JOIN}{_STEP_WEIGHTS}""",
    "open-earliestn-step": f"""
[experiment]
name = open-earliestn-step
mode = open
strategy = earliest_n
sweep = 2:20:1
e0_ratio = 0.5
budget = 1.0
seed = 42
rate = 9
truncation = 30
grid_size = 48
mc_samples = 4000
stage1_samples = 40000
output = open_earliestn_step.csv
{_STEP_WEIGHTS}""",
    "open-termination-step": f"""
[experiment]
name = open-termination-step
mode = open
strategy = termination
sweep = 0.1:1.5:0.1
e0_ratio = 0.2,0.5,0.8
budget = 1.0
seed = 42
rate = 9
truncation = 40
output = open_termination_step.csv
{_STEP_WEIGHTS}""",
    "complete-info-efficiency": f"""
[experiment]
name = complete-info-efficiency
mode = complete_info
sweep = 2:50:1
e0_ratio = 0,0.2,0.5,0.8
budget = 1.0
seed = 42
n_players = 50
output = complete_info_efficiency.csv
{_UNIFORM_JOIN}{_STEP_WEIGHTS}""",
    "csf-gain-surface": """
[experiment]
name = csf-gain-surface
mode = csf_surfaces
seed = 42
output = csf_surface.csv
""",
}


def load_spec(source: str) -> ExperimentSpec:
    """Parse a spec from a file path or a preset name."""
    path = Path(source)
    if path.exists():
        return parse_spec(path.read_text(encoding="utf-8"))
    if source in PRESETS:
        return parse_spec(PRESETS[source])
    raise ConfigError(f"{source!r} is neither a spec file nor a preset; "
                      f"known presets: {sorted(PRESETS)}")
