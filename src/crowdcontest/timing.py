"""Joining-time laws (empirical from traces, parametric), requester weight
functions w(t), and the Poisson arrival model for the open system.

All solver-facing times are dimensionless fractional hours measured from the
start of the observation window; trace ingestion performs the conversion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import EmptyTrace, InvalidInput, MalformedRecord

_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
#: units a trace's timestamps and window may be given in, with the span of
#: one hour in each
TRACE_UNITS = {"seconds": 3600.0, "hours": 1.0}


# ---------------------------------------------------------------------------
# Joining-time models
# ---------------------------------------------------------------------------

class JoinTimeModel:
    """Common interface: cdf / pdf / quantile / sample over the support."""

    support: tuple[float, float]

    def cdf(self, t):
        raise NotImplementedError

    def pdf(self, t):
        raise NotImplementedError

    def quantile(self, q):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws by inverse-CDF sampling from the stream `rng`."""
        return np.asarray(self.quantile(rng.random(n)), dtype=float)


def _check_knot_times(xs: np.ndarray) -> None:
    """InvalidInput unless the 1-d knot times `xs` rise by finite steps:
    between finite knots whose np.diff overflows, np.interp returns inf or
    a wrong value."""
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(xs)
    if not np.all((steps > 0) & (steps < math.inf)):
        raise InvalidInput("knot times must be finite and strictly increasing "
                           "by finite steps")


def _check_slopes(xs: np.ndarray, ys: np.ndarray, message: str) -> None:
    """InvalidInput(message) unless the knot values `ys` change by finite
    steps per unit of `xs` wherever xs rises: where diff(ys) / diff(xs)
    overflows, np.interp of ys over xs returns inf or a wrong value."""
    rise = np.diff(xs)
    with np.errstate(divide="ignore", over="ignore"):
        slopes = np.diff(ys) / rise
    if not np.all(np.abs(slopes[rise > 0]) < math.inf):
        raise InvalidInput(message)


@dataclass(frozen=True)
class UniformJoinTimes(JoinTimeModel):
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (-math.inf < self.lo < self.hi and self.hi - self.lo < math.inf):
            raise InvalidInput(f"need lo < hi, hi - lo finite, got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "support", (self.lo, self.hi))

    def cdf(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo),
                       0.0, 1.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def quantile(self, q):
        return self.lo + np.asarray(q, dtype=float) * (self.hi - self.lo)


@dataclass(frozen=True)
class ExponentialJoinTimes(JoinTimeModel):
    rate: float = 1.0

    def __post_init__(self):
        # a draw's quantile reaches -log(2^-53) / rate, which must stay finite
        if not (0 < self.rate < math.inf and 53 * math.log(2) / self.rate < math.inf):
            raise InvalidInput(f"need rate > 0 with finite quantiles, got {self.rate!r}")
        object.__setattr__(self, "support", (0.0, math.inf))

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)

    def quantile(self, q):
        return -np.log1p(-np.asarray(q, dtype=float)) / self.rate


@dataclass(frozen=True)
class TableJoinTimes(JoinTimeModel):
    """Piecewise-linear CDF through given (time, probability) knots, kept as
    tuples of floats: tables of the same knots are the same model."""

    times: tuple
    cdf_values: tuple

    def __post_init__(self):
        xs = np.array(self.times, dtype=float)
        ys = np.array(self.cdf_values, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise InvalidInput("need matching 1-d knot arrays with >= 2 points")
        _check_knot_times(xs)
        if not np.all(np.diff(ys) >= 0) or abs(ys[0]) > 1e-9 or abs(ys[-1] - 1.0) > 1e-9:
            raise InvalidInput("cdf knots must rise from 0 to 1")
        _check_slopes(xs, ys, "cdf knots must rise by finite steps per unit of time")
        # the quantile interpolates times over probabilities
        _check_slopes(ys, xs, "knot times must rise by finite steps per unit of cdf")
        for name, value in (("times", tuple(xs.tolist())), ("_xs", xs), ("_ys", ys),
                            ("cdf_values", tuple(ys.tolist())),
                            ("support", (float(xs[0]), float(xs[-1])))):
            object.__setattr__(self, name, value)

    def cdf(self, t):
        return np.interp(np.asarray(t, dtype=float), self._xs, self._ys,
                         left=0.0, right=1.0)

    def pdf(self, t):
        """Exact derivative of the piecewise-linear CDF (right-continuous)."""
        t = np.asarray(t, dtype=float)
        slopes = np.diff(self._ys) / np.diff(self._xs)
        idx = np.clip(np.searchsorted(self._xs, t, side="right") - 1, 0,
                      slopes.size - 1)
        inside = (t >= self._xs[0]) & (t < self._xs[-1])
        return np.where(inside, slopes[idx], 0.0)

    def quantile(self, q):
        return np.interp(np.asarray(q, dtype=float), self._ys, self._xs)


class EmpiricalJoinTimes(TableJoinTimes):
    """Linearly-interpolated empirical CDF of per-user first-arrival times,
    anchored at F(window start) = 0. Also carries a Gaussian-kernel smoothed
    density (Silverman bandwidth) for reporting. Solvers read `cdf`,
    `quantile` and `sample`; the package itself never calls `pdf`.
    """

    def __init__(self, join_times, window_width: float):
        ts = np.sort(np.asarray(join_times, dtype=float))
        if ts.size == 0:
            raise EmptyTrace("no joining times inside the window")
        if ts[0] < 0 or ts[-1] > window_width:
            raise InvalidInput("joining times must lie inside the window")
        # a join exactly at the window start would put an atom at F(0); smear
        # it over a negligible width so the linear CDF still starts at 0
        ts = np.maximum(ts, 1e-12 * max(window_width, 1.0))
        n = ts.size
        xs = [0.0]
        ys = [0.0]
        for k, t in enumerate(ts, start=1):
            level = k / n
            if t <= xs[-1]:
                ys[-1] = level  # tied or boundary samples collapse to a jump
            else:
                xs.append(float(t))
                ys.append(level)
        if xs[-1] < window_width:
            xs.append(float(window_width))
            ys.append(1.0)
        super().__init__(xs, ys)
        sigma = float(np.std(ts, ddof=1)) if n > 1 else 0.0
        iqr = float(np.subtract(*np.percentile(ts, [75, 25])))
        spread = min(sigma, iqr / 1.34) if iqr > 0 and sigma > 0 else max(sigma, 1e-3)
        for name, value in (("sample_times", ts), ("n_users", n),
                            ("bandwidth", 0.9 * max(spread, 1e-6) * n ** (-0.2))):
            object.__setattr__(self, name, value)

    def smoothed_pdf(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        z = (t[:, None] - self.sample_times[None, :]) / self.bandwidth
        dens = np.exp(-0.5 * z * z).sum(axis=1)
        dens /= self.n_users * self.bandwidth * math.sqrt(2.0 * math.pi)
        return dens if dens.size > 1 else float(dens[0])


# ---------------------------------------------------------------------------
# Trace ingestion
# ---------------------------------------------------------------------------

def _parse_timestamp(raw: str) -> float | None:
    raw = raw.strip()
    try:
        value = float(raw)
        return value if math.isfinite(value) else None
    except ValueError:
        pass
    try:
        return datetime.strptime(raw, _TIMESTAMP_FORMAT) \
            .replace(tzinfo=timezone.utc).timestamp()
    except ValueError:
        return None


def parse_trace_file(path) -> list[tuple[str, float]]:
    """Read `user_id,ap_id,timestamp` lines into (user_id, epoch_seconds)
    records. Timestamps are epoch seconds or 'YYYY-MM-DD HH:MM:SS'; an
    optional header is detected by its unparseable timestamp field."""
    records: list[tuple[str, float]] = []
    with open(Path(path), encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise MalformedRecord(line_no, line, "expected 3 comma-separated fields")
            ts = _parse_timestamp(parts[2])
            if ts is None:
                if line_no == 1:
                    continue  # header
                raise MalformedRecord(line_no, line, "unparseable timestamp")
            records.append((parts[0].strip(), ts))
    if not records:
        raise EmptyTrace(f"{path}: no records")
    return records


def ingest_trace(records, window: tuple[float, float], unit: str) -> EmpiricalJoinTimes:
    """Empirical joining-time model from (user_id, timestamp) records.

    Only the first in-window timestamp per user counts (that is the joining
    time); duplicates are dropped. The timestamps and the window are in
    `unit`, "seconds" (epoch seconds, as `parse_trace_file` reads them) or
    "hours"; times are rebased to fractional hours from the window start.
    """
    if unit not in TRACE_UNITS:
        raise InvalidInput(f"unit must be one of {sorted(TRACE_UNITS)}, got {unit!r}")
    start, end = float(window[0]), float(window[1])
    if not end > start:
        raise InvalidInput(f"empty window [{start}, {end}]")
    scale = TRACE_UNITS[unit]
    first: dict[str, float] = {}
    for user_id, ts in records:
        ts = float(ts)
        if not start <= ts <= end:
            continue
        key = str(user_id)
        if key not in first or ts < first[key]:
            first[key] = ts
    if not first:
        raise EmptyTrace("no records inside the window")
    join_hours = np.array(sorted((ts - start) / scale for ts in first.values()))
    return EmpiricalJoinTimes(join_hours, window_width=(end - start) / scale)


def ingest_trace_file(path, window: tuple[float, float], unit: str) -> EmpiricalJoinTimes:
    return ingest_trace(parse_trace_file(path), window, unit)


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

class WeightFunction:
    """Nonincreasing requester valuation of a unit effort joined at time t."""

    def __call__(self, t):
        raise NotImplementedError

    def integral(self, lo: float, hi: float) -> float:
        """Plain integral of w over [lo, hi]."""
        raise NotImplementedError


@dataclass(frozen=True)
class StepWeight(WeightFunction):
    """Right-open steps: w(t) = values[k] on [breakpoints[k], breakpoints[k+1]),
    holding the last value beyond the final breakpoint."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        vals = tuple(float(x) for x in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) or len(bp) < 1:
            raise InvalidInput("need one value per breakpoint")
        if not all(-math.inf < b1 < b2 for b1, b2 in zip(bp, bp[1:] + (math.inf,))):
            raise InvalidInput("breakpoints must be finite and strictly increasing")
        if not all(0 <= v < math.inf for v in vals):
            raise InvalidInput("weights must be finite and >= 0")
        if any(v2 > v1 for v1, v2 in zip(vals, vals[1:])):
            raise InvalidInput("step weights must be nonincreasing")

    def __call__(self, t):
        # w(NaN) is the last value, as a search of the breakpoints finds it
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.values[0])
        for b, v in zip(self.breakpoints[1:], self.values[1:]):
            np.copyto(out, v, where=t >= b)
        np.copyto(out, self.values[-1], where=np.isnan(t))
        return out if out.ndim else float(out)

    def integral(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        edges = [lo] + [b for b in self.breakpoints if lo < b < hi] + [hi]
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            total += float(self(0.5 * (a + b))) * (b - a)
        return total


@dataclass(frozen=True)
class InversePowerWeight(WeightFunction):
    """w(t) = (1 + (t - t0)/scale)^(-power), clamped to its t0 value before t0."""

    power: float = 2.0
    scale: float = 6.0
    t0: float = 0.0

    def __post_init__(self):
        if not (0 < self.power < math.inf and 0 < self.scale < math.inf
                and math.isfinite(self.t0)):
            raise InvalidInput("power and scale must be finite and > 0, t0 finite")

    def __call__(self, t):
        rel = np.maximum(np.asarray(t, dtype=float) - self.t0, 0.0)
        out = (1.0 + rel / self.scale) ** (-self.power)
        return out if out.ndim else float(out)

    def integral(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        head = max(min(hi, self.t0) - lo, 0.0)  # clamped stretch at weight 1
        lo, hi = max(lo, self.t0), max(hi, self.t0)

        def anti(t: float) -> float:
            z = 1.0 + (t - self.t0) / self.scale
            if self.power == 1.0:
                return self.scale * math.log(z)
            return self.scale * (z ** (1.0 - self.power) - 1.0) / (1.0 - self.power)

        return head + anti(hi) - anti(lo)


@dataclass(frozen=True)
class TableWeight(WeightFunction):
    """Linear interpolation through (time, weight) knots, clamped outside,
    kept as tuples of floats: tables of the same knots are the same weights."""

    times: tuple
    values: tuple

    def __post_init__(self):
        xs = np.array(self.times, dtype=float)
        ys = np.array(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise InvalidInput("need matching 1-d knot arrays with >= 2 points")
        _check_knot_times(xs)
        if not np.all((ys >= 0) & (ys < math.inf)):
            raise InvalidInput("weights must be finite and >= 0")
        if np.any(np.diff(ys) > 1e-12):
            raise InvalidInput("table weights must be nonincreasing")
        _check_slopes(xs, ys, "table weights must fall by finite steps per unit of time")
        for name, value in (("times", tuple(xs.tolist())), ("values", tuple(ys.tolist())),
                            ("_xs", xs), ("_ys", ys)):
            object.__setattr__(self, name, value)

    def __call__(self, t):
        out = np.interp(np.asarray(t, dtype=float), self._xs, self._ys)
        return out if out.ndim else float(out)

    def integral(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        xs = np.unique(np.concatenate([[lo, hi],
                                       self._xs[(self._xs > lo) & (self._xs < hi)]]))
        ys = self(xs)
        return float(np.trapezoid(ys, xs))


@dataclass(frozen=True)
class ConstantWeight(WeightFunction):
    value: float = 1.0

    def __post_init__(self):
        if not 0 <= self.value < math.inf:
            raise InvalidInput(f"weight must be finite and >= 0, got {self.value!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.value)
        return out if out.ndim else float(out)

    def integral(self, lo: float, hi: float) -> float:
        return self.value * max(hi - lo, 0.0)


# ---------------------------------------------------------------------------
# Poisson arrivals (open system)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonModel:
    """Homogeneous Poisson arrivals at rate `rate`, truncated at the first
    `truncation` contributors for open-system solvers."""

    rate: float
    truncation: int = 30

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise InvalidInput(f"rate must be finite and > 0, got {self.rate!r}")
        if not isinstance(self.truncation, numbers.Integral):
            raise InvalidInput(f"truncation must be an integer, got {self.truncation!r}")
        if self.truncation < 1:
            raise InvalidInput("truncation must be >= 1")


def poisson_pmf(model: PoissonModel, t: float, m) -> float | np.ndarray:
    """P(N(t) = m) = (rate t)^m exp(-rate t) / m!."""
    m_arr = np.asarray(m)
    if not np.all(np.isfinite(m_arr) & (m_arr >= 0) & (m_arr == np.round(m_arr))):
        raise InvalidInput(f"m must be integers >= 0, got {m!r}")
    if not 0 <= t < math.inf:
        raise InvalidInput(f"t must be finite and >= 0, got {t!r}")
    lam_t = model.rate * t
    if lam_t == 0.0:
        out = np.where(m_arr == 0, 1.0, 0.0)
    else:
        log_pmf = m_arr * math.log(lam_t) - lam_t - \
            np.array([math.lgamma(k + 1.0) for k in np.ravel(m_arr).tolist()]).reshape(m_arr.shape)
        out = np.exp(log_pmf)
    return out if out.ndim else float(out)


def sample_arrival_sequences(model: PoissonModel, rng: np.random.Generator,
                             n: int, m: int | None = None) -> np.ndarray:
    """(n, m) array of arrival epochs from the stream `rng`, m defaulting to
    the model truncation."""
    m = model.truncation if m is None else m
    gaps = rng.exponential(scale=1.0 / model.rate, size=(n, m))
    return np.cumsum(gaps, axis=1, out=gaps)
