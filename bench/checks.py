"""Output checks for one benchmark pass.

A point is one row of a spec's main table (one sweep value at one e0 ratio,
one complete-information row, or one (u, beta, v) surface cell). A point
fails when any of its rows, in any table of its spec, fails one of:

- it matches the committed reference row value by value, within
  ``|x - ref| <= TOL * max(1, |ref|)``. TOL = 1e-6 lies above the solver's
  abs_tol = 1e-8, so last-ulp drift passes, and below every Monte Carlo
  standard error in the references (``make_refs.py`` asserts this);
- a main Bayesian row keeps ``|E[R] - B| <= max(1e-3 B, 2 stderr)``;
- an effort row keeps ``effort <= effort_upper_bound(b(t), e0)`` with
  e0 = e0_ratio * calibrated_b of its point, up to 1e-10.

A spec whose ``run_spec`` raised ``SolverError``, a missing file, a
different header or a different row count fails every point of the spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-6
CAP_SLACK = 1e-10
REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    #: points of closed/open Bayesian sweeps (denominator of per-point ratios)
    bne_points: int = 0
    messages: list[str] = field(default_factory=list)


def ref_path(workload: str, spec_seed: int | None) -> Path:
    if spec_seed is None:
        return REFS / f"{workload}.json"
    return REFS / workload / f"seed{spec_seed}.json"


def load_ref(workload: str, spec_seed: int | None) -> dict:
    with open(ref_path(workload, spec_seed), encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[float]]]:
    """``(metadata, header, rows)`` of a CSV written by ``OutputTable``."""
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, header or [], rows


def effort_upper_bound(b_t: float, e0: float) -> float:
    """b/4 when e0 <= b/4, else b^2 e0 / (4 (e0 + b/4)^2); 0 when b <= 0."""
    if b_t <= 0:
        return 0.0
    quarter = 0.25 * b_t
    if e0 <= quarter:
        return quarter
    return quarter * b_t * e0 / (e0 + quarter) ** 2


def _key_columns(header: list[str]) -> tuple[int, ...]:
    if header[0] in ("t", "budget"):       # effort and contour tables
        return (1, 2)
    if header[0] == "u":                   # CSF surfaces
        return (0, 1, 2)
    return (0, 1)                          # main and complete-info tables


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= TOL * max(1.0, abs(ref))


def check_outputs(ref: dict, out_dir: Path,
                  raised: dict[str, str] | None = None) -> CheckResult:
    """Check every table a pass wrote against the reference ``ref``;
    ``raised`` maps the name of each spec whose ``run_spec`` raised
    ``SolverError`` to the error message."""
    raised = raised or {}
    result = CheckResult()
    for spec in ref["specs"]:
        main_file = spec["files"][0]
        main_ref = spec["tables"][main_file]
        cols = _key_columns(main_ref["header"])
        points = [tuple(row[c] for c in cols) for row in main_ref["rows"]]
        bayesian = "expected_payment" in main_ref["header"]
        if spec["name"] in raised:
            failed = set(points)
            if len(result.messages) < 20:
                result.messages.append(f"{spec['name']}: SolverError: "
                                       f"{raised[spec['name']]}")
        else:
            failed = _check_spec(spec, out_dir, set(points), result.messages)
        result.attempted += len(points)
        result.failed += len(failed)
        if bayesian:
            result.bne_points += len(points)
    return result


def _check_spec(spec: dict, out_dir: Path, points: set, messages: list) -> set:
    failed: set = set()
    e0_of: dict = {}
    budget = None

    def fail(key, why):
        if len(messages) < 20:
            messages.append(why)
        if key is None:
            failed.update(points)
        else:
            failed.add(key)

    for fname in spec["files"]:
        ref = spec["tables"][fname]
        path = out_dir / fname
        if not path.is_file():
            fail(None, f"{fname}: missing")
            continue
        meta, header, rows = read_table(path)
        if any(key.startswith("FAILED") for key in meta):
            fail(None, f"{fname}: solver failure marker")
        if header != ref["header"] or len(rows) != len(ref["rows"]):
            fail(None, f"{fname}: {len(rows)} rows under {header}, expected "
                       f"{len(ref['rows'])} under {ref['header']}")
            continue
        cols = _key_columns(header)
        is_main = fname == spec["files"][0]
        if is_main and "expected_payment" in header:
            budget = float(meta["budget"])
        for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
            key = tuple(ref_row[c] for c in cols)
            bad = [header[j] for j, (x, r) in enumerate(zip(row, ref_row))
                   if not _close(x, r)]
            if bad:
                fail(key, f"{fname} row {i}: {bad} differ from the reference")
            rec = dict(zip(header, row))
            if budget is not None and is_main:
                pay, se = rec["expected_payment"], rec["payment_stderr"]
                if abs(pay - budget) > max(1e-3 * budget, 2.0 * se):
                    fail(key, f"{fname} row {i}: E[R]={pay!r} misses budget "
                              f"{budget!r}")
                e0_of[key] = rec["e0_ratio"] * rec["calibrated_b"]
            if header[0] == "t" and "effort" in rec:
                e0 = e0_of.get(key, math.nan)
                cap = effort_upper_bound(rec["b_of_t"], e0)
                if not rec["effort"] <= cap + CAP_SLACK:
                    fail(key, f"{fname} row {i}: effort {rec['effort']!r} above "
                              f"the cap {cap!r}")
    return failed
