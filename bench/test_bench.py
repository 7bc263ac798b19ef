"""Self-tests of the benchmark (not part of the package's test suite):

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import child
import run
import tracer as tracing
import workloads

#: every function a per-layer metric names, under the workload meant to hit it
EXPECTED_HITS = {
    "earliest-n": (
        "bayesian_closed.solve_bne_earliest_n", "bayesian_closed.stage1_metrics_mc",
        "bayesian_closed.calibrate_b", "bayesian_closed.calibrated_stage1",
        "timing.JoinTimeModel.sample", "numerics.spawn_rng",
        "experiments.parse_spec", "experiments.run_spec",
        "experiments.OutputTable.write",
        "open_system.solve_bne_open_earliest_n", "open_system.stage1_open_earliest_n",
        "open_system.calibrated_open_stage1", "timing.sample_arrival_sequences",
        "numerics.bisect"),
    "closed-form": (
        "bayesian_closed.solve_bne_termination",
        "bayesian_closed.stage1_metrics_termination",
        "open_system.solve_bne_open_termination", "open_system.stage1_open_termination",
        "numerics.bisect", "contest.efficiency_identical",
        "csf_analysis.reward_discrim_gain", "csf_analysis.reward_discrim_efficiency",
        "bayesian_closed.calibrated_stage1", "open_system.calibrated_open_stage1"),
}
#: functions that other modules import by name
CROSS_BINDINGS = (
    ("bayesian_closed.calibrate_b", "crowdcontest.open_system.calibrate_b"),
    ("numerics.bisect", "crowdcontest.bayesian_closed.bisect"),
    ("numerics.bisect", "crowdcontest.open_system.bisect"),
    ("timing.sample_arrival_sequences",
     "crowdcontest.open_system.sample_arrival_sequences"),
    ("contest.efficiency_identical", "crowdcontest.experiments.efficiency_identical"),
)


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    yield tr
    tr.uninstall()


def _namespace_values():
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "crowdcontest":
            yield from vars(module).values()


def test_every_binding_is_wrapped(tracer):
    originals = {id(fn) for fn in tracer.targets.values()}
    tracer.install()
    assert not [v for v in _namespace_values() if id(v) in originals]
    bindings = set(tracer.bindings())
    for binding in CROSS_BINDINGS:
        assert binding in bindings
    tracer.uninstall()
    from crowdcontest import bayesian_closed, open_system, timing
    assert open_system.calibrate_b is tracer.targets["bayesian_closed.calibrate_b"]
    assert bayesian_closed.calibrate_b is open_system.calibrate_b
    assert vars(timing.JoinTimeModel)["sample"] is \
        tracer.targets["timing.JoinTimeModel.sample"]


def _traced_pass(tracer, name: str, out_dir):
    _, raised = child.traced_pass(tracer, name, 0, out_dir)
    assert raised == {}
    return tracing.summarize(tracer.spans)


@pytest.mark.parametrize("name", sorted(EXPECTED_HITS))
def test_each_function_is_hit_on_its_workload(tracer, tmp_path, name):
    summary = _traced_pass(tracer, name, tmp_path)
    missing = [fn for fn in EXPECTED_HITS[name] if summary.get(fn, {}).get("calls", 0) < 1]
    assert missing == []
    tally = child._Tally(name, 0, tmp_path)
    tally.check({})
    assert tally.attempted > 0 and tally.failed == 0, tally.messages


def test_benchmark_json_lists_the_workloads():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in workloads.WORKLOADS.values()]


def test_every_layer_and_per_layer_metric_is_covered():
    hit = {fn for fns in EXPECTED_HITS.values() for fn in fns}
    assert {fn.split(".")[0] for fn in hit} == set(tracing.LAYERS)
    declared = [m["name"] for m in run.declared_metrics(trace=True)]
    for name in declared:
        fn = name.rsplit(".", 1)[0]
        if "." in fn:
            assert fn in hit or fn in tracing.LAYERS, name


def test_counts_repeat_for_a_fixed_seed(tracer, tmp_path):
    first = _traced_pass(tracer, "earliest-n", tmp_path)
    second = _traced_pass(tracer, "earliest-n", tmp_path)

    def counts(summary):
        return {(n, k): v for n, row in summary.items() for k, v in row.items()
                if k in run.COUNT_FIELDS}

    assert counts(first) == counts(second)
    metrics = run.pass_metrics(first, 6, tracing.LAYERS)     # 3 closed + 3 open
    calibrations = first["bayesian_closed.calibrated_stage1"]["calls"]
    assert metrics["solves_per_point"] * 6 == (
        first["bayesian_closed.solve_bne_earliest_n"]["calls"]
        + first["open_system.solve_bne_open_earliest_n"]["calls"])
    assert calibrations % 3 == 0 and calibrations >= 3   # main table + contour


def test_self_time_subtracts_children():
    spans = [(1, "a", 0.0, 10.0, None, 1, {}),
             (2, "b", 1.0, 4.0, 1, 1, {"draws": 5}),
             (3, "b", 5.0, 6.0, 1, 1, {"draws": 7}),
             (4, "c", 2.0, 3.0, 2, 1, {})]
    out = tracing.summarize(spans)
    assert out["a"]["self_s"] == pytest.approx(6.0)
    assert out["b"]["self_s"] == pytest.approx(3.0)
    assert out["b"]["calls"] == 2 and out["b"]["draws"] == 12
    assert out["b"]["max_s"] == pytest.approx(3.0)


def _write_tables(spec: dict, out_dir):
    for fname, table in spec["tables"].items():
        lines = ["# budget=1.0", ",".join(table["header"])]
        lines += [",".join(repr(x) for x in row) for row in table["rows"]]
        (out_dir / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _closed_ref() -> dict:
    """The reference of seed 0, cut to its closed earliest-n spec."""
    ref = checks.load_ref("earliest-n", 0)
    assert ref["specs"][0]["name"] == "closed-earliestn-step"
    return {**ref, "specs": ref["specs"][:1]}


def test_check_counts_each_bad_point_once(tmp_path):
    ref = _closed_ref()
    spec = ref["specs"][0]
    main, effort, contour = spec["files"]
    _write_tables(spec, tmp_path)
    assert checks.check_outputs(ref, tmp_path).failed == 0

    def edited(edit):
        tables = {f: {"header": t["header"], "rows": [list(r) for r in t["rows"]]}
                  for f, t in spec["tables"].items()}
        edit(tables)
        _write_tables({"tables": tables}, tmp_path)
        return checks.check_outputs(ref, tmp_path)

    def ulp_drift(t):
        for row in t[contour]["rows"]:
            row[3] *= 1 + 1e-9

    assert edited(ulp_drift).failed == 0

    def three_points(t):
        t[effort]["rows"][1][3] = 10.0          # n=2: effort above the cap
        t[main]["rows"][2][5] = 1.5             # n=19: payment off the budget
        t[contour]["rows"][1][3] *= 1 + 1e-5    # n=10: drift beyond TOL

    res = edited(three_points)
    assert (res.attempted, res.failed) == (3, 3), res.messages
    assert any("cap" in m for m in res.messages)
    assert any("misses budget" in m for m in res.messages)

    _write_tables(spec, tmp_path)
    (tmp_path / effort).unlink()
    assert checks.check_outputs(ref, tmp_path).failed == 3


def test_a_spec_that_raises_fails_every_point(tmp_path, monkeypatch):
    from crowdcontest import experiments
    from crowdcontest.errors import SolverError
    ref = _closed_ref()
    _write_tables(ref["specs"][0], tmp_path)     # tables left by an earlier pass
    assert checks.check_outputs(ref, tmp_path).failed == 0
    assert checks.check_outputs(ref, tmp_path, {"closed-earliestn-step": "x"}).failed == 3

    def raise_before_writing(spec, out_dir):
        raise SolverError("no convergence")

    monkeypatch.setattr(experiments, "run_spec", raise_before_writing)
    _, raised = child.run_pass(child.load_specs("earliest-n", 0), tmp_path)
    assert raised == {"closed-earliestn-step": "no convergence",
                      "open-earliestn-step": "no convergence"}
    assert not tmp_path.exists()
    tally = child._Tally("earliest-n", 0, tmp_path)
    tally.check(raised)
    assert (tally.attempted, tally.failed) == (6, 6)
    assert any("SolverError" in m for m in tally.messages)


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail([float(i) for i in range(1, 101)])
    assert (pct, value) == (90, 90.0)
    assert sum(x > value for x in range(1, 101)) == 10
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert pct == 75 and sum(x > value for x in range(1, 41)) == 10


def test_spec_overrides_reach_the_spec():
    from crowdcontest.experiments import PRESETS, parse_spec
    for name, wl in workloads.WORKLOADS.items():
        for (text, _), part in zip(workloads.spec_texts(wl, 21, PRESETS), wl.parts):
            spec = parse_spec(text)
            assert spec.seed == 21 % workloads.SEED_BANK
            for key, value in part.overrides:
                if key != "sweep":
                    assert getattr(spec, key) == int(value)
    with pytest.raises(ValueError):
        workloads._override("a = 1\n", "b", "2")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed-form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaled_pass_divides_each_part_by_the_kernel_around_it():
    # the second pass ran at half speed: parts and kernel took twice as long
    parts = [[1.0, 3.0], [2.0, 6.0], [1.0, 3.0]]
    refs = [[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
    assert run.scaled_pass(parts, refs) == pytest.approx(8.0 * run.REF_S)
    # a part's kernel time is the mean of the kernel before and after it
    assert run.scaled_pass([[3.0]], [[1.0, 2.0]]) == pytest.approx(2.0 * run.REF_S)
