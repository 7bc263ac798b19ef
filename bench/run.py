"""Benchmark of ``crowdcontest run``: budget-calibrated sweeps through
``experiments.run_spec``, with every output row checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are defined in ``workloads.py``
and explained in ``README.md``. All measuring happens in child processes
(``child.py``) with BLAS and OpenMP pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (seconds of one
pass at one worker), ``setup_s`` (median over fresh processes of import
plus spec parsing) and ``peak_rss_mb`` (peak RSS of a fresh process after
one pass). Both times are scaled to a fixed machine speed (``scaled``):
the machine the benchmark was built on is shared, and its speed drifts by
up to 2x over minutes.
``--trace 1`` prints the per-layer metrics of a traced pass.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. The lines before it give tail percentiles, sample
counts, the failed fraction and the environment; the same record is written
to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: typical seconds of ``child.reference_kernel`` on the machine the benchmark
#: was built on (a shared 2-core Xeon VM); it only sets the scale of the
#: scaled times
REF_S = 0.03
#: seconds an invocation may take beyond twice ``--seconds``: the measuring
#: child's start and warm-up pass
MARGIN_S = 120.0

GRID_SOLVERS = ("bayesian_closed.solve_bne_earliest_n",
                "bayesian_closed.solve_bne_linear",
                "open_system.solve_bne_open_earliest_n")
SOLVERS = GRID_SOLVERS + ("bayesian_closed.solve_bne_termination",
                          "open_system.solve_bne_open_termination")
STAGE1 = ("bayesian_closed.stage1_metrics_mc",
          "bayesian_closed.stage1_metrics_termination",
          "open_system.stage1_open_earliest_n",
          "open_system.stage1_open_termination")
#: per-pass metrics that must repeat exactly for a fixed seed
COUNT_FIELDS = ("calls", "evals", "draws", "bytes")
DERIVED_COUNTS = ("solves_per_point", "stage1_per_point",
                  "calib_evals_per_calibration")
#: per-pass samples kept in the results file
SAMPLE_KEYS = ("parts", "ref", "setup", "untraced", "traced")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CROWDCONTEST_THREADS"] = "1"
    return env


def run_child(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} child")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed ({proc.returncode}):\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    package = Path(result["env"]["package"])
    if package != ROOT / "src" / "crowdcontest":
        raise BenchError(f"child imported the package from {package}")
    return result


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest
    rank), or None below 20 samples, where that would not exceed the median."""
    n = len(samples)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return pct, sorted(samples)[rank - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    text = f"{name}: median {statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    if t is not None:
        text += f", p{t[0]} {t[1]:.6g} {unit}"
    return text + f" (n={len(samples)})"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the machine speed where the reference kernel takes
    ``REF_S``, given the kernel's seconds just before and just after: a
    stretch in which the shared machine runs slow stretches all three."""
    return REF_S * seconds / (0.5 * (before + after))


def scaled_pass(parts: list[list[float]], refs: list[list[float]]) -> float:
    """Scaled seconds of one pass: per part, the median over the passes of
    its scaled time, summed over the parts. ``refs[i]`` holds the kernel
    seconds around the parts of pass ``i``, one more than it has parts."""
    per_part = zip(*[[scaled(t, r[j], r[j + 1]) for j, t in enumerate(p)]
                     for p, r in zip(parts, refs)])
    return sum(statistics.median(col) for col in per_part)


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    timed = run_child("timed", args, deadline)
    walls = [sum(p) for p in timed["parts"]]
    setups = [s for _, s, _ in timed["setup"]]
    values = {"wall_s": scaled_pass(timed["parts"], timed["ref"]),
              "setup_s": statistics.median(scaled(s, before, after)
                                           for before, s, after in timed["setup"]),
              "peak_rss_mb": timed["peak_rss_mb"]}
    kernel = [r for rs in timed["ref"] for r in rs]
    lines = [f"wall_s: {values['wall_s']:.6g} s, scaled (n={len(walls)})",
             f"setup_s: {values['setup_s']:.6g} s, scaled (n={len(setups)})",
             describe("unscaled pass", walls, "s"),
             describe("unscaled set-up", setups, "s"),
             describe("reference kernel", kernel, "s"),
             f"peak_rss_mb: {timed['peak_rss_mb']:.6g} MB (n=1)"]
    return values, timed, lines


def pass_metrics(summary: dict, bne_points: int, layers) -> dict[str, float]:
    """Flat per-layer metrics of one traced pass."""
    flat: dict[str, float] = {}
    layer_self = dict.fromkeys(layers, 0.0)
    for name, row in summary.items():
        for key, value in row.items():
            flat[f"{name}.{key}"] = value
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    for layer, value in layer_self.items():
        flat[f"{layer}.self_s"] = value

    def total(names, key):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    calib = summary.get("bayesian_closed.calibrate_b", {})
    flat["solves_per_point"] = ratio(total(SOLVERS, "calls"), bne_points)
    flat["stage1_per_point"] = ratio(total(STAGE1, "calls"), bne_points)
    flat["calib_evals_per_calibration"] = ratio(calib.get("evals", 0),
                                                calib.get("calls", 0))
    flat["stage2_s_per_solve"] = ratio(total(GRID_SOLVERS, "self_s"),
                                       total(GRID_SOLVERS, "calls"))
    return flat


def _is_count(name: str) -> bool:
    return name in DERIVED_COUNTS or name.rsplit(".", 1)[-1] in COUNT_FIELDS


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    traced = run_child("traced", args, deadline)
    layers = {name.split(".", 1)[0] for name in traced["targets"]}
    passes = [pass_metrics(s, traced["bne_points"], layers)
              for s in traced["summaries"]]
    counts = {k: v for k, v in passes[0].items() if _is_count(k)}
    for i, other in enumerate(passes[1:], 2):
        theirs = {k: v for k, v in other.items() if _is_count(k)}
        if theirs != counts:
            diff = sorted(k for k in counts.keys() | theirs.keys()
                          if counts.get(k) != theirs.get(k))
            raise BenchError(f"counts differ between traced passes 1 and {i}: {diff}")
    check_counts_repeat(args, counts)

    values = dict(counts)
    for key in passes[0].keys() - counts.keys():
        values[key] = statistics.median(p.get(key, 0.0) for p in passes)
    values["trace.wall_s"] = statistics.median(traced["traced"])
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        traced["untraced"])
    lines = [describe("trace.wall_s", traced["traced"], "s"),
             describe("untraced wall_s", traced["untraced"], "s"),
             f"trace.overhead_s: {values['trace.overhead_s']:.6g} s "
             f"(median traced minus median untraced pass)"]
    for name in sorted(traced["summaries"][-1]):
        row = traced["summaries"][-1][name]
        lines.append(f"  {name}: calls={row['calls']} s={row['s']:.6g} "
                     f"self_s={row['self_s']:.6g} max_s={row['max_s']:.6g}"
                     + "".join(f" {k}={row[k]}" for k in ("evals", "draws", "bytes")
                               if k in row))
    return values, traced, lines


def check_counts_repeat(args, counts: dict) -> None:
    """Counts of a fixed seed must match every earlier run of the same
    sources in this checkout."""
    from workloads import spec_seed
    path = OUT / "counts" / f"{args.workload}-seed{spec_seed(args.seed)}-{source_hash()}.json"
    if path.is_file():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        if earlier != counts:
            diff = sorted(k for k in earlier.keys() | counts.keys()
                          if earlier.get(k) != counts.get(k))
            raise BenchError(f"counts differ from an earlier run of the same "
                             f"sources ({path.name}): {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crowdcontest" / "__init__.py").is_file():
        print(f"bench: no package sources under {ROOT / 'src'}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, spec_seed
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + 2 * args.seconds + MARGIN_S
    try:
        declared = declared_metrics(bool(args.trace))
        if args.trace:
            values, record, lines = per_layer(args, deadline)
        else:
            values, record, lines = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # a traced function that was not called reports 0; any other name is a typo
    targets = set(record.get("targets", ()))
    missing = [m["name"] for m in declared if m["name"] not in values
               and m["name"].rsplit(".", 1)[0] not in targets]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    attempted, failed = record["attempted"], record["failed"]
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "commit": git_commit(), **record.get("env", {}),
           **{name: "1" for name in PINNED_THREADS}}

    print(f"bench: workload={args.workload} seed={args.seed} "
          f"spec_seed={spec_seed(args.seed)} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"failed_frac: {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} points)")
    for msg in record["messages"]:
        print(f"check: {msg}")

    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "all_metrics": values,
                    "samples": {k: record[k] for k in SAMPLE_KEYS if k in record}},
                   indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
