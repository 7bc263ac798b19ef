"""One measuring process of the benchmark; ``run.py`` starts it with BLAS and
OpenMP pinned to one thread and ``src/`` on ``PYTHONPATH``.

Modes (each prints one JSON object on its last stdout line):

``setup``   seconds from before ``import crowdcontest`` until the workload's
            specs are parsed, i.e. up to the first solve.
``timed``   one warm-up pass (its peak RSS is the process's), then passes
            for ``--seconds`` (no pass starts that would end past it), with
            ``SETUP_SAMPLES`` fresh ``setup`` processes run between passes,
            one every ``--seconds / SETUP_SAMPLES``. ``reference_kernel``
            runs before and after each part of a pass and each set-up
            process. Every pass is checked.
``traced``  one warm-up pass, then alternating untraced and traced passes
            for ``--seconds`` (at least two of each); returns the per-pass
            span summaries.

Every pass runs at one worker (``CROWDCONTEST_THREADS=1``).

A pass runs ``experiments.run_spec`` on every spec of the workload (a part
``repeat`` times) and writes the CSV tables under ``out/<workload>/``, which
it empties first.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
#: set-up samples taken in one timed run
SETUP_SAMPLES = 12


def load_specs(name: str, seed: int):
    """``(spec, repeat)`` per part of the workload."""
    from crowdcontest import experiments
    texts = workloads.spec_texts(workloads.WORKLOADS[name], seed, experiments.PRESETS)
    return [(experiments.parse_spec(text), repeat) for text, repeat in texts]


def reference_kernel() -> float:
    """Seconds of a fixed mix of array and interpreter work, about half of
    each, that uses nothing of the package: a gauge of the machine's speed
    at that moment."""
    import numpy as np
    start = time.perf_counter()
    x = np.random.default_rng(12345).random((400, 48))
    acc = 0.0
    for _ in range(30):
        y = np.sort(x, axis=0)
        acc += float(np.cumsum(y, axis=1)[-1, -1])
        x = np.abs(np.sin(x * 1.0001 + y))
    lo, hi = 0.0, 2.0
    for _ in range(80000):
        mid = 0.5 * (lo + hi)
        if math.exp(-mid) * mid < 0.3:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            lo, hi = 0.0, 2.0
    return time.perf_counter() - start


def run_pass(specs, out_dir: Path, gauge=None) -> tuple[list[float], dict[str, str]]:
    """Seconds spent in ``run_spec`` on each part of the workload (summed over
    its repeats), and the ``SolverError`` message of every spec that raised
    one. ``out_dir`` is emptied first, so that no table of an earlier pass
    can stand in for one this pass did not write. ``gauge``, if given, is
    called before each part and after the last one."""
    from crowdcontest.errors import SolverError
    from crowdcontest.experiments import run_spec
    shutil.rmtree(out_dir, ignore_errors=True)
    raised = {}
    times = []
    for spec, repeat in specs:
        if gauge is not None:
            gauge()
        elapsed = 0.0
        for _ in range(repeat):
            start = time.perf_counter()
            try:
                run_spec(spec, out_dir)
            except SolverError as exc:
                raised[spec.name] = str(exc)
            elapsed += time.perf_counter() - start
        times.append(elapsed)
    if gauge is not None:
        gauge()
    return times, raised


class _Tally:
    """Check results summed over the checked passes."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        seeded = workloads.WORKLOADS[name].seeded
        self.ref = checks.load_ref(name, workloads.spec_seed(seed) if seeded else None)
        self.out_dir = out_dir
        self.attempted = self.failed = self.bne_points = 0
        self.messages: list[str] = []

    def check(self, raised: dict[str, str]) -> None:
        res = checks.check_outputs(self.ref, self.out_dir, raised)
        self.attempted += res.attempted
        self.failed += res.failed
        self.bne_points = res.bne_points
        for msg in res.messages:
            if len(self.messages) < 20:
                self.messages.append(msg)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "bne_points": self.bne_points, "messages": self.messages}


def _env() -> dict:
    import numpy
    import crowdcontest
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "package": str(Path(crowdcontest.__file__).resolve().parent)}


def mode_setup(args) -> dict:
    start = time.perf_counter()
    load_specs(args.workload, args.seed)
    return {"setup_s": time.perf_counter() - start}


def setup_sample(args) -> list[float]:
    """``setup_s`` of a fresh ``setup`` process, between the seconds of
    ``reference_kernel`` just before and just after it."""
    before = reference_kernel()
    proc = subprocess.run([sys.executable, __file__, "setup", "--workload",
                           args.workload, "--seed", str(args.seed)],
                          capture_output=True, text=True, timeout=60, check=True)
    return [before, json.loads(proc.stdout.splitlines()[-1])["setup_s"],
            reference_kernel()]


def mode_timed(args) -> dict:
    specs = load_specs(args.workload, args.seed)
    out_dir = OUT / args.workload
    tally = _Tally(args.workload, args.seed, out_dir)
    _, raised = run_pass(specs, out_dir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.check(raised)
    parts, setups, refs = [], [], []
    start = time.perf_counter()
    while not parts or time.perf_counter() - start + sum(parts[-1]) <= args.seconds:
        while (len(setups) < SETUP_SAMPLES and time.perf_counter() - start
               >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(setup_sample(args))
        refs.append([])
        times, raised = run_pass(specs, out_dir,
                                 lambda: refs[-1].append(reference_kernel()))
        parts.append(times)
        tally.check(raised)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    return {"parts": parts, "ref": refs, "setup": setups, "peak_rss_mb": rss_mb,
            **tally.as_dict(), "env": _env()}


def traced_pass(tracer, name: str, seed: int, out_dir: Path):
    """A pass with ``tracer`` installed; the specs are parsed again under
    tracing so that ``parse_spec`` is recorded, outside the pass time."""
    tracer.clear()
    tracer.install()
    try:
        specs = load_specs(name, seed)
        times, raised = run_pass(specs, out_dir)
    finally:
        tracer.uninstall()
    return sum(times), raised


def mode_traced(args) -> dict:
    import tracer as tracing
    specs = load_specs(args.workload, args.seed)
    out_dir = OUT / args.workload
    tally = _Tally(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer()
    _, raised = run_pass(specs, out_dir)
    tally.check(raised)
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while (len(traced) < 2 or time.perf_counter() - start + untraced[-1] + traced[-1]
           <= args.seconds):
        times, raised = run_pass(specs, out_dir)
        untraced.append(sum(times))
        tally.check(raised)
        elapsed, raised = traced_pass(tracer, args.workload, args.seed, out_dir)
        traced.append(elapsed)
        summaries.append(tracing.summarize(tracer.spans))
        tally.check(raised)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
    return {"untraced": untraced, "traced": traced, "summaries": summaries,
            "targets": sorted(tracer.targets), **tally.as_dict(), "env": _env()}


MODES = {"setup": mode_setup, "timed": mode_timed, "traced": mode_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
