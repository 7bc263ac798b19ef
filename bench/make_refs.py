"""Regenerate the reference tables under ``bench/refs/``.

    PYTHONPATH=src python3 bench/make_refs.py [workload ...]

Runs every spec of each workload once, at one worker, for every spec seed of
the seed bank (once for a workload whose outputs do not depend on the seed),
and stores each output table's header and rows. Run it only when a change is
meant to move the numbers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import workloads
from child import OUT, load_specs


def build_ref(name: str, spec_seed: int | None) -> dict:
    from crowdcontest.experiments import run_spec
    out_dir = OUT / "refs-build" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    specs = []
    for spec, _ in load_specs(name, spec_seed or 0):
        paths = run_spec(spec, out_dir)
        tables = {}
        for path in paths:
            _, header, rows = checks.read_table(path)
            tables[path.name] = {"header": header, "rows": rows}
        specs.append({"name": spec.name, "files": [p.name for p in paths],
                      "tables": tables})
    ref = {"workload": name, "spec_seed": spec_seed, "tol": checks.TOL,
           "specs": specs}
    res = checks.check_outputs(ref, out_dir)
    if res.failed:
        raise SystemExit(f"{name} seed {spec_seed}: {res.messages}")
    for spec in specs:
        main = spec["tables"][spec["files"][0]]
        if "payment_stderr" in main["header"]:
            col = main["header"].index("payment_stderr")
            stderrs = [row[col] for row in main["rows"] if row[col] > 0]
            if stderrs and min(stderrs) <= 10 * checks.TOL:
                raise SystemExit(f"{name}: a stderr of {min(stderrs)} is not "
                                 f"far above the check tolerance {checks.TOL}")
    return ref


def _dump(ref: dict) -> str:
    """JSON with one table row per line, so that a rebuilt reference diffs
    row by row."""
    def rows(table):
        return "[\n" + ",\n".join(json.dumps(r) for r in table["rows"]) + "]"

    specs = []
    for spec in ref["specs"]:
        tables = ",\n".join(
            f'{json.dumps(f)}: {{"header": {json.dumps(t["header"])},\n"rows": {rows(t)}}}'
            for f, t in spec["tables"].items())
        specs.append(f'{{"name": {json.dumps(spec["name"])}, '
                     f'"files": {json.dumps(spec["files"])},\n"tables": {{\n{tables}}}}}')
    head = {k: ref[k] for k in ("workload", "spec_seed", "tol")}
    return json.dumps(head)[:-1] + ',\n"specs": [\n' + ",\n".join(specs) + "]}\n"


def main(names) -> None:
    for name in names or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        for spec_seed in range(workloads.SEED_BANK) if wl.seeded else [None]:
            ref = build_ref(name, spec_seed)
            path = checks.ref_path(name, spec_seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            text = _dump(ref)
            if json.loads(text) != ref:
                raise SystemExit("reference round trip failed")
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
