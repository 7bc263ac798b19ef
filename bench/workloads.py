"""Benchmark workloads: spec texts built from the shipped presets.

Each workload is a list of parts ``(preset, overrides, repeat)``. The
benchmark sizes the sweep subset and the Monte Carlo sizes through
``overrides``; every other line of the preset (join model, weights, N, e0
ratio, budget) is used as shipped. The sizes keep the preset's split of
time between the Stage-II solve and Stage-I Monte Carlo (``README.md``):
the closed part keeps the preset grid and runs a fifth of both sample
counts; the open part halves the grid and ``mc_samples`` together, which
keeps the samples per grid cell that set its outer-iteration count, and
runs a quarter of the Stage-I samples. ``repeat`` runs a cheap part several
times per pass so that its share of the pass is measurable.

The workload seed selects the spec ``seed``: seed ``s`` runs spec seed
``s % SEED_BANK``, for which a reference table is committed under ``refs/``.

This module imports nothing from the package, so the set-up measurement
can start its clock before ``import crowdcontest``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: number of distinct spec seeds with committed reference tables
SEED_BANK = 16


@dataclass(frozen=True)
class Part:
    preset: str
    overrides: tuple[tuple[str, str], ...] = ()
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]
    #: False when no output depends on the spec seed (one reference table)
    seeded: bool = True


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "earliest-n",
        "Stage-II grid kernel, Stage-I Monte Carlo, calibration and contour "
        "re-solves on closed (N=20) and open (29-opponent Poisson) sweeps of n",
        (Part("closed-earliestn-step", (("sweep", "2,10,19"), ("mc_samples", "800"),
                                        ("stage1_samples", "8000"))),
         Part("open-earliestn-step", (("sweep", "2,10,19"), ("grid_size", "24"),
                                      ("mc_samples", "2000"),
                                      ("stage1_samples", "10000"))))),
    Workload(
        "closed-form",
        "scalar bisection and closed forms only: termination, complete-info "
        "and CSF presets, no grid kernel",
        (Part("closed-termination-step"),
         Part("open-termination-step"),
         Part("complete-info-efficiency", repeat=10),
         Part("csf-gain-surface", repeat=10)),
        seeded=False),
)}


def spec_seed(seed: int) -> int:
    return seed % SEED_BANK


def _override(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)} *=.*$", re.MULTILINE)
    new, count = pattern.subn(f"{key} = {value}", text)
    if count != 1:
        raise ValueError(f"preset has {count} '{key}' lines, expected 1")
    return new


def spec_texts(workload: Workload, seed: int,
               presets: dict[str, str]) -> list[tuple[str, int]]:
    """``(spec text, repeat)`` per part, for the package's ``PRESETS``."""
    out = []
    for part in workload.parts:
        text = _override(presets[part.preset], "seed", str(spec_seed(seed)))
        for key, value in part.overrides:
            text = _override(text, key, value)
        out.append((text, part.repeat))
    return out
