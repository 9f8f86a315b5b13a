"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's Section 6
with a reduced repetition count (the paper uses 20; shapes are stable from
a handful), prints the regenerated rows, and asserts the qualitative
properties the paper reports.  ``pytest benchmarks/ --benchmark-only``
runs the whole evaluation; per-figure wall time is dominated by the
simulated bootstraps of the larger Rocketfuel networks.

Benchmarks execute through the experiment orchestration subsystem
(:mod:`repro.exp`): :func:`run_figure` resolves the figure id in the spec
registry and hands it to the parallel repetition runner.  Set
``REPRO_WORKERS=N`` to fan repetitions out over N worker processes — the
regenerated series are bit-identical to a serial run, only faster on
multi-core machines.

The regenerated rows are the actual deliverable, so :func:`emit` (rows)
and :func:`emit_json` (``BENCH`` payloads) write them both to the live
terminal (bypassing pytest's capture) and, through :func:`write_result`,
to the gitignored ``benchmarks/out/`` — running the suite never touches
a tracked file.  ``benchmarks/results/`` holds the last *committed*
snapshot; refresh it deliberately with ``cp benchmarks/out/<name>
benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from typing import Dict, List

from repro.exp.runner import run_spec
from repro.exp.spec import ExperimentResult
from repro.sim.metrics import median

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Keyword arguments consumed by the runner itself; everything else a
#: benchmark passes is forwarded to the spec's case builder.
_RUNNER_ARGS = frozenset({"reps", "networks", "workers", "base_seed"})


def run_figure(figure: str, **kwargs) -> ExperimentResult:
    """Run one registered figure/table spec through the repetition runner.

    Spec-specific knobs (``controller_counts``, ``delays``, ``kill_counts``,
    ``fail_counts``, ...) ride along as spec params; the runner resolves
    the worker count (``REPRO_WORKERS`` override) when none is passed.
    """
    params = {k: v for k, v in kwargs.items() if k not in _RUNNER_ARGS}
    runner_kwargs = {k: v for k, v in kwargs.items() if k in _RUNNER_ARGS}
    return run_spec(figure, params=params or None, **runner_kwargs)


def write_result(filename: str, text: str) -> None:
    """Persist ``text`` as ``benchmarks/out/<filename>`` — the suite's
    one artefact writer."""
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / filename).write_text(text + "\n")


def emit_text(filename: str, text: str) -> None:
    """Print ``text`` on the live terminal and persist it."""
    print(f"\n{text}", file=sys.__stdout__, flush=True)
    write_result(filename, text)


def emit(result: ExperimentResult) -> Dict[str, List[float]]:
    """Print the regenerated figure rows and persist them; returns the
    series for shape assertions."""
    slug = re.sub(r"[^a-z0-9]+", "-", result.name.lower()).strip("-")
    emit_text(f"{slug}.txt", "\n".join(result.rows()))
    return result.series


def emit_json(name: str, payload: Dict[str, object]) -> None:
    """Print one scaling benchmark's ``BENCH`` payload as a single log
    line and persist it, indented, as ``<name>.json``."""
    print(f"\nBENCH {json.dumps(payload, sort_keys=True)}", file=sys.__stdout__, flush=True)
    write_result(f"{name}.json", json.dumps(payload, indent=2, sort_keys=True))


def med(values: List[float]) -> float:
    assert values, "experiment produced no data"
    return median(values)
