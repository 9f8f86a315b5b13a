"""Telemetry overhead benchmark (ISSUE 9).

The telemetry subsystem's contract has two halves:

- **disabled** — no active handle: every instrumented site is one
  ``is not None`` check, so a run must stay within noise of the
  pre-telemetry code (<5% wall on a fattree:8 bootstrap) and produce
  bit-identical measurements;
- **enabled** — full tracing (spans, flight ring, kind counts, pulled
  counters): <25% wall overhead over the disabled run.

Both are measured on repeated fattree:8 bootstraps through the facade
(the path every figure uses), best-of-N to shed scheduler noise.
Simulation *semantics* are asserted exactly: identical convergence
instant and metrics snapshot with and without the handle.

Results land in ``benchmarks/results/obs-overhead.json`` (the committed
BENCH record).  ``REPRO_OBS_SPEC`` overrides the topology —
CI's obs-smoke job runs ``fattree:4``.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from conftest import emit_json
from repro.api import Bootstrap, RunPlan
from repro.obs import Telemetry, use_telemetry

#: Overhead bound asserted by CI: the acceptance criterion (25%) plus
#: slack for shared-runner scheduling noise on a sub-second workload;
#: the committed BENCH record tracks the real ratio.
ENABLED_BUDGET = 1.40
REPEATS = 5


def _spec() -> str:
    return os.environ.get("REPRO_OBS_SPEC", "fattree:8")


def _plan(spec: str):
    return (
        RunPlan(spec, controllers=3, seed=0)
        .configure(theta=10)
        .then(Bootstrap(timeout=600.0))
    )


def _timed(spec: str, telemetry: bool):
    start = time.perf_counter()
    if telemetry:
        with use_telemetry(Telemetry()):
            run = _plan(spec).run()
    else:
        run = _plan(spec).run()
    return time.perf_counter() - start, run


def _paired_best_of(spec: str, repeats: int):
    """Best-of-N for the disabled and enabled runs, *interleaved* — the
    two arms alternate within each repeat, so slow drift (CPU frequency,
    background load) biases neither side of the ratio."""
    best = {False: float("inf"), True: float("inf")}
    result = {False: None, True: None}
    for _ in range(repeats):
        for telemetry in (False, True):
            wall, run = _timed(spec, telemetry)
            best[telemetry] = min(best[telemetry], wall)
            result[telemetry] = run
    for telemetry in (False, True):
        run = result[telemetry]
        assert run is not None and run.ok, f"{spec} bootstrap timed out"
    return tuple(
        {
            "wall_s": round(best[telemetry], 4),
            "converged_at": result[telemetry].bootstrap_time,
        }
        for telemetry in (False, True)
    )


def test_obs_overhead_disabled_and_enabled():
    spec = _spec()

    # Warm every lazy import/cache outside the timed region.
    _plan(spec).run()

    off, on = _paired_best_of(spec, REPEATS)

    # Semantics first: telemetry must not move the simulation at all.
    plain = _plan(spec).run()
    with use_telemetry(Telemetry()):
        traced = _plan(spec).run()
    assert traced.bootstrap_time == plain.bootstrap_time
    assert traced.metrics == plain.metrics

    ratio = on["wall_s"] / off["wall_s"]
    payload = {
        "bench": "obs-overhead",
        "spec": spec,
        "seed": 0,
        "controllers": 3,
        "theta": 10,
        "repeats": REPEATS,
        "disabled": off,
        "enabled": on,
        "enabled_over_disabled": round(ratio, 3),
    }
    emit_json("obs-overhead", payload)

    assert ratio < ENABLED_BUDGET, (
        f"full tracing costs {ratio:.2f}x over disabled "
        f"(budget {ENABLED_BUDGET}x) on {spec}"
    )


def test_disabled_path_does_zero_instrumentation_work():
    """The <5% disabled-wall criterion cannot be measured against the
    pre-telemetry build from inside this tree (and sub-second workloads
    drown in scheduler noise anyway), so assert the structural property
    it follows from: with no active handle, a run allocates no trace
    ring, no kind tally, and no observer/provider — every instrumented
    site collapses to one ``is not None`` check."""
    session = _plan(_spec()).session()
    sim = session.sim
    assert sim._telemetry is None
    assert sim.sim._trace is None
    assert sim.sim._kind_counts is None
    assert sim.sim._causal is None  # no happens-before recording either
    assert sim.metrics._observers == []
    result = session.run()
    assert result.ok
    assert result.timings == []
    assert "timings" not in result.to_dict()
