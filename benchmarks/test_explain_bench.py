"""Forensics cost benchmark (ISSUE 10).

The causal layer's enabled-path promise: recording the happens-before
DAG rides inside the existing traced-overhead budget (asserted by
``test_obs_overhead``), and the *analysis* — building the
:class:`~repro.obs.causality.ProvenanceDAG` from a TRACE payload and
running :func:`~repro.obs.explain.explain_payload` over it — stays
interactive (well under a second) even on a 15k-event jellyfish:200
trace, because ``repro explain`` runs in the inner loop of property
debugging.

Results land in the committed top-level ``BENCH_explain.json`` —
the start of the forensics perf trajectory.  ``REPRO_EXPLAIN_SPECS``
(comma-separated) overrides the topology list; CI's smoke runs
``fattree:4``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from conftest import emit_json
from repro.api import Bootstrap, RunPlan
from repro.obs import Telemetry, use_telemetry
from repro.obs.causality import ProvenanceDAG
from repro.obs.explain import explain_payload
from repro.obs.export import trace_payload


#: Interactive-analysis budget per spec (generous: shared-runner noise).
ANALYSIS_BUDGET_S = 2.0
REPEATS = 3


def _specs() -> list:
    env = os.environ.get("REPRO_EXPLAIN_SPECS")
    if env:
        return [s.strip() for s in env.split(",") if s.strip()]
    return ["fattree:8", "jellyfish:200"]


def _record_trace(spec: str) -> Dict[str, Any]:
    started = time.perf_counter()
    with use_telemetry(Telemetry()) as telemetry:
        result = (
            RunPlan(spec, controllers=3, seed=0)
            .configure(theta=10)
            .then(Bootstrap(timeout=600.0))
            .run()
        )
    assert result.ok, f"{spec} bootstrap timed out"
    return {
        "payload": trace_payload(telemetry),
        "trace_wall_s": round(time.perf_counter() - started, 4),
    }


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return round(best, 6)


def test_explain_analysis_cost():
    by_spec: Dict[str, Any] = {}
    for spec in _specs():
        recorded = _record_trace(spec)
        payload = recorded["payload"]
        dag_build_s = _best_of(
            REPEATS, lambda p=payload: ProvenanceDAG.from_payload(p)
        )
        explain_s = _best_of(REPEATS, lambda p=payload: explain_payload(p))
        dag = ProvenanceDAG.from_payload(payload)
        by_spec[spec] = {
            "n_causal_events": len(dag),
            "trace_wall_s": recorded["trace_wall_s"],
            "dag_build_s": dag_build_s,
            "explain_s": explain_s,
        }
        assert explain_payload(payload).ok  # the bootstrap converged
        assert dag_build_s < ANALYSIS_BUDGET_S and explain_s < ANALYSIS_BUDGET_S, (
            f"forensics over {spec} ({len(dag)} events) exceeds the "
            f"{ANALYSIS_BUDGET_S}s interactive budget"
        )
    doc = {
        "bench": "explain",
        "seed": 0,
        "controllers": 3,
        "theta": 10,
        "repeats": REPEATS,
        "specs": by_spec,
    }
    emit_json("explain", doc)
