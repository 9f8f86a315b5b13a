"""Scaling benchmark for the incremental legitimacy engine (ISSUE 6).

The legitimacy probe is the hot loop of every experiment: it runs every
``convergence_interval`` and re-derives Definition 1 from the ground
truth.  With dependency-tracked invalidation the steady-state probe walks
*zero* forwarding paths — only flows whose visited set was actually
perturbed since the last probe are re-walked.  This bench measures that
on growing fabrics.  (The perf record proper is ``bench/``, whose
``core.legitimacy.route_walks`` / ``route_hit_ratio`` counters track the
same quantities per workload.)

Metrics per topology:

- ``probe_walks``  — forwarding walks performed *inside* legitimacy
  probes (cache misses during ``is_legitimate``); the number the
  incremental engine drives to ~0.
- ``total_walks`` / ``cache_hits`` — all walks vs. memo hits over the
  whole bootstrap (includes the unavoidable first walk per flow and
  re-walks of genuinely changed flows).
- ``bootstrap_wall_s`` — host wall-clock for the full bootstrap.

Results land in ``benchmarks/out/probe-scaling.json`` (the committed
snapshot is ``benchmarks/results/probe-scaling.json``).
``REPRO_PROBE_SIZES`` (comma-separated specs) restricts the matrix — CI's
perf-smoke job runs ``fattree:4`` only.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict

from conftest import emit_json
from repro.net.topologies import attach_controllers
from repro.scenarios.generators import parse_topology
from repro.sim.network_sim import NetworkSimulation, SimulationConfig

#: Fabrics ordered by size.
ALL_SPECS = ["fattree:4", "fattree:8", "jellyfish:20", "jellyfish:200"]


def _selected_specs():
    env = os.environ.get("REPRO_PROBE_SIZES")
    if not env:
        return ALL_SPECS
    wanted = [s.strip() for s in env.split(",") if s.strip()]
    return [s for s in ALL_SPECS if s in wanted] or wanted


def _measure(spec: str, timeout: float = 600.0) -> Dict[str, float]:
    topology = parse_topology(spec, seed=0)
    attach_controllers(topology, 3, seed=0)
    sim = NetworkSimulation(topology, SimulationConfig(seed=0, theta=10))
    cache = sim.route_cache
    assert cache is not None

    probe_walks = 0
    inner = sim.is_legitimate

    def counting_probe(full: bool = False) -> bool:
        nonlocal probe_walks
        before = cache.misses
        result = inner(full=full)
        probe_walks += cache.misses - before
        return result

    sim.is_legitimate = counting_probe  # type: ignore[method-assign]

    start = time.perf_counter()
    converged = sim.run_until_legitimate(timeout=timeout)
    wall = time.perf_counter() - start
    assert converged is not None, f"{spec} bootstrap timed out ({timeout}s)"
    return {
        "converged_at": converged,
        "bootstrap_wall_s": round(wall, 3),
        "probe_walks": probe_walks,
        "total_walks": cache.misses,
        "cache_hits": cache.hits,
        "invalidations": cache.invalidations,
        "switches": len(topology.switches),
        "nodes": len(topology.nodes),
    }


def test_probe_scaling_incremental():
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for spec in _selected_specs():
        incr = _measure(spec)
        # Same shape as the committed snapshot, so `cp` refreshes it.
        results[spec] = {"incremental": incr}
        # Steady state: once legitimate, nothing is dirty between probes —
        # the convergence probe itself must walk (almost) nothing.
        assert incr["probe_walks"] <= 10, (spec, incr["probe_walks"])
        # The first walk of each flow is unavoidable; the memo must be
        # doing real work beyond that.
        assert incr["cache_hits"] > incr["total_walks"]

    emit_json(
        "probe-scaling",
        {
            "bench": "probe-scaling",
            "seed": 0,
            "controllers": 3,
            "theta": 10,
            "specs": results,
        },
    )


def test_fattree16_bootstrap_completes():
    """The scale unlock: fattree:16 (320 switches) bootstraps to
    legitimacy in seconds, its steady-state probes walking ~nothing."""
    env = os.environ.get("REPRO_PROBE_SIZES")
    if env and "fattree:16" not in env:
        import pytest

        pytest.skip("REPRO_PROBE_SIZES excludes fattree:16")
    stats = _measure("fattree:16", timeout=600.0)
    # Near-zero: the converging probe may re-walk the handful of flows
    # whose rules landed just before it fired, nothing else.
    assert stats["probe_walks"] <= 10
    print(
        f"\nfattree:16 bootstrap: {stats['bootstrap_wall_s']}s wall, "
        f"{stats['total_walks']} walks, {stats['cache_hits']} hits",
        file=sys.__stdout__,
        flush=True,
    )
