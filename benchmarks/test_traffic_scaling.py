"""Scaling benchmark for the flow-level traffic engine (ISSUE 7).

One fault-recovery campaign (``churn`` on jellyfish:200) at growing flow
counts: the two-level grouping collapses 10⁵–10⁶ flows into a few
thousand (pair, ECMP-path) groups, so the water-filling allocator and the
reroute remap cost is a function of pairs × paths, not flows.  The bench
pins the acceptance numbers:

- ``1e5`` flows complete the full campaign (simulate + inject + repair +
  metrics) well under a minute of host wall-clock;
- ``1e6`` flows re-converge after a link failure in seconds — measured
  directly as the wall time of one plan/install/reroute cycle on the
  live engine.

Results land in ``benchmarks/results/traffic-scaling.json`` (the
committed BENCH record).  ``REPRO_TRAFFIC_SIZES`` (comma-separated flow
counts) restricts the matrix — CI's traffic-smoke job runs ``100000``
only.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Optional

import pytest

np = pytest.importorskip("numpy")

from conftest import emit_json
from repro.traffic.spec import traffic_run_plan


TOPOLOGY = "jellyfish:200"
ALL_SIZES = [100_000, 1_000_000]


def _selected_sizes():
    env = os.environ.get("REPRO_TRAFFIC_SIZES")
    if not env:
        return ALL_SIZES
    wanted = [int(s.strip()) for s in env.split(",") if s.strip()]
    return [s for s in ALL_SIZES if s in wanted] or wanted


def _measure(flows: int) -> Dict[str, object]:
    start = time.perf_counter()
    result = traffic_run_plan(TOPOLOGY, seed=0, flows=flows, pairs=256,
                              campaign="churn", duration=12.0).run()
    wall = time.perf_counter() - start
    assert result.ok, f"{flows}-flow campaign failed"
    block = result.traffic
    assert block is not None
    return {
        "campaign_wall_s": round(wall, 3),
        "flows": block["flows"],
        "completed": block["completed"],
        "goodput_mbps": round(block["goodput_mbps"], 1),
        "goodput_churn_mbps": round(block["goodput_churn_mbps"], 1),
        "n_faults": block["n_faults"],
        "disrupted_per_fault": block["disrupted_per_fault"],
        "fct_p99_s": block["fct_p99_s"],
        "rules_installed": block.get("rules_installed"),
    }


def _measure_reconvergence(flows: int) -> Dict[str, float]:
    """Wall time of one link-failure reroute at scale: replan + reinstall
    the tenant rules against the failed fabric, then remap every flow to
    its surviving (or fresh) ECMP path."""
    from repro.scenarios.generators import parse_topology
    from repro.sim.faults import random_link
    from repro.sim.network_sim import NetworkSimulation, SimulationConfig
    from repro.traffic.engine import FluidTrafficEngine
    from repro.traffic.routes import TenantFlows
    from repro.traffic.workload import WorkloadSpec

    import random

    topology = parse_topology(TOPOLOGY, seed=0)
    sim = NetworkSimulation(topology, SimulationConfig(seed=0))
    workload = WorkloadSpec(flows=flows, pairs=256).generate(
        topology.switches, seed=0, duration=12.0
    )
    tenant = TenantFlows(topology, sim.switches, workload.pairs, ecmp=4)
    tenant.install()
    engine = FluidTrafficEngine(topology, sim.switches, workload)
    engine.advance(0.5)  # admit and route every flow

    u, v = random_link(topology, random.Random(0))
    start = time.perf_counter()
    topology.set_link_up(u, v, False)
    engine.reroute(now=0.5)          # flows on the dead link stall
    tenant.install()                 # repair: replan around the failure
    disrupted = engine.reroute(now=0.5, count_disruptions=False)
    wall = time.perf_counter() - start
    assert disrupted == 0  # the repair pass is lossless
    return {
        "reconverge_wall_s": round(wall, 3),
        "disrupted": engine.disrupted_total,
    }


def test_traffic_scaling_campaign_and_reconvergence():
    results: Dict[str, Dict[str, object]] = {}
    for flows in _selected_sizes():
        stats = _measure(flows)
        stats.update(_measure_reconvergence(flows))
        results[str(flows)] = stats

        # The acceptance bounds (generous: CI hardware varies).
        if flows <= 100_000:
            assert stats["campaign_wall_s"] < 60.0, stats
        assert stats["reconverge_wall_s"] < 10.0, stats
        assert stats["completed"] > 0
        assert stats["n_faults"] >= 1
        print(
            f"\n{TOPOLOGY} {flows} flows: campaign "
            f"{stats['campaign_wall_s']}s wall, reconverge "
            f"{stats['reconverge_wall_s']}s, "
            f"{stats['disrupted']} disrupted",
            file=sys.__stdout__,
            flush=True,
        )

    emit_json(
        "traffic-scaling",
        {
            "bench": "traffic-scaling",
            "topology": TOPOLOGY,
            "seed": 0,
            "pairs": 256,
            "campaign": "churn",
            "sizes": results,
        },
    )
