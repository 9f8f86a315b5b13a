"""Tests for the flow-level traffic subsystem (:mod:`repro.traffic`):
workload generation, ECMP route enumeration, the fluid max-min engine,
and the end-to-end ``Traffic`` phase."""

import json
import math

import pytest

np = pytest.importorskip("numpy")

from repro.api import RunPlan, RunResult, Traffic
from repro.net.topology import Topology
from repro.traffic import (
    FluidTrafficEngine,
    TenantFlows,
    WorkloadSpec,
    equal_cost_paths,
)
from repro.traffic.spec import traffic_run_plan


# -- workload ----------------------------------------------------------------


def test_workload_spec_json_round_trip():
    spec = WorkloadSpec(flows=5000, pairs=64, arrival="poisson",
                        arrival_rate=250.0, size_mbits=20.0,
                        size_dist="fixed", peak_rate_mbps=50.0)
    clone = WorkloadSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec


def test_workload_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        WorkloadSpec(flows=0)
    with pytest.raises(ValueError):
        WorkloadSpec(arrival="bursty")
    with pytest.raises(ValueError):
        WorkloadSpec(size_dist="pareto")


def test_workload_generation_is_deterministic():
    spec = WorkloadSpec(flows=10_000, pairs=32)
    hosts = [f"s{i}" for i in range(40)]
    a = spec.generate(hosts, seed=7, duration=10.0)
    b = spec.generate(hosts, seed=7, duration=10.0)
    assert a.pairs == b.pairs
    assert np.array_equal(a.flow_pair, b.flow_pair)
    assert np.array_equal(a.size_mbits, b.size_mbits)
    assert np.array_equal(a.arrival, b.arrival)


def test_workload_generation_varies_with_seed():
    spec = WorkloadSpec(flows=10_000, pairs=32)
    hosts = [f"s{i}" for i in range(40)]
    a = spec.generate(hosts, seed=7, duration=10.0)
    b = spec.generate(hosts, seed=8, duration=10.0)
    assert not np.array_equal(a.size_mbits, b.size_mbits)


def test_workload_pairs_never_self():
    spec = WorkloadSpec(flows=1000, pairs=200)
    workload = spec.generate([f"s{i}" for i in range(12)], seed=0, duration=5.0)
    assert all(src != dst for src, dst in workload.pairs)


# -- engine ------------------------------------------------------------------


def _line_topology(n=4):
    """s0 - s1 - ... - s(n-1), one path per pair."""
    topo = Topology()
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n - 1):
        topo.add_link(f"s{i}", f"s{i+1}")
    return topo


def _diamond_topology():
    """Two equal-cost 2-hop paths s0->s3 (via s1 or s2)."""
    topo = Topology()
    for i in range(4):
        topo.add_switch(f"s{i}")
    topo.add_link("s0", "s1")
    topo.add_link("s0", "s2")
    topo.add_link("s1", "s3")
    topo.add_link("s2", "s3")
    return topo


def _engine_for(topo, pairs, flows, *, capacity=100.0, peak=1000.0,
                size=1000.0, ecmp=4):
    from repro.sim.network_sim import NetworkSimulation, SimulationConfig

    sim = NetworkSimulation(topo, SimulationConfig())
    tenant = TenantFlows(topo, sim.switches, pairs, ecmp=ecmp)
    tenant.plan()
    tenant.install()
    from repro.traffic.workload import Workload

    spec = WorkloadSpec(flows=flows, pairs=len(pairs), size_mbits=size,
                        size_dist="fixed", peak_rate_mbps=peak)
    # Hand-built workload: the declared pairs exactly, fixed sizes, all
    # flows arriving at t=0 (generate() would sample its own pairs).
    workload = Workload(
        spec=spec,
        hosts=list(topo.switches),
        pairs=list(pairs),
        flow_pair=(np.arange(flows, dtype=np.int64) % len(pairs)),
        size_mbits=np.full(flows, size),
        arrival=np.zeros(flows),
    )
    engine = FluidTrafficEngine(
        topo, sim.switches, workload, capacity_mbps=capacity,
        link_latency=0.001, max_paths=ecmp,
    )
    return sim, tenant, engine


def test_engine_single_bottleneck_max_min_share():
    """10 identical flows across one 100 Mbit/s line each get 10 Mbit/s."""
    topo = _line_topology(3)
    sim, _, engine = _engine_for(topo, [("s0", "s2")], flows=10)
    engine.advance(1e-3)  # admit the flows
    counts = engine._group_counts()
    rates = engine.solve_rates(counts)
    total = float((counts * rates).sum())
    assert total == pytest.approx(100.0, rel=1e-6)


def test_engine_peak_rate_caps_unloaded_flows():
    """One flow on a 1000 Mbit/s line is limited by its own 100 Mbit/s
    peak, not the link."""
    topo = _line_topology(3)
    sim, _, engine = _engine_for(topo, [("s0", "s2")], flows=1,
                                 capacity=1000.0, peak=100.0)
    engine.advance(1e-3)
    rates = engine.solve_rates(engine._group_counts())
    assert float(rates.max()) == pytest.approx(100.0, rel=1e-6)


def test_engine_ecmp_splits_across_equal_paths():
    """On the diamond, the hash split spreads flows over both 2-hop paths
    so aggregate goodput exceeds a single path's capacity."""
    topo = _diamond_topology()
    sim, _, engine = _engine_for(topo, [("s0", "s3")], flows=64)
    engine.advance(1e-3)
    counts = engine._group_counts()
    # Both paths got a non-empty share of the 64 flows.
    assert (counts > 0).sum() == 2
    rates = engine.solve_rates(counts)
    total = float((counts * rates).sum())
    assert total == pytest.approx(200.0, rel=1e-6)


def test_engine_advance_completes_flows():
    topo = _line_topology(3)
    sim, _, engine = _engine_for(topo, [("s0", "s2")], flows=4, size=10.0)
    for _ in range(20):
        engine.advance(0.1)
    assert int(engine.done.sum()) == 4
    assert float(engine.completion.min()) >= 0.0


def test_engine_reroute_counts_only_broken_paths():
    """Failing one diamond arm disrupts exactly the flows hashed onto it;
    the other arm's flows keep their path identity."""
    topo = _diamond_topology()
    sim, tenant, engine = _engine_for(topo, [("s0", "s3")], flows=64)
    engine.advance(1e-3)
    counts_before = engine._group_counts()
    on_arm_one = int(counts_before[0])
    topo.set_link_up("s0", "s1", False)
    tenant.install()
    disrupted = engine.reroute(now=1.0)
    assert disrupted in (on_arm_one, 64 - on_arm_one)
    # Survivors were not reassigned: everything now rides the live arm.
    counts_after = engine._group_counts()
    assert int(counts_after.sum()) == 64


def test_equal_cost_paths_on_diamond():
    topo = _diamond_topology()
    view = topo
    paths = equal_cost_paths(view, "s0", "s3", k=4)
    assert sorted(paths) == [("s0", "s1", "s3"), ("s0", "s2", "s3")]


def test_engine_is_deterministic():
    topo = _diamond_topology()
    summaries = []
    for _ in range(2):
        sim, tenant, engine = _engine_for(topo, [("s0", "s3")], flows=32,
                                          size=20.0)
        for _ in range(10):
            engine.advance(0.1)
        summaries.append(engine.summary())
    assert summaries[0] == summaries[1]


# -- phase + spec ------------------------------------------------------------


def test_traffic_phase_end_to_end_records_metrics():
    result = traffic_run_plan("jellyfish:16", seed=3, flows=2000, pairs=16,
                              duration=6.0).run()
    assert result.ok
    block = result.traffic
    assert block is not None
    assert block["flows"] == 2000
    assert block["completed"] + block["active"] == 2000
    assert block["stalled"] <= block["active"]  # stalled ⊆ active
    assert block["goodput_mbps"] > 0
    assert block["n_faults"] >= 1
    assert block["disrupted_per_fault"] is not None
    # Serialized metrics must be valid JSON (no NaN/inf leak).
    json.loads(result.to_json())


def test_traffic_run_result_round_trips():
    result = traffic_run_plan("jellyfish:12", seed=1, flows=500, pairs=8,
                              duration=4.0).run()
    clone = RunResult.from_json(result.to_json())
    assert clone.to_json() == result.to_json()
    assert clone.traffic == result.traffic


def test_traffic_phase_is_deterministic():
    a = traffic_run_plan("jellyfish:12", seed=5, flows=1000, pairs=8, duration=5.0).run()
    b = traffic_run_plan("jellyfish:12", seed=5, flows=1000, pairs=8, duration=5.0).run()
    assert a.to_json() == b.to_json()


def test_traffic_without_campaign_sees_no_disruptions():
    plan = RunPlan("jellyfish:12", controllers=0, seed=2).then(
        Traffic(workload=WorkloadSpec(flows=500, pairs=8), duration=4.0,
                campaign=None)
    )
    result = plan.run()
    assert result.ok
    assert result.traffic["n_faults"] == 0
    assert result.traffic["disrupted_total"] == 0
    assert result.traffic["disrupted_per_fault"] is None


def test_traffic_composes_with_control_plane():
    """controllers>0: the workload rides a bootstrapped in-band fabric."""
    result = traffic_run_plan("jellyfish:12", seed=0, flows=300, pairs=6,
                              duration=4.0, n_controllers=2).run()
    assert result.ok
    assert [p.phase for p in result.phases] == ["bootstrap", "traffic"]
    assert result.traffic["goodput_mbps"] > 0
