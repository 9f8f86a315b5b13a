"""Property harness: the incremental checker must be indistinguishable
from a freshly-constructed one.

The route cache invalidates per entry (dirty nodes × visited sets, rule
events × per-node sensitivity) and the checker carries per-flow verdicts
across probes.  Both optimizations claim *exact* coherence: after any
sequence of topology mutations, rule churn, link flaps, node removals and
runtime additions, every cached path and every carried verdict must equal
what a cache-less evaluation of the same ground truth computes.  These
tests drive seeded random mutation sequences through a live simulation and
assert exactly that at multiple points per sequence.
"""

from __future__ import annotations

import random

import pytest

from repro.core.legitimacy import LegitimacyChecker, forwarding_path
from repro.net.topologies import attach_controllers
from repro.scenarios.generators import parse_topology
from repro.sim.faults import FaultAction
from repro.sim.network_sim import NetworkSimulation, SimulationConfig
from repro.switch.flow_table import Rule

SPECS = ["ring:6", "grid:3x3", "fattree:4", "jellyfish:10"]

#: ≥ 25 seeded sequences (ISSUE 6 acceptance criterion).
SEEDS = range(28)


def _fresh_checker(sim: NetworkSimulation) -> LegitimacyChecker:
    """A from-scratch checker over the same ground truth: no route cache,
    no carried verdicts, no memoized κ/live-subgraph state."""
    return LegitimacyChecker(
        sim.topology,
        sim.switches,
        sim.controllers,
        kappa=sim.checker.kappa,
        route_cache=None,
    )


def _assert_equivalent(sim: NetworkSimulation, rng: random.Random) -> None:
    fresh = _fresh_checker(sim)
    incremental = sim.checker

    assert incremental.flows_operational() == fresh.flows_operational()
    assert incremental.flows_resilient() == fresh.flows_resilient()
    assert incremental.is_legitimate(full=True) == fresh.is_legitimate(full=True)

    # Sampled cached paths must equal an uncached walk of the same pair.
    nodes = sim.topology.nodes
    endpoints = list(sim.controllers) + nodes
    for _ in range(10):
        a, b = rng.choice(endpoints), rng.choice(endpoints)
        if a not in sim.topology or b not in sim.topology:
            continue
        assert sim.route_cache.path(a, b) == forwarding_path(
            sim.topology, sim.switches, a, b
        ), f"cached path diverged for ({a}, {b})"


def _random_mutation(sim: NetworkSimulation, rng: random.Random, fresh_id: int) -> None:
    topology = sim.topology
    choices = ["fail_link", "install_rule", "clear_table", "add_switch"]
    if topology.failed_links():
        choices += ["recover_link", "recover_link"]
    switch_ids = [s for s in topology.switches if s in sim.switches]
    up_switches = [s for s in switch_ids if topology.node_is_up(s)]
    if up_switches:
        choices.append("fail_switch")
    down = [s for s in switch_ids if not topology.node_is_up(s)]
    if down:
        choices += ["recover_switch", "recover_switch"]
    if len(switch_ids) > 3:
        choices += ["remove_link", "remove_switch"]

    kind = rng.choice(choices)
    if kind == "fail_link":
        u, v = rng.choice(topology.links)
        sim.apply_fault(FaultAction(0.0, "fail_link", (u, v)))
    elif kind == "recover_link":
        u, v = rng.choice(topology.failed_links())
        sim.apply_fault(FaultAction(0.0, "recover_link", (u, v)))
    elif kind == "remove_link":
        u, v = rng.choice(topology.links)
        sim.apply_fault(FaultAction(0.0, "remove_link", (u, v)))
    elif kind == "fail_switch":
        sim.apply_fault(FaultAction(0.0, "fail_node", (rng.choice(up_switches),)))
    elif kind == "recover_switch":
        sim.apply_fault(FaultAction(0.0, "recover_node", (rng.choice(down),)))
    elif kind == "remove_switch":
        sim.apply_fault(FaultAction(0.0, "remove_node", (rng.choice(switch_ids),)))
    elif kind == "add_switch":
        peers = rng.sample(topology.nodes, min(2, len(topology.nodes)))
        sim.add_switch_runtime(f"nx{fresh_id}", peers)
    elif kind == "clear_table":
        sim.switches[rng.choice(switch_ids)].table.clear()
    elif kind == "install_rule":
        # Plant an arbitrary (possibly nonsensical) rule, exercising all
        # three event kinds the dirty channel distinguishes.
        sid = rng.choice(switch_ids)
        peers = topology.neighbors(sid)
        if not peers:
            return
        endpoints = list(sim.controllers) + topology.nodes
        detour = rng.choice([None, None, 0, 1])
        sim.switches[sid].table.install(
            Rule(
                cid=rng.choice(list(sim.controllers)),
                sid=sid,
                src=rng.choice(endpoints),
                dst=rng.choice(endpoints),
                priority=rng.randint(1, 1200),
                forward_to=rng.choice(peers),
                tag=None,
                detour=detour,
                detour_start=bool(detour is not None and rng.random() < 0.5),
            )
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_checker_matches_fresh_checker(seed: int) -> None:
    rng = random.Random(1000 + seed)
    spec = SPECS[seed % len(SPECS)]
    topology = parse_topology(spec, seed=seed)
    attach_controllers(topology, 2, seed=seed)
    sim = NetworkSimulation(topology, SimulationConfig(seed=seed))
    assert sim.route_cache is not None

    sim.run_for(1.0)
    _assert_equivalent(sim, rng)

    # A deterministic link flap first (every sequence must cover one), then
    # random mutations with simulation progress interleaved.
    u, v = topology.links[seed % len(topology.links)]
    sim.apply_fault(FaultAction(0.0, "fail_link", (u, v)))
    _assert_equivalent(sim, rng)
    sim.apply_fault(FaultAction(0.0, "recover_link", (u, v)))
    _assert_equivalent(sim, rng)

    for round_no in range(4):
        for i in range(rng.randint(1, 3)):
            _random_mutation(sim, rng, fresh_id=round_no * 10 + i)
        if rng.random() < 0.7:
            sim.run_for(0.5)
        _assert_equivalent(sim, rng)


@pytest.mark.parametrize("seed", range(4))
def test_incremental_checker_matches_fresh_after_node_removal(seed: int) -> None:
    """Node removal is the harshest mutation (it rewrites adjacency and
    membership at once); cover it explicitly in every run."""
    rng = random.Random(seed)
    topology = parse_topology("grid:3x3", seed=seed)
    attach_controllers(topology, 2, seed=seed)
    sim = NetworkSimulation(topology, SimulationConfig(seed=seed))
    sim.run_for(2.0)
    _assert_equivalent(sim, rng)
    victim = sorted(sim.switches)[seed % len(sim.switches)]
    sim.apply_fault(FaultAction(0.0, "remove_node", (victim,)))
    _assert_equivalent(sim, rng)
    sim.run_for(2.0)
    _assert_equivalent(sim, rng)
