"""End-to-end integration tests on small networks.

These exercise the full stack — discovery, in-band routing, Algorithm 2,
rule installation, failover — against the paper's claims: bootstrap from
empty configurations, recovery from every benign failure class (Lemmas 7
and 8), and self-stabilization after arbitrary state corruption
(Theorem 2).
"""

import random

import pytest

from repro import build_network, NetworkSimulation, SimulationConfig
from repro.adversary.corruptions import apply_corruption
from repro.api import Bootstrap, RunPlan
from repro.net.topology import Topology
from repro.net.topologies import random_k_connected, attach_controllers
from repro.sim.faults import FaultAction, FaultPlan
from repro.switch.flow_table import FlowTable, Rule


def small_sim(n_controllers=2, seed=1, **config_kw):
    topo = build_network("B4", n_controllers=n_controllers, seed=seed)
    sim = NetworkSimulation(topo, SimulationConfig(seed=seed, **config_kw))
    return sim


def test_bootstrap_b4_reaches_full_legitimacy():
    sim = small_sim()
    t = sim.run_until_legitimate(timeout=120.0)
    assert t is not None
    assert sim.is_legitimate(full=True)


def test_bootstrap_no_illegitimate_deletions():
    """Section 6.4.1: from empty configurations, no controller ever
    performs an illegitimate deletion."""
    sim = small_sim(n_controllers=3)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    assert sim.metrics.illegitimate_deletions == 0


def test_bootstrap_no_c_resets_with_correct_bounds():
    """Lemma 2: with maxReplies >= 2(NC+NS) a legal execution never
    C-resets."""
    sim = small_sim(n_controllers=3)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    assert sim.metrics.c_resets == 0


def test_every_switch_managed_by_every_controller():
    sim = small_sim(n_controllers=3)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    expected = set(sim.topology.controllers)
    for switch in sim.switches.values():
        assert set(switch.managers.members()) == expected


def test_switch_memory_within_lemma1_bound():
    """Lemma 1: rules per switch bounded by the configured maximum."""
    sim = small_sim(n_controllers=3)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    for switch in sim.switches.values():
        assert len(switch.table) <= sim.rena_config.max_rules
        assert switch.table.evictions == 0


def test_recovery_after_controller_failstop():
    sim = small_sim(n_controllers=3)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    victim = sim.topology.controllers[0]
    sim.inject(FaultPlan().fail_node(sim.sim.now + 0.1, victim))
    sim.run_for(0.2)
    t = sim.run_until_legitimate(timeout=120.0)
    assert t is not None
    # The dead controller's rules and manager entries are gone.
    for switch in sim.switches.values():
        assert victim not in switch.managers.members()
        assert switch.table.rules_of(victim) == []


def test_recovery_after_link_removal():
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    # Remove a switch-switch link that keeps the graph connected.
    for u, v in sim.topology.links:
        if not sim.topology.is_switch(u) or not sim.topology.is_switch(v):
            continue
        probe = sim.topology.copy()
        probe.remove_link(u, v)
        if probe.connected():
            break
    sim.inject(FaultPlan().remove_link(sim.sim.now + 0.1, u, v))
    sim.run_for(0.2)
    assert sim.run_until_legitimate(timeout=120.0) is not None


def test_recovery_after_switch_removal():
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    for victim in sim.topology.switches:
        probe = sim.topology.copy()
        probe.remove_node(victim)
        if probe.connected():
            break
    plan = FaultPlan()
    from repro.sim.faults import FaultAction

    plan.actions.append(FaultAction(sim.sim.now + 0.1, "remove_node", (victim,)))
    sim.inject(plan)
    sim.run_for(0.2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    for cid in sim.topology.controllers:
        assert victim not in sim.controllers[cid].current_view().nodes


def test_recovery_after_temporary_link_failure():
    """Lemma 7: from a legitimate state, a single link failure within
    κ=1 never breaks forwarding — the failover detours carry traffic
    before the control plane even notices."""
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    # Settle to *full* legitimacy (κ-resilient rules everywhere): fast
    # convergence may be declared one round before all detours refresh.
    for _ in range(20):
        if sim.is_legitimate(full=True):
            break
        sim.run_for(1.0)
    assert sim.is_legitimate(full=True)
    u, v = next(
        (u, v)
        for u, v in sim.topology.links
        if sim.topology.is_switch(u) and sim.topology.is_switch(v)
    )
    sim.inject(FaultPlan().fail_link(sim.sim.now + 0.1, u, v))
    sim.run_for(0.2)
    # Even before re-convergence, every controller still reaches every
    # node thanks to the κ-fault-resilient flows.
    assert sim.checker.flows_operational()


def test_controller_recovery_after_failstop_and_return():
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    victim = sim.topology.controllers[0]
    sim.inject(FaultPlan().fail_node(sim.sim.now + 0.1, victim))
    sim.run_for(20.0)
    sim.inject(
        FaultPlan().recover_node(sim.sim.now + 0.1, victim), mark_fault_time=False
    )
    sim.run_for(0.2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    assert sim.is_legitimate(full=False)


def test_self_stabilization_from_corrupted_switch_state():
    """Theorem 2 (empirical): plant garbage rules/managers in every switch
    and verify convergence back to a legitimate state."""
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    plan = FaultPlan()
    for i, sid in enumerate(sim.topology.switches):
        garbage = Rule(
            cid="ghost",
            sid=sid,
            src="ghost",
            dst="nowhere",
            priority=7,
            forward_to=sim.topology.neighbors(sid)[0],
        )
        plan.corrupt_switch(sim.sim.now + 0.1, sid, rules=(garbage,), managers=("ghost",))
    sim.inject(plan)
    sim.run_for(0.2)
    t = sim.run_until_legitimate(timeout=120.0)
    assert t is not None
    for switch in sim.switches.values():
        assert "ghost" not in switch.managers.members()
        assert switch.table.rules_of("ghost") == []


def test_self_stabilization_from_cleared_switch_state():
    """Wiping every switch mid-run is a transient fault; the system
    re-bootstraps in-band."""
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    plan = FaultPlan()
    for sid in sim.topology.switches:
        plan.corrupt_switch(sim.sim.now + 0.1, sid, clear_first=True)
    sim.inject(plan)
    sim.run_for(0.2)
    assert sim.run_until_legitimate(timeout=180.0) is not None
    assert sim.is_legitimate(full=True)


def test_bootstrap_on_random_topology():
    topo = random_k_connected(14, 2, seed=5, extra_edge_prob=0.1)
    attach_controllers(topo, 2, seed=5)
    sim = NetworkSimulation(topo, SimulationConfig(seed=5))
    assert sim.run_until_legitimate(timeout=120.0) is not None


def test_single_controller_network():
    topo = build_network("Clos", n_controllers=1, seed=2)
    sim = NetworkSimulation(topo, SimulationConfig(seed=2))
    assert sim.run_until_legitimate(timeout=120.0) is not None
    assert sim.is_legitimate(full=True)


def test_unambiguous_rule_tables_after_convergence():
    """Section 2.1's unambiguity requirement, checked operationally."""
    sim = small_sim(n_controllers=2)
    assert sim.run_until_legitimate(timeout=120.0) is not None
    for sid, switch in sim.switches.items():
        usable = sim.topology.operational_neighbors(sid)
        assert switch.table.is_unambiguous(operational=usable), sid


# -- the "nothing changed" iteration -------------------------------------------


def _legitimate_jellyfish(seed=0):
    session = RunPlan("jellyfish:20", controllers=3, seed=seed).then(Bootstrap()).session()
    assert session.run().ok
    session.sim.run_for(1.0)  # the last post-convergence view deltas settle
    return session.sim


def _work_counters(sim):
    return {
        "computations": sum(c.rulegen.computations for c in sim.controllers.values()),
        "table_versions": sum(s.table.version for s in sim.switches.values()),
        "batches": sum(s.batches_processed for s in sim.switches.values()),
        "iterations": sum(c.iterations for c in sim.controllers.values()),
        "refreshes": sum(s.table.refreshes for s in sim.switches.values()),
        "rule_writes": sum(s.table.rule_writes for s in sim.switches.values()),
    }


def test_steady_state_rounds_neither_replan_nor_touch_tables():
    """Ten rounds on a legitimate network: every iteration still refreshes
    every switch (that is what heals a corrupted one), but no rule is
    planned again, no table is mutated, and a refresh is one generation
    relabelled — the only rule written per batch is the newRound meta-rule."""
    sim = _legitimate_jellyfish()
    before = _work_counters(sim)
    tags_before = {cid: c.curr_tag for cid, c in sim.controllers.items()}
    sim.run_for(5.0)
    after = _work_counters(sim)
    assert after["iterations"] == before["iterations"] + 10 * len(sim.controllers)
    assert after["batches"] > before["batches"]
    assert after["computations"] == before["computations"]
    assert after["table_versions"] == before["table_versions"]
    batches = after["batches"] - before["batches"]
    assert batches == 10 * len(sim.controllers) * len(sim.switches)
    assert after["refreshes"] - before["refreshes"] == batches  # one per (owner, switch, round)
    assert after["rule_writes"] - before["rule_writes"] == batches  # the meta-rule installs
    # Rounds did advance, and the refreshed rules carry the live round's tag.
    for cid, controller in sim.controllers.items():
        assert controller.curr_tag != tags_before[cid]
        live = {controller.curr_tag, controller.prev_tag}
        for switch in sim.switches.values():
            assert {r.tag for r in switch.table.rules_of(cid)} <= live
    assert sim.is_legitimate(full=True)


@pytest.mark.parametrize("hook", ["recover", "corrupt_controller", "desync-views"])
def test_rule_cache_is_dropped_by_every_volatile_state_rewrite(hook):
    """The rule cache is derived state: whatever rewrites a controller's
    volatile state must force the next lookup to plan from scratch, even
    for a view whose content did not change."""
    sim = _legitimate_jellyfish()
    controller = sim.controllers["c0"]
    view = controller.current_view()
    controller.rulegen.rules_for_view(view, controller.curr_tag)
    planned = controller.rulegen.computations
    controller.rulegen.rules_for_view(view, controller.curr_tag)
    assert controller.rulegen.computations == planned  # warm

    if hook == "recover":
        controller.fail_stop()
        controller.recover()
    elif hook == "corrupt_controller":
        sim.apply_fault(FaultAction(0.0, "corrupt_controller", ("c0",)))
    else:
        apply_corruption("desync-views", sim, random.Random(7))
    controller.rulegen.rules_for_view(view, controller.curr_tag)
    assert controller.rulegen.computations == planned + 1


def _victim(sim):
    return sim.switches[sorted(sim.switches)[3]]


def _clear(sim, switch):
    switch.corrupt(clear_first=True)


def _garbage(sim, switch):
    owned = switch.table.rules_of("c0")
    twin = [r for r in owned if not r.is_meta][0]
    switch.corrupt(rules=(
        Rule("c0", switch.sid, twin.src, twin.dst, twin.priority, twin.forward_to,
             tag="junk", detour=7),  # ties with a resident rule on matching()'s sort key
        Rule("c9", switch.sid, "zz", "yy", 5, twin.forward_to),  # an owner that never existed
    ))


def _delete_one(sim, switch):
    victim = [r for r in switch.table.rules_of("c1") if not r.is_meta][0]
    switch.table._delete_key(victim.key())


def _clog(sim, switch):
    port = sim.topology.neighbors(switch.sid)[0]
    filler = []
    while len(switch.table) + len(filler) < switch.table.max_rules:
        filler.append(Rule("c8", switch.sid, f"zz{len(filler)}", "yy", 5, port))
    switch.corrupt(rules=tuple(filler))


@pytest.mark.parametrize("damage", [_clear, _garbage, _delete_one, _clog])
def test_a_switch_corrupted_mid_steady_run_heals_through_the_fallback(damage):
    """The O(1) refresh must never paper over a table that is no longer
    the generation it recorded: the next batch goes rule by rule."""
    sim = _legitimate_jellyfish()
    sim.run_for(2.0)  # steady: every (owner, switch) is a resident generation
    switch = _victim(sim)
    assert set(switch.table._generations) == set(sim.controllers)
    expected = {cid: [(r.key(), r.detour_start) for r in switch.table.rules_of(cid)]
                for cid in sim.controllers}
    writes = switch.table.rule_writes
    damage(sim, switch)
    assert sim.run_until_legitimate(timeout=30.0) is not None
    sim.run_for(2.0)
    assert sim.is_legitimate(full=True)
    assert switch.table.rule_writes > writes + 4 * len(sim.controllers)  # rule by rule
    assert switch.table.controllers_present() == sorted(sim.controllers)
    for cid, controller in sim.controllers.items():
        healed = switch.table.rules_of(cid)
        assert sorted((r.key(), r.detour_start) for r in healed) == sorted(expected[cid])
        assert {r.tag for r in healed} <= {controller.curr_tag, controller.prev_tag}
    assert set(switch.table._generations) == set(sim.controllers)  # and O(1) again


@pytest.mark.parametrize("hook", ["recover", "corrupt_controller", "desync-views"])
def test_controller_state_rewrites_mid_steady_run_replan_and_converge(hook):
    sim = _legitimate_jellyfish()
    sim.run_for(2.0)
    controller = sim.controllers["c0"]
    planned = controller.rulegen.computations
    if hook == "recover":
        controller.fail_stop()
        controller.recover()
    elif hook == "corrupt_controller":
        sim.apply_fault(FaultAction(0.0, "corrupt_controller", ("c0",)))
    else:
        apply_corruption("desync-views", sim, random.Random(7))
    sim.run_for(3.0)  # replies to the emptied store come back, then it plans
    assert controller.rulegen.computations > planned
    assert sim.run_until_legitimate(timeout=60.0) is not None
    sim.run_for(2.0)
    assert sim.is_legitimate(full=True)
    for cid, c in sim.controllers.items():
        for switch in sim.switches.values():
            assert {r.tag for r in switch.table.rules_of(cid)} <= {c.curr_tag, c.prev_tag}


def _corrupted_run(seed):
    session = RunPlan("fattree:4", controllers=2, seed=seed).then(Bootstrap()).session()
    result = session.run()
    sim = session.sim
    sim.run_for(1.5)
    rng = random.Random(seed)
    for name in ("garbage-rules", "desync-views", "phantom-replies", "clogged-memory"):
        apply_corruption(name, sim, rng)  # (the in-flight garbage of "mixed" needs t = 0)
    recovered = sim.run_until_legitimate(timeout=60.0)
    sim.run_for(1.5)
    tables = {sid: (s.table.rules(), s.table.version, s.table.evictions)
              for sid, s in sim.switches.items()}
    return result.to_json(), recovered, sim.sim.steps, tables, sum(
        s.table.refreshes for s in sim.switches.values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_shortcut_changes_cost_never_behaviour(seed, monkeypatch):
    """Bootstrap, steady rounds, an arbitrary corruption and the recovery
    are event-for-event and rule-for-rule (tags included) the same with
    the O(1) generation match forced off — everything then goes through
    the rule-by-rule path."""
    fast = _corrupted_run(seed)
    monkeypatch.setattr(FlowTable, "_same_generation", lambda self, gen, rules: False)
    slow = _corrupted_run(seed)
    assert fast[:4] == slow[:4]
    assert fast[1] is not None  # it did recover
    assert fast[4] > 0 and slow[4] == 0
