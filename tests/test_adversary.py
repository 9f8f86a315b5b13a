"""Tests for the adversarial self-stabilization subsystem."""

import random

import pytest

from repro.adversary.corruptions import (
    CORRUPTIONS,
    apply_corruption,
    clogged_memory,
)
from repro.adversary.schedulers import (
    SCHEDULERS,
    ExtremesScheduler,
    MaxDelayScheduler,
    ReorderScheduler,
    make_scheduler,
)
from repro.adversary.spec import stabilize_run_plan
from repro.api import AwaitLegitimacy, Bootstrap, CorruptState, RunPlan, build_simulation
from repro.exp.runner import run_spec
from repro.sim.network_sim import SimulationConfig
from repro.store.store import RunStore

FAST = dict(n_controllers=2, task_delay=0.1, theta=4, timeout=120.0)


def _sim(topology="ring:6", seed=0):
    return build_simulation(topology, controllers=2, seed=seed,
                            task_delay=0.1, theta=4)


# -- corruption registry -----------------------------------------------------


def test_corruption_registry_names():
    assert set(CORRUPTIONS) == {
        "garbage-rules",
        "phantom-replies",
        "desync-views",
        "clogged-memory",
        "channel-garbage",
        "mixed",
    }


def test_apply_corruption_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown corruption"):
        apply_corruption("nope", _sim(), random.Random(0))


def test_garbage_rules_plants_rules():
    sim = _sim()
    accounting = apply_corruption("garbage-rules", sim, random.Random(1))
    assert accounting["rules_planted"] > 0
    assert sum(len(s.table) for s in sim.switches.values()) > 0


def test_phantom_replies_pollute_reply_stores():
    sim = _sim()
    accounting = apply_corruption("phantom-replies", sim, random.Random(1))
    assert accounting["replies_planted"] > 0
    assert any(len(c.replydb) > 0 for c in sim.controllers.values())


def test_desync_views_rewrites_round_tags():
    sim = _sim()
    before = {cid: (c.prev_tag, c.curr_tag) for cid, c in sim.controllers.items()}
    apply_corruption("desync-views", sim, random.Random(1))
    after = {cid: (c.prev_tag, c.curr_tag) for cid, c in sim.controllers.items()}
    assert before != after


def test_clogged_memory_fills_to_max_rules():
    sim = _sim()
    clogged_memory(sim, random.Random(1), fill=1.0)
    for switch in sim.switches.values():
        assert len(switch.table) == sim.rena_config.max_rules


def test_channel_garbage_schedules_in_flight_events():
    sim = _sim()
    accounting = apply_corruption("channel-garbage", sim, random.Random(1))
    assert accounting["packets_in_flight"] > 0
    assert len(sim.sim.queue) > 0  # deliveries pending before the protocol runs


def test_mixed_records_the_sampled_combination():
    sim = _sim()
    accounting = apply_corruption("mixed", sim, random.Random(3))
    assert accounting["applied"], "mixed must apply at least one strategy"
    assert set(accounting["applied"]) <= (set(CORRUPTIONS) - {"mixed"})


def test_corruption_is_pure_in_the_rng_stream():
    """Identical sims + identical seeds must produce identical state."""
    a, b = _sim(seed=5), _sim(seed=5)
    acc_a = apply_corruption("mixed", a, random.Random(99))
    acc_b = apply_corruption("mixed", b, random.Random(99))
    assert acc_a == acc_b
    for sid in a.switches:
        assert sorted(map(repr, a.switches[sid].table.rules())) == sorted(
            map(repr, b.switches[sid].table.rules())
        )


# -- adversarial schedulers --------------------------------------------------


def test_scheduler_registry_names():
    assert set(SCHEDULERS) == {"max-delay", "reorder", "extremes"}


def test_make_scheduler_rejects_unknown_and_bad_bound():
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("nope")
    with pytest.raises(ValueError, match="bound"):
        MaxDelayScheduler(0.5)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_schedulers_stay_within_fairness_bounds(name):
    scheduler = make_scheduler(name, bound=4.0, rng=random.Random(0))
    for latency in (0.002, 0.01, 0.5):
        for _ in range(32):
            delay = scheduler.delay(latency)
            assert latency <= delay <= latency * 4.0 + 1e-12


def test_max_delay_always_takes_the_full_bound():
    assert MaxDelayScheduler(3.0).delay(0.01) == pytest.approx(0.03)


def test_reorder_alternates_floor_and_bound():
    scheduler = ReorderScheduler(4.0)
    delays = [scheduler.delay(0.01) for _ in range(4)]
    assert delays == pytest.approx([0.04, 0.01, 0.04, 0.01])


def test_extremes_is_seeded_and_two_valued():
    a = ExtremesScheduler(4.0, random.Random(7))
    b = ExtremesScheduler(4.0, random.Random(7))
    da = [a.delay(0.01) for _ in range(16)]
    assert da == [b.delay(0.01) for _ in range(16)]
    assert set(round(d, 6) for d in da) <= {0.01, 0.04}


def test_simulation_config_validates_scheduler():
    with pytest.raises(ValueError, match="unknown scheduler"):
        SimulationConfig(scheduler="nope")
    with pytest.raises(ValueError, match="scheduler_bound"):
        SimulationConfig(scheduler="reorder", scheduler_bound=0.5)
    SimulationConfig(scheduler="reorder")  # valid


# -- CorruptState phase ------------------------------------------------------


def test_corrupt_state_is_addressable_and_described():
    phase = CorruptState(corruption="clogged-memory")
    assert phase.addressable()
    assert phase.describe() == {
        "phase": "corrupt_state",
        "corruption": "clogged-memory",
    }


def test_corrupted_plans_are_cacheable_and_distinct():
    def plan(corruption):
        return (
            RunPlan("ring:6", controllers=2, seed=0)
            .then(CorruptState(corruption=corruption), AwaitLegitimacy(timeout=60.0))
        )

    assert plan("mixed").cacheable()
    assert plan("mixed").identity() != plan("desync-views").identity()


def test_scheduler_is_part_of_the_plan_identity():
    base = RunPlan("ring:6", controllers=2, seed=0).then(Bootstrap())
    scheduled = (
        RunPlan("ring:6", controllers=2, seed=0)
        .configure(scheduler="max-delay")
        .then(Bootstrap())
    )
    assert base.identity() != scheduled.identity()


def test_corrupt_state_marks_corruption_and_surfaces_accounting():
    result = stabilize_run_plan("ring:6", "mixed", seed=0, **FAST).run()
    assert result.ok
    corrupt = result.phase("corrupt_state")
    assert corrupt is not None and corrupt.details["accounting"]["applied"]
    assert result.metrics["corruption_time"] == 0.0
    assert result.stabilization_time is not None
    assert result.stabilization_time > 0.0
    # No fault was injected: the post-fault metric stays undefined.
    assert result.metrics["fault_time"] is None
    assert result.metrics["recovery_time"] is None


def test_stabilization_and_recovery_metrics_are_distinct():
    """A fault campaign sets recovery_time but not stabilization_time;
    a corruption run does the reverse (previous test)."""
    from repro.scenarios.spec import campaign_run_plan

    result = campaign_run_plan("ring:6", "flapping", seed=0, **FAST).run()
    assert result.metrics["recovery_time"] is not None
    assert result.metrics["stabilization_time"] is None


# -- the stabilize spec ------------------------------------------------------


def test_measure_stabilization_is_deterministic():
    a = stabilize_run_plan("ring:6", "mixed", 3, **FAST).run().stabilization_time
    b = stabilize_run_plan("ring:6", "mixed", 3, **FAST).run().stabilization_time
    assert a is not None and a == b


def test_stabilize_run_plan_enables_robust_views():
    plan = stabilize_run_plan("ring:6", "mixed", 0, **FAST)
    assert plan.identity()["config"]["robust_views"] is True


def test_stabilize_spec_serial_equals_parallel():
    params = dict(topology="ring:6", corruption="mixed", scheduler="reorder", **FAST)
    serial = run_spec("stabilize", reps=2, workers=1, params=params)
    parallel = run_spec("stabilize", reps=2, workers=2, params=params)
    assert serial.series == parallel.series
    assert serial.series["ring:6 mixed reorder"], "no repetition stabilized"


def test_stabilize_spec_resumes_from_the_store(tmp_path):
    params = dict(topology="ring:6", corruption="mixed", scheduler="none", **FAST)
    cold = run_spec("stabilize", reps=2, params=params, store=tmp_path / "s")
    assert cold.cache_stats == {"hit": 0, "derived": 0, "simulated": 2}
    warm = run_spec("stabilize", reps=2, params=params, store=tmp_path / "s")
    assert warm.cache_stats == {"hit": 2, "derived": 0, "simulated": 0}
    assert warm.to_json() == cold.to_json()


def test_stabilize_converges_under_every_scheduler():
    for scheduler in ("none",) + tuple(sorted(SCHEDULERS)):
        assert (
            stabilize_run_plan(
                "ring:8", "mixed", 1, scheduler=scheduler, **FAST
            ).run().stabilization_time
            is not None
        ), scheduler


def test_warm_store_rerun_performs_zero_simulator_steps(tmp_path):
    """The acceptance property, at the library level: a warm re-run never
    constructs a simulation at all (the measurement record hits)."""
    import repro.sim.network_sim as ns

    params = dict(topology="ring:6", corruption="mixed", scheduler="none", **FAST)
    run_spec("stabilize", reps=2, params=params, store=tmp_path / "s")

    built = []
    original = ns.NetworkSimulation.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        return original(self, *args, **kwargs)

    ns.NetworkSimulation.__init__ = counting
    try:
        warm = run_spec("stabilize", reps=2, params=params, store=tmp_path / "s")
    finally:
        ns.NetworkSimulation.__init__ = original
    assert warm.cache_stats["hit"] == 2
    assert not built, "warm rerun built a simulation"
