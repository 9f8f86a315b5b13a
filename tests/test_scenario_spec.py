"""Tests for the scenario experiment spec and its runner integration."""

from repro.exp.runner import run_spec
from repro.exp.spec import get_spec, list_specs
from repro.scenarios.spec import campaign_run_plan
from repro.sim.faults import FaultPlan

FAST = {"task_delay": 0.1, "theta": 4, "n_controllers": 2}


def test_scenario_spec_registered():
    assert "scenario" in list_specs()
    assert get_spec("scenario").name == "scenario"


def test_scenario_cases_default_and_filtered():
    spec = get_spec("scenario")
    cases = spec.cases(networks=None, topology="ring:8", campaign="flapping")
    assert [c.label for c in cases] == ["ring:8 flapping"]
    assert cases[0].network == "ring:8"
    assert spec.cases(networks=("grid:3x3",), topology="ring:8", campaign="churn") == []
    assert len(spec.cases(networks=("ring:8",), topology="ring:8", campaign="churn")) == 1


def _scenario_simulation(topology, seed):
    return campaign_run_plan(topology, "churn", seed, **FAST).session().sim


def _recovery(topology, campaign, seed, plan=None):
    return campaign_run_plan(topology, campaign, seed, plan=plan, **FAST).run().recovery_time


def test_build_scenario_simulation_is_seed_deterministic():
    a = _scenario_simulation("jellyfish:10", seed=3)
    b = _scenario_simulation("jellyfish:10", seed=3)
    assert a.topology.links == b.topology.links
    assert a.topology.controllers == b.topology.controllers


def test_measure_campaign_recovery_converges():
    recovery = _recovery("ring:6", "churn", seed=0)
    assert recovery is not None and recovery >= 0.0


def test_measure_with_empty_plan_is_zero():
    recovery = _recovery("ring:6", "churn", seed=0, plan=FaultPlan())
    assert recovery == 0.0


def test_scenario_serial_matches_parallel():
    """Satellite: serial vs workers=4 scenario campaigns are bit-identical,
    mirroring test_exp_runner.test_runner_serial_matches_parallel."""
    params = {"topology": "ring:8", "campaign": "mixed", **FAST}
    serial = run_spec("scenario", reps=4, workers=1, params=params)
    parallel = run_spec("scenario", reps=4, workers=4, params=params)
    assert serial.series == parallel.series
    assert serial.series["ring:8 mixed"], "no repetitions completed"


def test_scenario_seed_changes_series():
    params = {"topology": "jellyfish:8", "campaign": "churn", **FAST}
    s0 = run_spec("scenario", reps=2, workers=1, base_seed=0, params=params)
    s1 = run_spec("scenario", reps=2, workers=1, base_seed=1, params=params)
    # Different base seeds derive different topologies AND campaigns; the
    # series only collide if every repetition recovers in the same probe
    # interval, so compare the underlying campaign schedules instead.
    from repro.exp.seeding import derive_seed, fault_rng
    from repro.scenarios.campaigns import build_campaign

    def plan_of(base):
        sim = _scenario_simulation("jellyfish:8", derive_seed(base, 0))
        return build_campaign("churn", sim.topology, fault_rng(derive_seed(base, 0)))

    assert plan_of(0).actions != plan_of(1).actions
    assert len(s0.series) == len(s1.series) == 1
