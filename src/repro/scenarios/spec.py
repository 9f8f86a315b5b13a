"""The ``scenario`` experiment spec: (topology × campaign) convergence.

Registers one :class:`~repro.exp.spec.ExperimentSpec` named ``scenario``
whose cases measure the paper's core claim on *generated* networks under
*randomized* fault campaigns: bootstrap to a legitimate configuration,
inject the campaign, and measure the time from the campaign's final
action back to legitimacy.

Everything is a pure function of the repetition seed — the topology (for
randomized families), the controller placement, the simulation's event
randomness, and the campaign itself — so the parallel repetition runner
produces bit-identical series at any worker count.  The module is wired
into the registry lazily through ``repro.exp.spec``'s deferred-module
hook, which also makes the spec resolvable inside ``spawn``-start worker
processes that never imported this package.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api import AwaitLegitimacy, Bootstrap, InjectFaults, RunPlan
from repro.exp.spec import (
    CONTROLLERS_PARAM,
    TASK_DELAY_PARAM,
    THETA_PARAM,
    TIMEOUT_PARAM,
    TOPOLOGY_PARAM,
    CaseSpec,
    ExperimentSpec,
    Param,
    register,
)
from repro.scenarios.campaigns import CAMPAIGNS, build_campaign
from repro.sim.faults import FaultPlan


def campaign_run_plan(
    topology: str,
    campaign: str,
    seed: int,
    n_controllers: int = 3,
    task_delay: float = 0.5,
    theta: int = 10,
    timeout: float = 240.0,
    plan: Optional[FaultPlan] = None,
) -> RunPlan:
    """The facade plan of one scenario repetition: bootstrap, run the
    campaign on the relative clock, measure re-convergence.

    ``plan`` overrides the generated campaign (the property harness uses
    it to shrink a failing schedule); either way the schedule is shifted
    onto the simulation clock at injection time.
    """
    inject = InjectFaults(
        plan=plan,
        builder=(
            None
            if plan is not None
            else (lambda sim, rng: build_campaign(campaign, sim.topology, rng))
        ),
        relative=True,
        # The campaign name is the builder's whole parametrization; the
        # label makes it part of the run's content address (an explicit
        # ``plan`` is serialized verbatim instead).
        label=f"campaign:{campaign}",
    )
    return (
        RunPlan(topology, controllers=n_controllers, seed=seed)
        .configure(task_delay=task_delay, theta=theta)
        .then(
            Bootstrap(timeout=timeout),
            inject,
            AwaitLegitimacy(timeout=timeout, clamp_zero=True),
        )
    )


def _scenario_cases(networks, topology, campaign, **knobs) -> List[CaseSpec]:
    label = f"{topology} {campaign}"
    if networks and topology not in networks and label not in networks:
        return []
    return [
        CaseSpec(
            label=label,
            network=topology,
            # Recovery time from the campaign's last action to legitimacy,
            # or None if bootstrap or re-convergence times out.
            measure=lambda s: campaign_run_plan(
                topology, campaign, s, **knobs
            ).run().recovery_time,
            # The paper's drop-two-extrema protocol suits figure
            # regeneration; exploratory campaigns exist to surface the
            # worst-case tail, so keep every repetition.
            trim=False,
        )
    ]


CAMPAIGN_PARAM = Param("campaign", "churn", str, choices=tuple(sorted(CAMPAIGNS)))

register(
    ExperimentSpec(
        name="scenario",
        title="Scenario: fault-campaign recovery on a generated topology",
        build_cases=_scenario_cases,
        notes=(
            "recovery seconds from the campaign's last action back to a "
            "legitimate configuration (Definition 1)"
        ),
        default_reps=8,
        params=(
            TOPOLOGY_PARAM,
            CAMPAIGN_PARAM,
            CONTROLLERS_PARAM,
            TASK_DELAY_PARAM,
            THETA_PARAM,
            TIMEOUT_PARAM,
        ),
    )
)


__all__ = ["CAMPAIGN_PARAM", "campaign_run_plan"]
