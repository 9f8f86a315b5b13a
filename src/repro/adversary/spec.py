"""The ``stabilize`` experiment spec: convergence from arbitrary state.

Registers one :class:`~repro.exp.spec.ExperimentSpec` named ``stabilize``
whose cases measure the paper's *headline* claim — self-stabilization:
corrupt the freshly constructed network to an arbitrary configuration
(flow tables, reply stores, round tags, channel contents), optionally
hand packet delivery to a bounded adversarial scheduler, and measure the
time until Definition 1 holds.

Everything is a pure function of the repetition seed: the topology (for
randomized families), the controller placement, the corruption (its own
decorrelated :func:`~repro.exp.seeding.adversary_rng` stream), the
scheduler's randomness, and the simulation's event interleaving.  The
parallel repetition runner therefore produces bit-identical series at any
worker count, and every repetition is content-addressable in the run
store — a warm re-run performs zero simulator steps.  The module is wired
into the registry lazily through ``repro.exp.spec``'s deferred-module
hook, like the scenario spec.
"""

from __future__ import annotations

from typing import List

from repro.adversary.corruptions import CORRUPTIONS
from repro.adversary.schedulers import SCHEDULERS
from repro.api import AwaitLegitimacy, CorruptState, RunPlan
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


def stabilize_run_plan(
    topology: str,
    corruption: str,
    seed: int,
    scheduler: str = "none",
    scheduler_bound: float = 4.0,
    n_controllers: int = 3,
    task_delay: float = 0.5,
    theta: int = 10,
    timeout: float = 240.0,
) -> RunPlan:
    """The facade plan of one stabilization repetition: corrupt the
    initial state, then run until a legitimate configuration is reached.

    ``scheduler`` names a bounded adversarial delivery policy from
    :data:`~repro.adversary.schedulers.SCHEDULERS` (``"none"`` keeps the
    benign default).  There is deliberately no ``Bootstrap`` phase: the
    run *starts* corrupted, so the awaited convergence is the
    stabilization itself.
    """
    # robust_views: the adversarial axis injects pure transient corruption
    # (no permanent removals), so the corroborated-fusion planning view is
    # sound here and prevents the rule-flap limit cycle the bounded-delay
    # schedulers otherwise induce on high-diameter topologies.
    plan = RunPlan(topology, controllers=n_controllers, seed=seed).configure(
        task_delay=task_delay, theta=theta, robust_views=True
    )
    if scheduler != "none":
        plan.configure(scheduler=scheduler, scheduler_bound=scheduler_bound)
    return plan.then(
        CorruptState(corruption=corruption),
        AwaitLegitimacy(timeout=timeout),
    )


def _stabilize_cases(networks, topology, corruption, scheduler, **knobs) -> List[CaseSpec]:
    label = f"{topology} {corruption} {scheduler}"
    if networks and topology not in networks and label not in networks:
        return []
    return [
        CaseSpec(
            label=label,
            network=topology,
            # Seconds from the arbitrary initial state to legitimacy, or
            # None if the run never converged within the timeout.
            measure=lambda s: stabilize_run_plan(
                topology, corruption, s, scheduler=scheduler, **knobs
            ).run().stabilization_time,
            # Like the scenario spec: the worst-case tail is the point of
            # an adversarial campaign, so keep every repetition.
            trim=False,
        )
    ]


register(
    ExperimentSpec(
        name="stabilize",
        title="Stabilize: convergence from an arbitrary initial state",
        build_cases=_stabilize_cases,
        notes=(
            "seconds from arbitrary-state corruption (applied before the "
            "first protocol step) to a legitimate configuration "
            "(Definition 1)"
        ),
        default_reps=8,
        params=(
            TOPOLOGY_PARAM,
            Param(
                "corruption", "mixed", str, choices=tuple(sorted(CORRUPTIONS)),
                help="arbitrary-initial-state corruption strategy",
            ),
            Param(
                "scheduler", "none", str, choices=("none", *sorted(SCHEDULERS)),
                help="bounded adversarial delivery scheduler",
            ),
            Param("scheduler_bound", 4.0),
            CONTROLLERS_PARAM,
            TASK_DELAY_PARAM,
            THETA_PARAM,
            TIMEOUT_PARAM,
        ),
    )
)


__all__ = ["stabilize_run_plan"]
