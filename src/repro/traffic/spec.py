"""The ``traffic`` experiment spec: tenant flows under a fault campaign.

Registers one :class:`~repro.exp.spec.ExperimentSpec` named ``traffic``
whose cases report the three headline metrics of a flow-level campaign —
goodput under churn, flows disrupted per fault, and the p99 flow
completion time — each measured from the *same* content-addressed
:class:`~repro.api.RunPlan`.  With a run store attached, the first case
simulates and the other two derive from the cached run record (the
runner's ``DERIVED`` status), so a three-metric sweep costs one
simulation per repetition.

The default plan is a data-plane campaign (``controllers=0``: bare
switch fabric, the tenant maintainer repairing after each fault) — the
transport layer's protocol at 10⁵-flow scale, fast enough for
jellyfish:200 sweeps.  ``controllers>0`` composes the same phase after a
:class:`~repro.api.Bootstrap` for traffic riding the real in-band
control plane.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.api import Bootstrap, RunPlan, Traffic
from repro.exp.spec import (
    TASK_DELAY_PARAM,
    TIMEOUT_PARAM,
    TOPOLOGY_PARAM,
    CaseSpec,
    ExperimentSpec,
    Param,
    positive_float,
    register,
)
from repro.scenarios.spec import CAMPAIGN_PARAM
from repro.traffic.workload import WorkloadSpec

#: metric label → key into the run's traffic metrics block.
TRAFFIC_METRICS = {
    "goodput": "goodput_churn_mbps",
    "disrupted": "disrupted_per_fault",
    "fct-p99": "fct_p99_s",
}


def traffic_run_plan(
    topology: str,
    seed: int,
    flows: int = 100_000,
    pairs: int = 128,
    campaign: Optional[str] = "churn",
    duration: float = 12.0,
    ecmp: int = 4,
    n_controllers: int = 0,
    task_delay: float = 0.5,
    timeout: float = 240.0,
) -> RunPlan:
    """The facade plan of one traffic repetition."""
    workload = WorkloadSpec(flows=flows, pairs=pairs)
    phase = Traffic(
        workload=workload,
        duration=duration,
        campaign=campaign or None,
        ecmp=ecmp,
    )
    plan = RunPlan(topology, controllers=n_controllers, seed=seed)
    if n_controllers > 0:
        return plan.configure(task_delay=task_delay).then(
            Bootstrap(timeout=timeout), phase
        )
    return plan.then(phase)


def _traffic_cases(networks, topology, campaign, **knobs) -> List[CaseSpec]:
    if networks and topology not in networks and not any(
        str(n).startswith(topology) for n in networks
    ):
        return []

    def measure(metric: str, seed: int) -> float:
        """One repetition's value of the named traffic metric (NaN when
        the run recorded no value — e.g. a percentile with zero
        completions)."""
        result = traffic_run_plan(topology, seed, campaign=campaign, **knobs).run()
        value = (result.traffic or {}).get(TRAFFIC_METRICS[metric])
        return float(value) if value is not None else math.nan

    return [
        CaseSpec(
            label=f"{topology} {campaign} {metric}",
            network=topology,
            measure=lambda s, m=metric: measure(m, s),
            trim=False,
        )
        for metric in TRAFFIC_METRICS
    ]


register(
    ExperimentSpec(
        name="traffic",
        title="Traffic: flow-level tenant workload under a fault campaign",
        build_cases=_traffic_cases,
        notes=(
            "goodput under churn (Mbit/s), flows disrupted per fault, and "
            "p99 flow-completion time (s) of a generated 10^5-10^6-flow "
            "workload on the installed rule set"
        ),
        default_reps=1,
        params=(
            TOPOLOGY_PARAM,
            CAMPAIGN_PARAM,
            Param(
                "flows", 100_000, int,
                help="concurrent tenant flows to generate (10^5-10^6 supported)",
            ),
            Param("pairs", 128, int, help="distinct (src, dst) switch pairs"),
            Param("duration", 12.0, positive_float, help="simulated seconds of traffic"),
            Param("ecmp", 4, int, help="max equal-cost paths per pair"),
            # Not the shared --controllers: the default here is the
            # data-plane-only fabric.
            Param(
                "n_controllers", 0, int, flag="--control-plane",
                help="bootstrap this many in-band controllers under the "
                "workload (0 = data-plane-only fabric, the fast default)",
            ),
            TASK_DELAY_PARAM,
            TIMEOUT_PARAM,
        ),
    )
)


__all__ = ["TRAFFIC_METRICS", "traffic_run_plan"]
