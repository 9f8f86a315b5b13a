"""Seeded generate-and-shrink harness for the convergence property.

The paper's core claim (Theorem 1) is that the control plane reaches a
legitimate configuration from *any* sequence of benign and transient
faults, within a bounded horizon.  This harness checks that claim on
thousands of generated cases with nothing beyond the standard library:

* **generate** — :func:`generate_cases` derives ``n`` random
  ``(topology, campaign, seed)`` triples from a base seed, drawing
  topologies from every scenario family — including the Harary graphs
  behind ``random_k_connected`` (``harary:NxK``) — at deliberately small
  sizes so a tier-1 run covers many cases per second;
* **check** — :func:`check_case` runs the scenario measurement: a case
  *passes* iff the network re-converges within the timeout after the
  campaign's final action;
* **shrink** — on failure, :func:`shrink_case` first tries smaller
  topologies of the same family, then shrinks the fault schedule on the
  smallest failing case to a minimal *transient* prefix, and reports the
  smallest reproducing triple.

Failures print a copy-pastable reproduction line; re-running the triple
through :func:`check_case` reproduces the timeout deterministically.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.api import resolve_topology
from repro.exp.seeding import fault_rng
from repro.obs.explain import explain_rerun
from repro.obs.telemetry import Telemetry, use_telemetry
from repro.scenarios.campaigns import CAMPAIGNS, build_campaign
from repro.scenarios.spec import campaign_run_plan
from repro.sim.faults import FaultPlan

#: Small-but-varied topology pool: every generator family at sizes where a
#: full bootstrap-campaign-reconverge cycle stays around a second of wall
#: time.  Sub-lists are ordered largest-first so index+1 is "smaller".
TOPOLOGY_POOL: Tuple[Tuple[str, ...], ...] = (
    # Rings deliberately cover the previously-livelocked high-diameter
    # sizes (16/20) now that max_rules is diameter-aware.
    ("ring:20", "ring:16", "ring:12", "ring:10", "ring:8", "ring:6", "ring:5"),
    ("grid:3x4", "grid:3x3", "grid:2x4", "grid:2x3"),
    ("jellyfish:12", "jellyfish:10", "jellyfish:8", "jellyfish:6"),
    ("harary:12x3", "harary:10x3", "harary:8x2", "harary:6x2"),
    ("fattree:4",),
)


@dataclass(frozen=True)
class ConvergenceCase:
    """One generated property-test case — the reproducing triple."""

    topology: str
    campaign: str
    seed: int

    def repro_line(self) -> str:
        return (
            f"check_case(ConvergenceCase(topology={self.topology!r}, "
            f"campaign={self.campaign!r}, seed={self.seed}))"
        )


#: Fast simulation settings shared by every harness run: small Θ and task
#: delay keep convergence within a few simulated seconds on the pool's
#: topology sizes, so the timeout is a genuine bounded-horizon assertion.
FAST_SETTINGS = dict(n_controllers=2, task_delay=0.1, theta=4, timeout=120.0)


def generate_cases(n: int, base_seed: int = 0) -> List[ConvergenceCase]:
    """``n`` deterministic random triples spanning all families/campaigns."""
    rng = random.Random(base_seed * 7_368_787 + 11)
    campaigns = sorted(CAMPAIGNS)
    cases = []
    for _ in range(n):
        family = rng.choice(TOPOLOGY_POOL)
        cases.append(
            ConvergenceCase(
                topology=rng.choice(family),
                campaign=rng.choice(campaigns),
                seed=rng.randrange(1 << 20),
            )
        )
    return cases


def campaign_plan(case: ConvergenceCase) -> FaultPlan:
    """The exact fault schedule the case injects (relative clock)."""
    topology = resolve_topology(
        case.topology, controllers=FAST_SETTINGS["n_controllers"], seed=case.seed
    )
    return build_campaign(case.campaign, topology, fault_rng(case.seed))


def check_case(
    case: ConvergenceCase, plan: Optional[FaultPlan] = None
) -> Optional[float]:
    """Recovery seconds after the campaign's last action, or ``None`` on
    non-convergence — the property under test is "never ``None``"."""
    return campaign_run_plan(
        case.topology, case.campaign, case.seed, plan=plan, **FAST_SETTINGS
    ).run().recovery_time


_RECOVER_OF = {"fail_link": "recover_link", "fail_node": "recover_node"}


def plan_is_transient(plan: FaultPlan) -> bool:
    """True iff every failed link/node is recovered by the plan's end —
    the invariant campaigns promise and shrunk prefixes must preserve.
    (Shared oracle: the campaign and shrinker test suites both assert
    against this, so the fail/recover kind bookkeeping cannot drift.)

    Permanent ``remove_link``/``remove_node`` actions are by definition
    never recovered, so any plan containing one is not transient.
    """
    events: Dict[tuple, List[Tuple[float, str]]] = {}
    for action in plan.actions:
        if action.kind in ("remove_link", "remove_node"):
            return False
        if action.kind in ("fail_link", "recover_link", "fail_node", "recover_node"):
            events.setdefault(action.target, []).append((action.at, action.kind))
    return all(
        sorted(history)[-1][1].startswith("recover") for history in events.values()
    )


def _transient_prefix(plan: FaultPlan, cut: int) -> FaultPlan:
    """``actions[:cut]`` plus the recover actions from the remainder that
    keep the prefix transient.

    A raw prefix can cut between a fail and its recover, leaving the
    network permanently degraded — then non-convergence is benign and the
    "shrunk" schedule would not reproduce the original protocol failure.
    Campaigns guarantee every fail a later recover, so the deficit is
    always satisfiable.
    """
    prefix = list(plan.actions[:cut])
    deficit: Counter = Counter()
    for action in prefix:
        if action.kind in _RECOVER_OF:
            deficit[(_RECOVER_OF[action.kind], action.target)] += 1
        elif action.kind in ("recover_link", "recover_node"):
            key = (action.kind, action.target)
            if deficit[key] > 0:
                deficit[key] -= 1
    for action in plan.actions[cut:]:
        key = (action.kind, action.target)
        if deficit.get(key, 0) > 0:
            deficit[key] -= 1
            prefix.append(action)
    return FaultPlan(sorted(prefix, key=lambda a: a.at))


def _shrink_plan(case: ConvergenceCase) -> Optional[FaultPlan]:
    """Shortest failing transient prefix of the case's campaign (linear
    scan from the front — schedules are short), or ``None`` if only the
    full schedule fails."""
    plan = campaign_plan(case)
    for cut in range(1, len(plan.actions)):
        prefix = _transient_prefix(plan, cut)
        if check_case(case, plan=prefix) is None:
            return prefix
    return None


def shrink_case(case: ConvergenceCase) -> Tuple[ConvergenceCase, Optional[FaultPlan]]:
    """Smallest reproduction of a failing case.

    First shrinks the topology within its family (node names shift
    between sizes, so schedules do not transfer and each candidate is
    checked with its own regenerated campaign), then shrinks the fault
    schedule on the smallest failing case to a minimal transient prefix.
    """
    best = case
    family = next((f for f in TOPOLOGY_POOL if case.topology in f), ())
    start = family.index(case.topology) + 1 if case.topology in family else 0
    for smaller in family[start:]:
        candidate = replace(best, topology=smaller)
        if check_case(candidate) is None:
            best = candidate
        else:
            break
    return best, _shrink_plan(best)


@dataclass
class PropertyReport:
    """Outcome of one harness run."""

    cases: List[ConvergenceCase]
    recovery_times: List[float]
    failures: List[ConvergenceCase]

    @property
    def ok(self) -> bool:
        return not self.failures


def failure_event_tail(
    case: ConvergenceCase,
    plan: Optional[FaultPlan] = None,
    capacity: int = 32,
) -> List[List[object]]:
    """The last simulator events of a *failing* case — the flight
    recorder's dump.

    Re-runs the (already shrunken, hence cheap) case under a private
    telemetry handle; the simulation attaches its bounded event ring to
    it and dumps the tail on non-convergence.  Returns the dump's
    ``[t_sim, kind, note]`` rows, or ``[]`` if the case passes on the
    re-run.
    """
    with use_telemetry(Telemetry(flight_capacity=capacity)) as telemetry:
        check_case(case, plan=plan)
    if not telemetry.flight_dumps:
        return []
    return list(telemetry.flight_dumps[-1]["events"])


def run_convergence_property(n: int, base_seed: int = 0) -> PropertyReport:
    """Check ``n`` generated cases; shrink and report every failure."""
    cases = generate_cases(n, base_seed=base_seed)
    times: List[float] = []
    failures: List[ConvergenceCase] = []
    for case in cases:
        recovery = check_case(case)
        if recovery is None:
            shrunk, shrunk_plan = shrink_case(case)
            failures.append(shrunk)
            detail = (
                f" with {len(shrunk_plan.actions)}-action prefix"
                if shrunk_plan is not None
                else ""
            )
            print(
                "convergence FAILED"
                f" on (topology={shrunk.topology!r}, campaign={shrunk.campaign!r}, "
                f"seed={shrunk.seed}){detail}\n  reproduce: {shrunk.repro_line()}"
            )
            # Convergence forensics: re-run the shrunken case under a
            # private telemetry handle and print the causal chain from the
            # injected fault to the failed probe verdicts.
            explanation = explain_rerun(
                lambda c=shrunk, p=shrunk_plan: check_case(c, plan=p),
                source=shrunk.repro_line(),
            )
            for line in explanation.render().splitlines():
                print(f"  {line}")
        else:
            times.append(recovery)
    return PropertyReport(cases=cases, recovery_times=times, failures=failures)


__all__ = [
    "FAST_SETTINGS",
    "TOPOLOGY_POOL",
    "ConvergenceCase",
    "PropertyReport",
    "campaign_plan",
    "check_case",
    "failure_event_tail",
    "generate_cases",
    "plan_is_transient",
    "run_convergence_property",
    "shrink_case",
]
