"""Seeded generate-and-shrink harness for convergence from arbitrary state.

The paper's Theorem 1 is a *self-stabilization* claim: the control plane
reaches a legitimate configuration from **any** initial state.  The
scenario harness (:mod:`repro.scenarios.harness`) checks the post-fault
half of that claim; this harness checks the arbitrary-initial-state half:

* **generate** — :func:`generate_stabilization_cases` derives ``n`` random
  ``(topology, corruption, scheduler, seed)`` tuples from a base seed,
  drawing topologies from the scenario harness's shared pool, corruptions
  from the full :data:`~repro.adversary.corruptions.CORRUPTIONS` registry,
  and delivery schedulers from ``{"none"} ∪ SCHEDULERS``;
* **check** — :func:`check_stabilization_case` corrupts a freshly built
  network and measures the time to Definition 1; a case *passes* iff the
  network stabilizes within the timeout;
* **shrink** — on failure, :func:`shrink_stabilization_case` first tries
  smaller topologies of the same family, then drops the adversarial
  scheduler, then replaces a composite corruption with each atomic
  strategy — and reports the smallest reproducing tuple.

Failures print a copy-pastable reproduction line; re-running the tuple
through :func:`check_stabilization_case` reproduces the non-convergence
deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.adversary.corruptions import CORRUPTIONS
from repro.adversary.schedulers import SCHEDULERS
from repro.adversary.spec import stabilize_run_plan
from repro.obs.explain import explain_rerun
from repro.scenarios.harness import TOPOLOGY_POOL

#: Scheduler axis: the benign default plus every registered policy.
SCHEDULER_POOL: Tuple[str, ...] = ("none",) + tuple(sorted(SCHEDULERS))

#: Fast simulation settings shared by every harness run — the scenario
#: harness's settings, so stabilization and recovery cases cost alike.
FAST_SETTINGS = dict(n_controllers=2, task_delay=0.1, theta=4, timeout=120.0)


@dataclass(frozen=True)
class StabilizationCase:
    """One generated property-test case — the reproducing tuple."""

    topology: str
    corruption: str
    scheduler: str
    seed: int

    def repro_line(self) -> str:
        return (
            f"check_stabilization_case(StabilizationCase("
            f"topology={self.topology!r}, corruption={self.corruption!r}, "
            f"scheduler={self.scheduler!r}, seed={self.seed}))"
        )


def generate_stabilization_cases(
    n: int, base_seed: int = 0
) -> List[StabilizationCase]:
    """``n`` deterministic random tuples spanning every topology family,
    corruption strategy, and scheduler policy."""
    rng = random.Random(base_seed * 9_176_263 + 5)
    corruptions = sorted(CORRUPTIONS)
    cases = []
    for _ in range(n):
        family = rng.choice(TOPOLOGY_POOL)
        cases.append(
            StabilizationCase(
                topology=rng.choice(family),
                corruption=rng.choice(corruptions),
                scheduler=rng.choice(SCHEDULER_POOL),
                seed=rng.randrange(1 << 20),
            )
        )
    return cases


def check_stabilization_case(case: StabilizationCase) -> Optional[float]:
    """Stabilization seconds from arbitrary initial state, or ``None`` on
    non-convergence — the property under test is "never ``None``"."""
    return stabilize_run_plan(
        case.topology,
        case.corruption,
        case.seed,
        scheduler=case.scheduler,
        **FAST_SETTINGS,
    ).run().stabilization_time


def shrink_stabilization_case(case: StabilizationCase) -> StabilizationCase:
    """Smallest reproduction of a failing case.

    Shrinks along three axes in order: the topology within its family
    (each candidate re-checked with its own regenerated corruption — node
    names shift between sizes), then the scheduler down to the benign
    default, then a composite ``mixed`` corruption down to a single
    atomic strategy.
    """
    best = case
    family = next((f for f in TOPOLOGY_POOL if case.topology in f), ())
    start = family.index(case.topology) + 1 if case.topology in family else 0
    for smaller in family[start:]:
        candidate = replace(best, topology=smaller)
        if check_stabilization_case(candidate) is None:
            best = candidate
        else:
            break
    if best.scheduler != "none":
        candidate = replace(best, scheduler="none")
        if check_stabilization_case(candidate) is None:
            best = candidate
    if best.corruption == "mixed":
        for atomic in sorted(CORRUPTIONS):
            if atomic == "mixed":
                continue
            candidate = replace(best, corruption=atomic)
            if check_stabilization_case(candidate) is None:
                best = candidate
                break
    return best


@dataclass
class StabilizationReport:
    """Outcome of one harness run."""

    cases: List[StabilizationCase]
    stabilization_times: List[float]
    failures: List[StabilizationCase]

    @property
    def ok(self) -> bool:
        return not self.failures


def run_stabilization_property(n: int, base_seed: int = 0) -> StabilizationReport:
    """Check ``n`` generated cases; shrink and report every failure."""
    cases = generate_stabilization_cases(n, base_seed=base_seed)
    times: List[float] = []
    failures: List[StabilizationCase] = []
    for case in cases:
        stabilization = check_stabilization_case(case)
        if stabilization is None:
            shrunk = shrink_stabilization_case(case)
            failures.append(shrunk)
            print(
                "stabilization FAILED"
                f" on (topology={shrunk.topology!r}, "
                f"corruption={shrunk.corruption!r}, "
                f"scheduler={shrunk.scheduler!r}, seed={shrunk.seed})\n"
                f"  reproduce: {shrunk.repro_line()}"
            )
            # Convergence forensics: the causal chain from the injected
            # corruption to the probe verdicts that never turned green.
            explanation = explain_rerun(
                lambda c=shrunk: check_stabilization_case(c),
                source=shrunk.repro_line(),
            )
            for line in explanation.render().splitlines():
                print(f"  {line}")
        else:
            times.append(stabilization)
    return StabilizationReport(
        cases=cases, stabilization_times=times, failures=failures
    )


__all__ = [
    "FAST_SETTINGS",
    "SCHEDULER_POOL",
    "StabilizationCase",
    "StabilizationReport",
    "check_stabilization_case",
    "generate_stabilization_cases",
    "run_stabilization_property",
    "shrink_stabilization_case",
]
