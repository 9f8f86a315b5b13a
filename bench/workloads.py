"""The five benchmark workloads and the per-sample measurement around them.

Every workload is a function of one :class:`Sample`.  It builds its inputs
from the sample's seed (set-up), calls :meth:`Sample.begin`, runs the timed
region through the repository's public API, calls :meth:`Sample.end`, then
checks the outputs and records the counters the layers expose.  One sample
runs in one fresh process (see ``run.py``), so ``peak_rss_mb`` and the
import cost inside ``setup_s`` are per sample.

**Why the simulated span and the fault count are fixed.**  The seed picks
the topology, the controller placement, the event interleaving, the flows
and the fault sites — but every seed simulates the same *amount* of
scenario.  Left free, a Poisson campaign draws 1–7 failures and a
jellyfish:200 bootstrap converges anywhere between 8.5 and 10.5 simulated
seconds, which moved the host wall of one sample by ±30 % across seeds;
pinned, seeds agree to within the host's own noise.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.api import (
    Bootstrap,
    Phase,
    PhaseResult,
    RunFor,
    RunObserver,
    RunPlan,
    RunResult,
    Traffic,
    resolve_topology,
)
from repro.exp.runner import run_spec
from repro.exp.seeding import fault_rng
from repro.fabric import WorkQueue, run_local_campaign
from repro.net.topology import Topology
from repro.scenarios.spec import campaign_run_plan
from repro.sim.faults import FaultPlan
from repro.sim.network_sim import NetworkSimulation
from repro.store.store import RunStore
from repro.traffic.workload import WorkloadSpec

#: Workload sizes.  ``smoke`` exists for the tier-1 smoke test only: its
#: numbers are not comparable with anything.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "bootstrap": ("jellyfish:200", 10.5),  # topology, simulated span
        "steady": ("jellyfish:100", 15.0),  # topology, RunFor seconds
        "churn": ("jellyfish:100", 5, 8.0),  # topology, failures, horizon
        # topology, flows, pairs, duration, failures, fault horizon
        "traffic": ("jellyfish:200", 1_000_000, 256, 12.0, 5, 8.0),
        "campaign": (("B4", "Clos"), 32),  # networks, repetitions
    },
    "smoke": {
        "bootstrap": ("fattree:4", 4.0),
        "steady": ("fattree:4", 2.0),
        "churn": ("fattree:4", 2, 3.0),
        "traffic": ("jellyfish:20", 10_000, 32, 4.0, 2, 2.5),
        "campaign": (("B4",), 4),
    },
}

#: Simulated-seconds budget of every convergence wait.  Far above what any
#: seed needs (≈ 10 s), low enough that a run that never converges fails
#: within the driver's per-run time limit instead of simulating 300 s.
CONVERGENCE_TIMEOUT = 40.0

#: Simulated seconds the churn workload keeps running after the last
#: repair: legitimacy returns 0.5–1.0 s after it, the hold pins the span.
CHURN_HOLD = 1.5

CAMPAIGN_WORKERS = 2


class SetupOnly(Exception):
    """Raised by :meth:`Sample.begin` in a set-up-only sample."""


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def control_counts(sim: NetworkSimulation) -> Dict[str, float]:
    """The additive counters the control-plane layers already expose."""
    controllers = sim.controllers.values()
    switches = sim.switches.values()
    cache = sim.route_cache
    return {
        "sim.events": sim.sim.steps,
        "sim.simulated_s": sim.sim.now,
        "sim.metrics.dropped_control_packets": sim.metrics.dropped_control_packets,
        "sim.metrics.illegitimate_deletions": sim.metrics.illegitimate_deletions,
        "core.controller.iterations": sum(c.iterations for c in controllers),
        "core.controller.c_resets": sim.metrics.c_resets,
        "core.rules.computations": sum(c.rulegen.computations for c in controllers),
        "switch.batches": sum(s.batches_processed for s in switches),
        "switch.table_mutations": sum(s.table.version for s in switches),
        "switch.evictions": sum(s.table.evictions for s in switches),
        "core.legitimacy.route_lookups": cache.hits + cache.misses,
        "core.legitimacy.route_walks": cache.misses,
        "core.legitimacy.invalidations": cache.invalidations,
    }


class Sample:
    """One operation: clocks, counters, checks and the verdict."""

    def __init__(
        self,
        seed: int,
        sizes: Dict[str, Any],
        entered: float,
        out_dir: str,
        tracer=None,
        setup_only: bool = False,
    ) -> None:
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.tracer = tracer
        self.setup_only = setup_only
        self.entered = entered
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.sim_digest = ""
        self.reasons: List[str] = []
        self.counters: Dict[str, float] = {}
        self._sim: Optional[NetworkSimulation] = None
        self._before: Dict[str, float] = {}
        self._wall0 = 0.0
        self._cpu0 = 0.0

    # -- the timed region ---------------------------------------------------

    def begin(self, sim: Optional[NetworkSimulation] = None) -> None:
        """End of set-up, start of the timed region."""
        self._sim = sim
        if sim is not None:
            self._before = control_counts(sim)
        self._cpu0 = _cpu_seconds()
        self._wall0 = time.perf_counter()
        self.setup_s = self._wall0 - self.entered
        if self.setup_only:
            raise SetupOnly

    def end(self) -> None:
        """End of the timed region."""
        wall1 = time.perf_counter()
        if not self._wall0:
            raise RuntimeError("the timed region never started: set-up failed")
        self.wall_s = wall1 - self._wall0
        self.cpu_s = _cpu_seconds() - self._cpu0
        if self.tracer is not None:
            self.tracer.timed_region(self._wall0, wall1)
        sim = self._sim
        if sim is not None:
            after = control_counts(sim)
            for name, value in after.items():
                self.counters[name] = value - self._before[name]
            self.counters["sim.events_per_wall_s"] = self.counters["sim.events"] / self.wall_s
            self.counters["switch.rules_installed"] = sim.total_rules_installed()
            c = self.counters
            c["switch.mutations_per_batch"] = _ratio(
                c["switch.table_mutations"], c["switch.batches"]
            )
            lookups = c["core.legitimacy.route_lookups"]
            c["core.legitimacy.route_hit_ratio"] = _ratio(
                lookups - c["core.legitimacy.route_walks"], lookups
            )

    def begin_after(self, phase: str, sim: NetworkSimulation) -> RunObserver:
        """An observer that starts the timed region when ``phase`` ends —
        the set-up/timed boundary of the workloads whose set-up is a
        bootstrap inside the same run."""
        sample = self

        class Boundary(RunObserver):
            def on_phase_end(self, result: PhaseResult) -> None:
                if result.phase == phase and result.ok:
                    sample.begin(sim)

        return Boundary()

    def span(self, name: str, body: Callable[[], Any]) -> Any:
        """Run one named phase of a workload; its wall lands in the
        counters, and in the trace when there is one."""
        index = self.tracer.enter(name) if self.tracer is not None else None
        started = time.perf_counter()
        try:
            return body()
        finally:
            self.counters[name] = time.perf_counter() - started
            if index is not None:
                self.tracer.exit(index)

    # -- checks -------------------------------------------------------------

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    def check_run(self, result: RunResult) -> None:
        """Every phase ran and succeeded; the digest covers the record."""
        if not result.ok:
            failed = [p.phase for p in result.phases if not p.ok]
            self.fail(f"run not ok: phases {failed} failed or were skipped")
        self.sim_digest = _digest(result.to_json())

    def check_legitimate(self, sim: NetworkSimulation) -> None:
        if not sim.is_legitimate():
            self.fail("network not legitimate at the end of the run")

    def report(self) -> Dict[str, Any]:
        rusage = resource.getrusage
        peak_kib = max(
            rusage(resource.RUSAGE_SELF).ru_maxrss,
            rusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "ok": not self.reasons,
            "reasons": self.reasons,
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": peak_kib / 1024.0,
            "sim_digest": self.sim_digest,
            "counters": self.counters,
        }


# ---------------------------------------------------------------------------
# seeded inputs the repository has no fixed-size generator for
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hold(Phase):
    """Run the clock to a fixed simulated instant, so that every seed's
    timed region spans the same simulated time: ``until`` is absolute,
    ``after_fault`` counts from the session's last fault action."""

    until: Optional[float] = None
    after_fault: Optional[float] = None

    name = "hold"

    def execute(self, session) -> PhaseResult:
        sim = session.sim
        t_start = sim.sim.now
        target = self.until if self.until is not None else session.fault_at + self.after_fault
        sim.run_for(max(0.0, target - t_start))
        return PhaseResult(phase=self.name, ok=True, t_start=t_start, t_end=sim.sim.now)


def fixed_churn(
    topology: Topology,
    rng: random.Random,
    failures: int,
    horizon: float,
    mttr: float = 1.0,
    node_fraction: float = 0.3,
) -> FaultPlan:
    """A churn campaign whose *amounts* are pinned: ``failures`` distinct
    victims (``node_fraction`` of them switches, the rest links, in random
    order) go down one at a time, one per equal slot of ``[0, horizon)``,
    each for exactly ``mttr``; the last repair lands on ``horizon``.

    ``scenarios.campaigns.poisson_churn`` draws 1–7 overlapping outages of
    random length, which decides how many controller rounds stall and how
    often the tenant maintainer repairs — and so moved the host wall of a
    run by ±30 % from seed to seed.  Here the seed still picks the victims
    and jitters the instants, but every action falls into a fluid quantum
    of its own (0.2 s apart at least).  Relative clock."""
    slot = horizon / failures
    jitter = slot - mttr - 0.2
    if jitter < 0:
        raise ValueError(f"{failures} outages of {mttr} s do not fit into {horizon} s")
    n_switches = round(failures * node_fraction)
    victims: List[Any] = rng.sample(topology.switches, n_switches)
    victims += rng.sample(topology.links, failures - n_switches)
    rng.shuffle(victims)
    plan = FaultPlan()
    for index, victim in enumerate(victims):
        last = index == failures - 1
        down = horizon - mttr if last else index * slot + rng.uniform(0.0, jitter)
        if isinstance(victim, tuple):
            plan.fail_link(down, *victim).recover_link(down + mttr, *victim)
        else:
            plan.fail_node(down, victim).recover_node(down + mttr, victim)
    return plan


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def bootstrap_jf200(sample: Sample) -> None:
    topology, span = sample.sizes["bootstrap"]
    session = (
        RunPlan(topology, controllers=3, seed=sample.seed)
        .then(Bootstrap(timeout=CONVERGENCE_TIMEOUT), Hold(until=span))
        .session()
    )
    sample.begin(session.sim)
    result = session.run()
    sample.end()
    sample.check_run(result)
    sample.counters["sim.converged_at_s"] = result.bootstrap_time or 0.0


def steady_jf100(sample: Sample) -> None:
    topology, duration = sample.sizes["steady"]
    session = (
        RunPlan(topology, controllers=3, seed=sample.seed)
        .then(Bootstrap(timeout=CONVERGENCE_TIMEOUT), RunFor(duration))
        .session()
    )
    result = session.run(observer=sample.begin_after("bootstrap", session.sim))
    sample.end()
    sample.check_run(result)
    sample.check_legitimate(session.sim)
    if sample.counters.get("switch.table_mutations"):
        sample.fail(
            "flow tables changed in steady state: "
            f"{sample.counters['switch.table_mutations']:.0f} mutations"
        )
    sample.counters["sim.converged_at_s"] = result.bootstrap_time or 0.0


def churn_jf100(sample: Sample) -> None:
    topology, failures, horizon = sample.sizes["churn"]
    faults = fixed_churn(
        resolve_topology(topology, seed=sample.seed, controllers=3),
        fault_rng(sample.seed),
        failures,
        horizon,
    )
    session = (
        campaign_run_plan(
            topology, "churn", sample.seed, timeout=CONVERGENCE_TIMEOUT, plan=faults
        )
        .then(Hold(after_fault=CHURN_HOLD))
        .session()
    )
    result = session.run(observer=sample.begin_after("bootstrap", session.sim))
    sample.end()
    sample.check_run(result)
    sample.check_legitimate(session.sim)
    sample.counters["sim.converged_at_s"] = result.bootstrap_time or 0.0
    sample.counters["sim.recovery_s"] = result.recovery_time or 0.0
    sample.counters["scenarios.faults_injected"] = len(faults.actions)


def traffic_jf200_1m(sample: Sample) -> None:
    topology, flows, pairs, duration, failures, horizon = sample.sizes["traffic"]
    faults = fixed_churn(
        resolve_topology(topology, seed=sample.seed),
        fault_rng(sample.seed),
        failures,
        horizon,
    )
    phase = Traffic(
        workload=WorkloadSpec(flows=flows, pairs=pairs), duration=duration, plan=faults
    )
    session = RunPlan(topology, controllers=0, seed=sample.seed).then(phase).session()
    sample.begin(session.sim)
    result = session.run()
    sample.end()
    sample.check_run(result)
    block = result.traffic or {}
    if block.get("flows") != flows:
        sample.fail(f"traffic block reports {block.get('flows')} flows, expected {flows}")
    sample.counters["scenarios.faults_injected"] = len(faults.actions)
    sample.counters["traffic.engine.flows"] = block.get("flows", 0)
    sample.counters["traffic.engine.completed"] = block.get("completed", 0)
    sample.counters["traffic.engine.disrupted"] = block.get("disrupted_total", 0)
    sample.counters["traffic.routes.rules_installed"] = block.get("rules_installed", 0)


def campaign_small(sample: Sample) -> None:
    networks, reps = sample.sizes["campaign"]
    common = dict(reps=reps, networks=networks, base_seed=sample.seed)
    parallel = dict(common, workers=CAMPAIGN_WORKERS)
    os.makedirs(sample.out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="campaign-", dir=sample.out_dir)
    store_a, store_b = os.path.join(scratch, "a"), os.path.join(scratch, "b")
    try:
        sample.begin()
        serial = sample.span(
            "exp.runner.serial_s",
            lambda: run_spec("fig13", workers=1, store=store_a, **common),
        )
        warm = sample.span(
            "store.warm_s",
            lambda: run_spec("fig13", workers=1, store=store_a, **common),
        )
        pool = sample.span("exp.runner.pool_s", lambda: run_spec("fig13", **parallel))
        fabric = sample.span(
            "fabric.campaign_s",
            lambda: run_local_campaign(store_b, "fig13", **parallel),
        )
        sample.end()

        texts = [r.to_json() for r in (serial, warm, pool, fabric)]
        if len(set(texts)) != 1:
            sample.fail("serial, warm, pool and fabric results are not byte-identical")
        sample.sim_digest = _digest(texts[0])
        units = sum(serial.cache_stats.values())
        if serial.cache_stats["simulated"] != units or warm.cache_stats["hit"] != units:
            sample.fail(f"store: cold {serial.cache_stats}, warm {warm.cache_stats}")
        queue = WorkQueue(RunStore(store_b))
        quarantined = len(queue.quarantine_entries())
        if quarantined:
            sample.fail(f"{quarantined} fabric unit(s) quarantined")
        retries = sum(e.get("kind") in ("failed", "reclaim") for e in queue.events())

        c = sample.counters
        c["exp.runner.units"] = units
        c["store.puts"] = len(RunStore(store_a).keys())
        c["store.hits"] = warm.cache_stats["hit"]
        c["store.bytes"] = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(store_a)
            for name in names
        )
        c["fabric.retries"] = retries
        c["fabric.quarantined"] = quarantined
        c["exp.runner.pool_efficiency"] = c["exp.runner.serial_s"] / (
            CAMPAIGN_WORKERS * c["exp.runner.pool_s"]
        )
        c["fabric.efficiency"] = c["exp.runner.serial_s"] / (
            CAMPAIGN_WORKERS * c["fabric.campaign_s"]
        )
        c["fabric.overhead_per_unit_ms"] = (
            1000.0 * (c["fabric.campaign_s"] - c["exp.runner.pool_s"]) / units
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[Sample], None]] = {
    "bootstrap_jf200": bootstrap_jf200,
    "steady_jf100": steady_jf100,
    "churn_jf100": churn_jf100,
    "traffic_jf200_1m": traffic_jf200_1m,
    "campaign_small": campaign_small,
}
