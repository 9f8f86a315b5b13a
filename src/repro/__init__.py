"""repro — a reproduction of *Renaissance: A Self-Stabilizing Distributed
SDN Control Plane using In-band Communications* (Canini, Salem, Schiff,
Schiller, Schmid; ICDCS 2018 / arXiv:1712.07697).

Public API overview
===================

* :mod:`repro.core` — the Renaissance controller (Algorithm 2), its
  variants, round tags, reply store, rule generation, and the
  legitimate-state checker (Definition 1).
* :mod:`repro.switch` — the abstract SDN switch: bounded flow table,
  bounded manager set, command protocol, fast-failover forwarding.
* :mod:`repro.net` — substrates: topology model and zoo, unreliable link
  layer, self-stabilizing end-to-end channel, Θ failure detector, local
  topology discovery.
* :mod:`repro.flows` — κ-fault-resilient flow computation.
* :mod:`repro.sim` — the discrete-event simulation harness replacing the
  paper's Mininet/OVS/Floodlight testbed.
* :mod:`repro.transport` — TCP Reno data-plane model for the throughput
  experiments (Figures 15–20).
* :mod:`repro.api` — **the unified run facade**: topology resolution for
  named and generated networks, builder-style phased run plans, and
  JSON-serializable results.  Experiments, scenarios, and the CLI all
  construct their simulations through it.
* :mod:`repro.adversary` — **adversarial self-stabilization**: seeded
  arbitrary-initial-state corruption strategies, bounded worst-case
  delivery schedulers, the ``stabilize`` experiment spec, and the
  convergence-from-arbitrary-state property harness.
* :mod:`repro.store` — **the run store**: content-addressed on-disk
  persistence of completed runs/repetitions, resumable sweeps, and
  store-only report aggregation.
* :mod:`repro.exp` — one declarative experiment spec per paper
  figure/table (``run_spec("fig5", reps=3)``), with its parameter schema,
  and the parallel repetition runner.

Quickstart::

    from repro.api import Bootstrap, RunPlan

    result = RunPlan("B4", controllers=3, seed=1).then(Bootstrap()).run()
    print(f"bootstrapped in {result.bootstrap_time:.1f} simulated seconds")
"""

from repro.net import (
    Topology,
    NodeKind,
    TOPOLOGY_BUILDERS,
)
from repro.net.topologies import attach_controllers, TABLE8_EXPECTED
from repro.core import (
    RenaissanceConfig,
    RenaissanceController,
    NonAdaptiveController,
    ThreeTagController,
    LegitimacyChecker,
)
from repro.sim import NetworkSimulation, SimulationConfig, FaultPlan
from repro.api import (
    AwaitLegitimacy,
    Bootstrap,
    CorruptState,
    InjectFaults,
    RunFor,
    RunObserver,
    RunPlan,
    RunResult,
    build_simulation,
    resolve_topology,
)

__version__ = "1.1.0"


def build_network(name: str, n_controllers: int = 3, seed: int = 0) -> Topology:
    """Build one of the paper's evaluation networks (Table 8) with
    ``n_controllers`` controllers attached.

    ``name`` is one of ``"B4"``, ``"Clos"``, ``"Telstra"``, ``"AT&T"``,
    ``"EBONE"``.
    """
    try:
        builder = TOPOLOGY_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_BUILDERS))
        raise ValueError(f"unknown network {name!r}; choose one of: {known}")
    topology = builder()
    attach_controllers(topology, n_controllers, seed=seed)
    return topology


__all__ = [
    "Topology",
    "NodeKind",
    "TOPOLOGY_BUILDERS",
    "TABLE8_EXPECTED",
    "attach_controllers",
    "build_network",
    "RenaissanceConfig",
    "RenaissanceController",
    "NonAdaptiveController",
    "ThreeTagController",
    "LegitimacyChecker",
    "NetworkSimulation",
    "SimulationConfig",
    "FaultPlan",
    "AwaitLegitimacy",
    "Bootstrap",
    "CorruptState",
    "InjectFaults",
    "RunFor",
    "RunObserver",
    "RunPlan",
    "RunResult",
    "build_simulation",
    "resolve_topology",
    "__version__",
]
