"""Declarative experiment specifications for the paper's Section 6.

Every figure/table of the evaluation is registered here as an
:class:`ExperimentSpec`: a pure description of *what* to measure — which
networks, which fault plan, which measurement extractor, how many
repetitions — with execution left entirely to :mod:`repro.exp.runner`.
The split lets one spec run serially, over a process pool, or filtered to
a single network from the CLI, always producing the same series.

A spec's ``build_cases`` expands it into concrete :class:`CaseSpec` rows
(one per plotted label).  Case measurement callables are (re)built inside
whichever process executes them, so nothing here needs to be picklable
beyond the spec name and its parameters.

All experiments follow the paper's protocol (Section 6.3/6.4): task delay
500 ms, Θ = 10 for B4/Clos and 30 for the Rocketfuel networks, N
repetitions per data point with the two extrema dismissed, and violin
summaries of the rest.  Repetition counts default to the paper's 20 but
are parameters — the benchmark suite uses smaller counts to keep wall
time reasonable; shapes are stable from ~5 repetitions on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

# THETA/TIMEOUT are canonically defined by the public facade (repro.api)
# and re-exported here so figure code and tests keep one import path.
from repro.api import (
    THETA,
    TIMEOUT,
    AwaitLegitimacy,
    Bootstrap,
    InjectFaults,
    RunPlan,
    RunResult,
)
from repro.net.topologies import TOPOLOGY_BUILDERS, TABLE8_EXPECTED
from repro.sim.network_sim import NetworkSimulation
from repro.sim.faults import FaultPlan, random_link, removable_switch
from repro.sim.metrics import summarize, trimmed
from repro.transport.traffic import (
    TrafficRun,
    place_hosts_at_max_distance,
    standalone_switches,
)
from repro.transport.stats import TrafficStats, pearson

SMALL_NETWORKS = ("B4", "Clos")
ROCKETFUEL_NETWORKS = ("Telstra", "AT&T", "EBONE")
ALL_NETWORKS = SMALL_NETWORKS + ROCKETFUEL_NETWORKS
#: Table 17's network list (the paper swaps AT&T for Exodus there).
TABLE17_NETWORKS = ("Clos", "B4", "Telstra", "EBONE", "Exodus")

#: What a case measurement yields: one repetition value (``None`` on
#: timeout) or — for ``series`` cases — the whole plotted series at once.
Measurement = Union[Optional[float], List[float]]


@dataclass
class ExperimentResult:
    """One figure's regenerated data: label → repetition measurements."""

    name: str
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""
    #: How each repetition was obtained when a run store was in play
    #: (``{"hit": n, "derived": n, "simulated": n}``).  Diagnostic only:
    #: excluded from equality and from the serialized form, so cold and
    #: warm sweeps emit byte-identical JSON.
    cache_stats: Optional[Dict[str, int]] = field(
        default=None, compare=False, repr=False
    )

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {label: summarize(vals) for label, vals in self.series.items() if vals}

    def rows(self) -> List[str]:
        """Printable rows in the style of the paper's figures."""
        lines = [f"== {self.name} =="]
        for label, values in self.series.items():
            if not values:
                lines.append(f"{label:>24}: (no data)")
                continue
            s = summarize(values)
            lines.append(
                f"{label:>24}: median={s['median']:8.2f}  "
                f"q1={s['q1']:8.2f}  q3={s['q3']:8.2f}  "
                f"min={s['min']:8.2f}  max={s['max']:8.2f}  n={int(s['n'])}"
            )
        if self.notes:
            lines.append(f"   note: {self.notes}")
        return lines

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; the embedded summary is derived, not stored."""
        return {
            "name": self.name,
            "series": {label: list(values) for label, values in self.series.items()},
            "notes": self.notes,
            "summary": self.summary(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        return cls(
            name=data["name"],
            series={label: list(values) for label, values in data["series"].items()},
            notes=data.get("notes", ""),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CaseSpec:
    """One plotted label of an experiment.

    ``measure`` maps a repetition seed to a :data:`Measurement`.  ``series``
    cases produce their whole series in a single call (the deterministic
    traffic experiments); repeated cases produce one scalar per repetition
    and are trimmed of their extrema per the paper's protocol unless
    ``trim`` is off.
    """

    label: str
    network: Optional[str]
    measure: Callable[[int], Measurement]
    series: bool = False
    trim: bool = True


def positive_float(value) -> float:
    """Param parser: a strictly positive float."""
    try:
        parsed = float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}") from None
    if parsed <= 0:
        raise ValueError(f"must be > 0 (got {parsed})")
    return parsed


def theta_value(value) -> int:
    """Param parser: Θ must be an integer >= 1."""
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}") from None
    if parsed < 1:
        raise ValueError(f"theta must be >= 1 (got {parsed})")
    return parsed


@dataclass(frozen=True)
class Param:
    """One declared parameter of an experiment spec.

    ``name`` is the key callers pass in ``run_spec(params=...)`` — and
    what the store hashes; ``default`` applies when they omit it.
    ``parse`` turns a command-line string into a value (``ValueError`` on
    a bad one): the CLI generates one flag per param that has a parser,
    spelled ``--name`` unless ``flag`` says otherwise.  Params without a
    parser (the figures' sweep lists) are library-only.
    """

    name: str
    default: object
    parse: Optional[Callable[[str], object]] = None
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    flag: Optional[str] = None

    @property
    def cli_flag(self) -> str:
        return self.flag or "--" + self.name.replace("_", "-")


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, registry-addressable experiment description.

    ``params`` is the experiment's whole parameter list; ``build_cases``
    receives ``networks`` plus exactly those names as keyword arguments.
    """

    name: str  # registry id, e.g. "fig5"
    title: str  # printed heading, e.g. "Figure 5: bootstrap time, ..."
    build_cases: Callable[..., List[CaseSpec]]
    notes: str = ""
    default_reps: int = 20
    params: Tuple[Param, ...] = ()

    def resolve(self, params: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The declared defaults overlaid with ``params`` — the one place
        parameter names and choices are validated."""
        params = dict(params or {})
        declared = {param.name: param for param in self.params}
        unknown = sorted(set(params) - set(declared))
        if unknown:
            raise ValueError(
                f"spec {self.name!r} has no parameter {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(declared) or '(none)'}"
            )
        for name, value in params.items():
            choices = declared[name].choices
            if choices is not None and value not in choices:
                raise ValueError(
                    f"spec {self.name!r}: {name}={value!r} is not one of "
                    f"{', '.join(choices)}"
                )
        return {**{name: param.default for name, param in declared.items()}, **params}

    def cases(
        self, networks: Optional[Sequence[str]] = None, **params
    ) -> List[CaseSpec]:
        return self.build_cases(networks=networks, **self.resolve(params))


#: The protocol knobs the campaign-style specs (``scenario``,
#: ``stabilize``, ``traffic``) and the single-run CLI commands share —
#: Section 6.3's task delay and Θ, declared once.
TOPOLOGY_PARAM = Param(
    "topology", "jellyfish:20", str,
    help="a Table-8 name or a parametric spec such as fattree:4, "
    "jellyfish:20x4, ring:16 (`repro list` shows every family)",
)
CONTROLLERS_PARAM = Param("n_controllers", 3, int, flag="--controllers")
TASK_DELAY_PARAM = Param("task_delay", 0.5, positive_float)
THETA_PARAM = Param("theta", 10, theta_value)
TIMEOUT_PARAM = Param("timeout", 240.0, positive_float)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SPECS: Dict[str, ExperimentSpec] = {}

#: Modules that register further specs on import (the scenario subsystem
#: lives above this layer).  Loaded lazily on first registry access so the
#: registry is complete in *any* process — including ``spawn``-start pool
#: workers that resolve specs by name — without creating an import cycle
#: at package-init time.
_DEFERRED_SPEC_MODULES: List[str] = [
    "repro.scenarios.spec",
    "repro.adversary.spec",
    "repro.traffic.spec",
]


def _load_deferred_specs() -> None:
    import importlib

    while _DEFERRED_SPEC_MODULES:
        # Pop only after a successful import: a failing module stays queued
        # so every registry access re-raises the root ImportError instead of
        # a misleading "unknown spec".
        importlib.import_module(_DEFERRED_SPEC_MODULES[-1])
        _DEFERRED_SPEC_MODULES.pop()


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in SPECS:
        raise ValueError(f"duplicate experiment spec: {spec.name}")
    SPECS[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    _load_deferred_specs()
    try:
        return SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(SPECS))}"
        ) from None


def list_specs() -> List[str]:
    _load_deferred_specs()
    return sorted(SPECS)


# ---------------------------------------------------------------------------
# shared measurement machinery
# ---------------------------------------------------------------------------


def _bootstrap_time(
    network: str,
    n_controllers: int,
    seed: int,
    task_delay: float = 0.5,
) -> Tuple[Optional[float], RunResult]:
    """Bootstrap to legitimacy through the facade; returns the paper's
    bootstrap-time measurement plus the full serializable run record."""
    result = (
        RunPlan(network, controllers=n_controllers, seed=seed)
        .configure(task_delay=task_delay)
        .then(Bootstrap(timeout=TIMEOUT[network]))
        .run()
    )
    return result.bootstrap_time, result


def _recovery_time(
    network: str,
    n_controllers: int,
    seed: int,
    fault_builder: Callable[[NetworkSimulation, random.Random], FaultPlan],
    fault_label: str,
) -> Optional[float]:
    """Bootstrap to a legitimate state, inject the fault plan, and measure
    the time back to legitimacy (the paper's recovery protocol).

    ``fault_label`` names the builder (with its parameters) in the run's
    content address — see :class:`~repro.api.phases.InjectFaults`.
    """
    result = (
        RunPlan(network, controllers=n_controllers, seed=seed)
        .then(
            Bootstrap(timeout=TIMEOUT[network]),
            InjectFaults(builder=fault_builder, label=fault_label),
            AwaitLegitimacy(timeout=TIMEOUT[network]),
        )
        .run()
    )
    return result.recovery_time


def _traffic_stats(network: str, recovery: bool, seed: int = 0) -> TrafficStats:
    topology = TOPOLOGY_BUILDERS[network]()
    pair = place_hosts_at_max_distance(topology)
    switches = standalone_switches(topology)
    run = TrafficRun(topology, switches, pair, recovery=recovery)
    return run.run()


def _networks(networks: Optional[Sequence[str]], default: Sequence[str]) -> Sequence[str]:
    return tuple(networks) if networks else tuple(default)


# -- fault builders (Figures 10-14, and ``repro recover``) -------------------


def controller_fault(sim: NetworkSimulation, rng: random.Random) -> FaultPlan:
    victim = rng.choice(sim.topology.controllers)
    return FaultPlan().fail_node(sim.sim.now + 0.05, victim)


def switch_fault(sim: NetworkSimulation, rng: random.Random) -> FaultPlan:
    victim = removable_switch(sim.topology, rng)
    return FaultPlan().remove_node(sim.sim.now + 0.05, victim)


def link_fault(sim: NetworkSimulation, rng: random.Random) -> FaultPlan:
    u, v = random_link(sim.topology, rng, protect_connectivity=True)
    return FaultPlan().remove_link(sim.sim.now + 0.05, u, v)


def _multi_controller_fault(kill: int):
    def fault(sim: NetworkSimulation, rng: random.Random) -> FaultPlan:
        victims = rng.sample(sim.topology.controllers, kill)
        plan = FaultPlan()
        for victim in victims:
            plan.fail_node(sim.sim.now + 0.05, victim)
        return plan

    return fault


def _multi_link_fault(count: int):
    def fault(sim: NetworkSimulation, rng: random.Random) -> FaultPlan:
        plan = FaultPlan()
        probe = sim.topology.copy()
        picked = 0
        links = list(probe.links)
        rng.shuffle(links)
        for u, v in links:
            if picked >= count:
                break
            trial = probe.copy()
            trial.remove_link(u, v)
            if trial.connected():
                probe = trial
                plan.remove_link(sim.sim.now + 0.05, u, v)
                picked += 1
        return plan

    return fault


# -- case builders -----------------------------------------------------------


def _per_network(
    default: Sequence[str],
    measure: Callable[[str, int], Measurement],
    series: bool = False,
):
    """Case builder: one label per network, ``measure(network, seed)``."""

    def build(networks=None) -> List[CaseSpec]:
        return [
            CaseSpec(
                label=network,
                network=network,
                measure=lambda s, n=network: measure(n, s),
                series=series,
            )
            for network in _networks(networks, default)
        ]

    return build


def _per_network_value(
    default: Sequence[str],
    swept: str,
    label: str,
    measure: Callable[..., Measurement],
):
    """Case builder: one label per (network, value of the ``swept``
    param), ``measure(network, value, seed, **the spec's other params)``."""

    def build(networks=None, **params) -> List[CaseSpec]:
        values = params.pop(swept)
        return [
            CaseSpec(
                label=label.format(network, value),
                network=network,
                measure=lambda s, n=network, v=value: measure(n, v, s, **params),
            )
            for network in _networks(networks, default)
            for value in values
        ]

    return build


def _table8_cases(networks=None) -> List[CaseSpec]:
    stats = (
        ("nodes", lambda topo: len(topo.switches)),
        ("diameter", lambda topo: topo.diameter()),
        ("edge connectivity", lambda topo: topo.edge_connectivity()),
    )
    return [
        CaseSpec(
            label=f"{network} {metric}",
            network=network,
            measure=lambda s, n=network, f=stat: [float(f(TOPOLOGY_BUILDERS[n]()))],
            series=True,
        )
        for network in TABLE8_EXPECTED
        if not networks or network in networks
        for metric, stat in stats
    ]


def _fig9_measure(network: str, seed: int) -> Optional[float]:
    n_ctrl = 3 if network in SMALL_NETWORKS else 7
    t, result = _bootstrap_time(network, n_ctrl, seed)
    if t is None:
        return None
    return result.metrics["max_load_per_node_per_iteration"]


def _recovery(fault_builder, label: str):
    """``measure(network, seed)`` of one single-fault recovery figure."""
    return lambda n, s: _recovery_time(n, 3, s, fault_builder, label)


def _traffic_series(recovery: bool, series: Callable[[TrafficStats], List[float]]):
    """``measure(network, seed)`` extracting one per-second series of the
    (deterministic, seed-independent) single-pair traffic run."""
    return lambda n, s: series(_traffic_stats(n, recovery=recovery))


def _table17_measure(network: str, seed: int) -> List[float]:
    with_rec = _traffic_stats(network, recovery=True).throughput_series()
    without = _traffic_stats(network, recovery=False).throughput_series()
    return [pearson(with_rec, without)]


# ---------------------------------------------------------------------------
# Section 6, one row per figure/table
# ---------------------------------------------------------------------------

SECTION6: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "table8",
        "Table 8: topology statistics",
        _table8_cases,
        notes="paper: B4 12/5, Clos 20/4, Telstra 57/8, AT&T 172/10, EBONE 208/11",
    ),
    ExperimentSpec(
        "fig5",
        "Figure 5: bootstrap time, 3 controllers",
        _per_network(ALL_NETWORKS, lambda n, s: _bootstrap_time(n, 3, s)[0]),
        notes="paper medians roughly 5-55 s growing with network size/diameter",
    ),
    ExperimentSpec(
        "fig6",
        "Figure 6: bootstrap vs controller count",
        _per_network_value(
            ROCKETFUEL_NETWORKS, "controller_counts", "{} x{}",
            lambda n, c, s: _bootstrap_time(n, c, s)[0],
        ),
        notes="paper: grows with network size; mildly with controller count",
        params=(Param("controller_counts", (1, 3, 5, 7)),),
    ),
    ExperimentSpec(
        "fig7",
        "Figure 7: bootstrap vs task delay",
        _per_network_value(
            ALL_NETWORKS, "delays", "{} d={}",
            lambda n, d, s, n_controllers: _bootstrap_time(
                n, n_controllers, s, task_delay=d
            )[0],
        ),
        notes=(
            "paper: proportional to the delay until congestion raises the small-"
            "delay end; the simulator has no queueing so the small-delay end "
            "flattens instead of peaking"
        ),
        default_reps=5,
        params=(
            Param("delays", (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.08, 0.06, 0.04, 0.02, 0.005)),
            Param("n_controllers", 7),
        ),
    ),
    ExperimentSpec(
        "fig9",
        "Figure 9: communication cost per node",
        _per_network(ALL_NETWORKS, _fig9_measure),
        notes="paper: ~5-25 messages per node per iteration, similar across networks",
    ),
    ExperimentSpec(
        "fig10",
        "Figure 10: recovery after controller fail-stop",
        _per_network(ALL_NETWORKS, _recovery(controller_fault, "controller_fault")),
        notes="paper: O(D) — a few seconds, well below bootstrap time",
    ),
    ExperimentSpec(
        "fig11",
        "Figure 11: recovery after multi-controller fail-stop",
        _per_network_value(
            ROCKETFUEL_NETWORKS, "kill_counts", "{} kill={}",
            lambda n, k, s: _recovery_time(
                n, 7, s, _multi_controller_fault(k), f"multi_controller_fault:{k}"
            ),
        ),
        notes="paper: no clear relation between kill count and recovery time",
        params=(Param("kill_counts", (1, 2, 3, 4, 5, 6)),),
    ),
    ExperimentSpec(
        "fig12",
        "Figure 12: recovery after switch failure",
        _per_network(ALL_NETWORKS, _recovery(switch_fault, "switch_fault")),
        notes="paper: O(D), grows with diameter, large variance",
    ),
    ExperimentSpec(
        "fig13",
        "Figure 13: recovery after link failure",
        _per_network(ALL_NETWORKS, _recovery(link_fault, "link_fault")),
        notes="paper: O(D)",
    ),
    ExperimentSpec(
        "fig14",
        "Figure 14: recovery after multiple link failures",
        _per_network_value(
            ALL_NETWORKS, "fail_counts", "{} k={}",
            lambda n, k, s: _recovery_time(
                n, 3, s, _multi_link_fault(k), f"multi_link_fault:{k}"
            ),
        ),
        notes="paper: failure count does not significantly change recovery time",
        params=(Param("fail_counts", (2, 4, 6)),),
    ),
    ExperimentSpec(
        "fig15",
        "Figure 15: throughput with recovery",
        _per_network(
            ALL_NETWORKS,
            _traffic_series(True, TrafficStats.throughput_series),
            series=True,
        ),
        notes="series are per-second Mbit/s; expect one valley at second 10",
    ),
    ExperimentSpec(
        "fig16",
        "Figure 16: throughput without recovery",
        _per_network(
            ALL_NETWORKS,
            _traffic_series(False, TrafficStats.throughput_series),
            series=True,
        ),
        notes="paper: nearly identical to Figure 15",
    ),
    ExperimentSpec(
        "table17",
        "Table 17: recovery vs no-recovery correlation",
        _per_network(TABLE17_NETWORKS, _table17_measure, series=True),
        notes="paper: 0.92-0.96",
    ),
    ExperimentSpec(
        "fig18",
        "Figure 18: retransmission rate",
        _per_network(
            ALL_NETWORKS,
            _traffic_series(True, TrafficStats.retransmission_series),
            series=True,
        ),
        notes="paper: <1% baseline, 10-15% spike after the failure, fast decay",
    ),
    ExperimentSpec(
        "fig19",
        "Figure 19: BAD TCP flags",
        _per_network(
            ALL_NETWORKS,
            _traffic_series(True, TrafficStats.bad_tcp_series),
            series=True,
        ),
        notes="paper: spike to 10-18% at the failure second",
    ),
    ExperimentSpec(
        "fig20",
        "Figure 20: out-of-order packets",
        _per_network(
            ALL_NETWORKS,
            _traffic_series(True, TrafficStats.out_of_order_series),
            series=True,
        ),
        notes="paper: much smaller presence, up to ~3%",
    ),
)

for _spec in SECTION6:
    register(_spec)


__all__ = [
    "ALL_NETWORKS",
    "CONTROLLERS_PARAM",
    "CaseSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "Measurement",
    "Param",
    "ROCKETFUEL_NETWORKS",
    "SECTION6",
    "SMALL_NETWORKS",
    "SPECS",
    "TABLE17_NETWORKS",
    "TASK_DELAY_PARAM",
    "THETA",
    "THETA_PARAM",
    "TIMEOUT",
    "TIMEOUT_PARAM",
    "TOPOLOGY_PARAM",
    "controller_fault",
    "get_spec",
    "link_fault",
    "list_specs",
    "positive_float",
    "register",
    "switch_fault",
    "theta_value",
    "trimmed",
]
