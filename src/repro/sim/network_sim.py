"""The network simulation harness — the testbed substitute.

Wires together the ground-truth :class:`~repro.net.topology.Topology`, one
:class:`~repro.switch.abstract_switch.AbstractSwitch` per switch, one
:class:`~repro.core.controller.RenaissanceController` per controller,
per-node :class:`~repro.net.discovery.LocalDiscovery`, and the discrete
event engine.

**In-band semantics.**  Control traffic is routed hop-by-hop through the
switches' *installed rule tables* (plus the rule-free direct-neighbour
relay of Section 2.1.1) via
:func:`repro.core.legitimacy.forwarding_path`.  A controller physically
cannot talk to a node for which no in-band path exists — exactly the
bootstrapping constraint the paper studies.  For efficiency, the route is
resolved when the packet is sent and the delivery is scheduled as one
event after ``hops × latency``; mid-flight link failures are modelled by
re-validating the route at delivery time.

**Faults.**  :meth:`apply_fault` executes the actions of
:class:`~repro.sim.faults.FaultPlan`: benign permanent faults mutate the
ground truth; transient corruption rewrites component state in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.topology import Topology
from repro.net.link import LinkFaultModel
from repro.net.channel import SelfStabilizingChannel, Datagram
from repro.net.discovery import LocalDiscovery
from repro.core.config import RenaissanceConfig
from repro.core.controller import RenaissanceController
from repro.core.legitimacy import LegitimacyChecker, RouteCache, forwarding_path
from repro.switch.abstract_switch import AbstractSwitch
from repro.switch.commands import CommandBatch, DelAllRules, NewRound, QueryReply, UpdateRules
from repro.obs.telemetry import active as active_telemetry
from repro.sim.engine import Simulator
from repro.sim.events import EventKind
from repro.sim.faults import FaultAction, FaultInjector, FaultPlan
from repro.sim.metrics import MetricsRecorder


@dataclass
class SimulationConfig:
    """Knobs of one simulation run (paper Section 6.3 defaults).

    ``out_of_band`` switches to a dedicated management network (the
    paper's Section 8.2 hybrid extension): control packets reach any node
    directly instead of through the switches' rule tables.  ``reliable_
    channels`` layers the self-stabilizing end-to-end channel of Section
    3.1 under the controller→switch command traffic, giving exactly-once
    FIFO batch delivery over the (possibly lossy) in-band substrate.

    Invalid knobs are rejected at construction — a non-positive delay or
    latency would silently wedge the event loop, and κ < 1 removes the
    resilience floor the protocol assumes (the κ = 0 ablation is still
    reachable by injecting an explicit :class:`RenaissanceConfig` through
    ``renaissance``).
    """

    kappa: int = 1
    task_delay: float = 0.5  # seconds between do-forever iterations
    discovery_delay: float = 0.5  # seconds between neighbourhood probes
    link_latency: float = 0.002  # per-hop control-packet latency
    theta: int = 10
    seed: int = 0
    packet_ttl: int = 64
    convergence_interval: float = 0.5
    fault_model: Optional[LinkFaultModel] = None
    controller_factory: Optional[Callable[..., RenaissanceController]] = None
    renaissance: Optional[RenaissanceConfig] = None
    out_of_band: bool = False
    reliable_channels: bool = False
    #: Memoize in-band route resolution in a dependency-tracked cache
    #: (:class:`~repro.core.legitimacy.RouteCache`: identical routes, large
    #: speedup on the bigger networks).
    route_cache: bool = True
    #: Named adversarial delivery scheduler (a registry key of
    #: :data:`repro.adversary.schedulers.SCHEDULERS`), or ``None`` for the
    #: benign default.  A name rather than an object so scheduled runs
    #: stay content-addressable in the run store.
    scheduler: Optional[str] = None
    #: Fairness bound of the adversarial scheduler: every delivery latency
    #: ``l`` stays within ``[l, l * scheduler_bound]``.
    scheduler_bound: float = 4.0
    #: Plan rules from corroborated-fusion views while discovery is
    #: unstable (see :class:`~repro.core.config.RenaissanceConfig`);
    #: enabled by the adversarial stabilization axis, off for the paper's
    #: literal figure experiments.
    robust_views: bool = False
    #: Injected randomness source; ``None`` derives one from ``seed``.
    #: Experiment runners inject a per-repetition instance so repetitions
    #: stay reproducible when fanned out over worker processes.
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        for knob in ("task_delay", "discovery_delay", "link_latency",
                     "convergence_interval"):
            if getattr(self, knob) <= 0:
                raise ValueError(f"{knob} must be positive (got {getattr(self, knob)})")
        if self.kappa < 1:
            raise ValueError(
                f"kappa must be >= 1 (got {self.kappa}); pass an explicit "
                "RenaissanceConfig via 'renaissance' for the kappa=0 ablation"
            )
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1 (got {self.theta})")
        if self.scheduler_bound < 1.0:
            raise ValueError(
                f"scheduler_bound must be >= 1 (got {self.scheduler_bound})"
            )
        if self.scheduler is not None:
            # Lazy: the adversary package is stdlib-only, but importing it
            # at module scope would invert the sim <- adversary layering.
            from repro.adversary.schedulers import SCHEDULERS

            if self.scheduler not in SCHEDULERS:
                raise ValueError(
                    f"unknown scheduler {self.scheduler!r}; known: "
                    f"{', '.join(sorted(SCHEDULERS))}"
                )


class _TelemetryMilestones:
    """Metrics observer forwarding milestones to the telemetry handle.

    Registered through the ordinary :meth:`MetricsRecorder.add_observer`
    machinery, so telemetry fan-out obeys the documented observer
    semantics (registration order, exception isolation) instead of being
    a privileged side channel.
    """

    def __init__(self, telemetry, sim: Simulator) -> None:
        self._telemetry = telemetry
        self._sim = sim

    def on_event(self, time: float, name: str, value: object = None) -> None:
        self._telemetry.mark(time, name, value)


class NetworkSimulation:
    """One emulated network: topology + switches + controllers + engine."""

    def __init__(self, topology: Topology, config: SimulationConfig) -> None:
        # A controller-less topology is a data-plane-only fabric: switches
        # forward over externally installed rules (the traffic axis's
        # default).  Control-plane measurements (bootstrap, legitimacy)
        # are meaningless there but simply never invoked.
        self.topology = topology
        self.config = config
        self.sim = Simulator()
        self.metrics = MetricsRecorder()
        self._rng = config.rng or random.Random(config.seed)
        self._fault_model = config.fault_model
        if config.scheduler is not None:
            from repro.adversary.schedulers import make_scheduler

            # Dedicated stream, decorrelated from the start-offset rng, so
            # enabling a scheduler never perturbs the other seeded draws.
            self._scheduler = make_scheduler(
                config.scheduler,
                bound=config.scheduler_bound,
                rng=random.Random(config.seed * 9_176_263 + 7),
            )
        else:
            self._scheduler = None

        n_controllers = len(topology.controllers)
        n_switches = len(topology.switches)
        if config.renaissance is not None:
            self.rena_config = config.renaissance
        else:
            # Diameter-aware rule bound (an all-pairs BFS, so only paid
            # when the config is actually derived from the network).
            try:
                diameter: Optional[int] = topology.diameter()
            except ValueError:  # disconnected start state: use the floor
                diameter = None
            self.rena_config = RenaissanceConfig.for_network(
                n_controllers,
                n_switches,
                kappa=config.kappa,
                theta=config.theta,
                diameter=diameter,
                robust_views=config.robust_views,
            )

        self.discovery: Dict[str, LocalDiscovery] = {}
        for node in topology.nodes:
            self.discovery[node] = LocalDiscovery(
                node,
                topology.neighbors(node),
                send_probe=self._make_probe_sender(node),
                theta=self.rena_config.theta,
            )

        self.switches: Dict[str, AbstractSwitch] = {}
        for sid in topology.switches:
            self.switches[sid] = AbstractSwitch(
                sid,
                alive_neighbors=self._make_alive_fn(sid),
                max_rules=self.rena_config.max_rules,
                max_managers=self.rena_config.max_managers,
            )

        factory = config.controller_factory or RenaissanceController
        self.controllers: Dict[str, RenaissanceController] = {}
        for cid in topology.controllers:
            self.controllers[cid] = factory(
                cid, self.rena_config, self._make_alive_fn(cid)
            )

        self.route_cache: Optional[RouteCache] = (
            RouteCache(self.topology, self.switches) if config.route_cache else None
        )
        self.checker = LegitimacyChecker(
            self.topology,
            self.switches,
            self.controllers,
            self.rena_config.kappa,
            route_cache=self.route_cache,
        )
        self._started = False
        self._illegit_seen: Dict[str, int] = {sid: 0 for sid in self.switches}
        # Optional Section 3.1 channel endpoints, keyed (controller, node,
        # side) with side in {"tx", "rx"}; built lazily per destination.
        self._channels: Dict[Tuple[str, str, str], SelfStabilizingChannel] = {}

        # Telemetry is captured once at construction: when a handle is
        # active the simulation attaches its flight ring (the engine trace
        # bounded to the handle's capacity), the event-kind tally, a
        # pull-style counter provider, and a milestone-forwarding metrics
        # observer.  When no handle is active every instrumented site below
        # is a single ``is not None`` check — the bit-identical path.
        self._telemetry = active_telemetry()
        if self._telemetry is not None:
            self.sim.enable_trace(capacity=self._telemetry.flight_capacity)
            self.sim.enable_kind_counts()
            self.sim.enable_causality()
            self._telemetry.add_provider(self._telemetry_counters)
            self.metrics.add_observer(_TelemetryMilestones(self._telemetry, self.sim))

    def _telemetry_counters(self) -> Dict[str, int]:
        """Pull-style snapshot of the hot-layer counters (zero per-hit
        cost: values are read from their owners only at snapshot time)."""
        counters: Dict[str, int] = {"sim.steps": self.sim.steps}
        for kind, count in self.sim.kind_counts.items():
            counters[f"sim.events.{kind.value}"] = count
        if self.route_cache is not None:
            counters["route_cache.hits"] = self.route_cache.hits
            counters["route_cache.misses"] = self.route_cache.misses
            counters["route_cache.invalidations"] = self.route_cache.invalidations
        return counters

    # -- wiring helpers -----------------------------------------------------------

    def _make_alive_fn(self, node: str) -> Callable[[], List[str]]:
        discovery = None

        def alive() -> List[str]:
            return self.discovery[node].alive_neighbors()

        return alive

    def _make_probe_sender(self, node: str) -> Callable[[str, str], None]:
        """Probe transport: a synchronous one-hop exchange gated on the
        operational state (probing is cheap relative to the probe period,
        so per-probe events would only slow the engine down)."""

        def send(neighbor: str, payload: str) -> None:
            if neighbor not in self.topology:
                return
            if not self.topology.link_operational(node, neighbor):
                return
            if payload == LocalDiscovery.PROBE:
                self.discovery[neighbor].on_probe(node)
            else:
                self.discovery[node].on_probe_reply(neighbor)

        return send

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the do-forever loops (staggered to avoid lockstep)."""
        if self._started:
            return
        self._started = True
        for node in self.topology.nodes:
            offset = self._rng.uniform(0, self.config.discovery_delay)
            self.sim.schedule(
                offset, self._make_discovery_loop(node), kind=EventKind.SWITCH_DISCOVERY
            )
        for cid in self.topology.controllers:
            offset = self._rng.uniform(0, self.config.task_delay)
            self.sim.schedule(
                offset,
                self._make_controller_loop(cid),
                kind=EventKind.CONTROLLER_ITERATION,
            )

    def _make_discovery_loop(self, node: str) -> Callable[[], None]:
        def run() -> None:
            if node in self.topology:
                if self.topology.node_is_up(node):
                    discovery = self.discovery[node]
                    discovery.set_neighbors(self.topology.neighbors(node))
                    discovery.probe_round()
                self.sim.schedule(
                    self.config.discovery_delay, run, kind=EventKind.SWITCH_DISCOVERY
                )

        return run

    def _make_controller_loop(self, cid: str) -> Callable[[], None]:
        def run() -> None:
            if cid in self.topology:
                controller = self.controllers[cid]
                if self.topology.node_is_up(cid) and not controller.failed:
                    telemetry = self._telemetry
                    started = telemetry.now() if telemetry is not None else 0.0
                    for dst, batch in controller.iterate():
                        if self.config.reliable_channels:
                            self._offer_via_channel(cid, dst, batch)
                        else:
                            self._send_control(cid, dst, batch)
                    if self.config.reliable_channels:
                        self._tick_channels(cid)
                    if telemetry is not None:
                        telemetry.record_span(
                            f"iterate:{cid}",
                            "sim",
                            started,
                            telemetry.now() - started,
                            t_sim=self.sim.now,
                        )
                        # Provenance: the iteration's round state, so the
                        # forensics DAG can spot stuck rounds and forced
                        # restarts without replaying the run.
                        self.sim.annotate(
                            ctrl=cid,
                            round=str(controller.curr_tag),
                            new_round=controller.last_new_round,
                            round_age=controller.round_age,
                            iteration=controller.iterations,
                        )
                self.sim.schedule(
                    self.config.task_delay, run, kind=EventKind.CONTROLLER_ITERATION
                )

        return run

    # -- optional Section 3.1 channel layer --------------------------------------

    def _offer_via_channel(self, cid: str, dst: str, batch: CommandBatch) -> None:
        """Hand the batch to the per-destination self-stabilizing channel;
        a full outbox simply drops it (the next iteration re-offers)."""
        self._tx_channel(cid, dst).offer(batch)

    def _tick_channels(self, cid: str) -> None:
        for (owner, dst, side), channel in list(self._channels.items()):
            if owner == cid and side == "tx":
                channel.tick()

    def _tx_channel(self, cid: str, dst: str) -> SelfStabilizingChannel:
        key = (cid, dst, "tx")
        if key not in self._channels:
            self._channels[key] = SelfStabilizingChannel(
                cid,
                dst,
                send_datagram=lambda d, c=cid, n=dst: self._route_datagram(c, n, c, d),
                on_deliver=lambda payload: None,  # tx side only sends
                max_outbox=4,
            )
        return self._channels[key]

    def _rx_channel(self, cid: str, dst: str) -> SelfStabilizingChannel:
        key = (cid, dst, "rx")
        if key not in self._channels:
            self._channels[key] = SelfStabilizingChannel(
                dst,
                cid,
                send_datagram=lambda d, c=cid, n=dst: self._route_datagram(n, c, c, d),
                on_deliver=lambda batch, c=cid, n=dst: self._deliver_channel_batch(c, n, batch),
            )
        return self._channels[key]

    def _route_datagram(self, src: str, dst: str, cid: str, datagram: Datagram) -> None:
        """Carry one channel datagram over the in-band substrate."""
        route = self._route(src, dst)
        if route is None:
            self.metrics.record_drop()
            return
        hops = len(route) - 1
        self.metrics.record_batch(cid, hops)
        tagged = self._telemetry is not None
        for latency in self._wire_fates(hops):
            self.sim.schedule(
                latency,
                lambda d=datagram, s=src, t=dst, c=cid: self._deliver_datagram(s, t, c, d),
                kind=EventKind.PACKET_DELIVERY,
                note=f"chan {src}->{dst}",
                tags={"msg": "datagram", "src": src, "dst": dst} if tagged else None,
            )

    def _deliver_datagram(self, src: str, dst: str, cid: str, datagram: Datagram) -> None:
        if dst not in self.topology or not self.topology.node_is_up(dst):
            return
        if dst == cid:
            self._tx_channel(cid, src).on_datagram(datagram)
        else:
            self._rx_channel(cid, dst).on_datagram(datagram)

    def _deliver_channel_batch(self, cid: str, dst: str, batch: CommandBatch) -> None:
        """Exactly-once FIFO delivery point of the channel layer: execute
        the batch and route the reply back as a plain datagram (the query
        tag already dedups replies)."""
        if dst in self.switches:
            reply = self.switches[dst].handle_batch(batch)
            self._account_deletions(dst)
        elif dst in self.controllers:
            reply = self.controllers[dst].on_batch(batch)
        else:
            return
        if reply is not None:
            self._send_reply(dst, cid, reply)

    # -- in-band control transport ---------------------------------------------------

    def _batch_tags(self, src: str, dst: str, batch: CommandBatch) -> Dict[str, object]:
        """Typed provenance for one command batch: the round tag plus the
        rule-mutation profile (healthy steady state installs without
        deleting, so ``dels`` spikes flag flap cycles)."""
        round_tag: Optional[str] = None
        rules = 0
        dels = 0
        for command in batch.commands:
            if isinstance(command, NewRound):
                round_tag = str(command.tag)
            elif isinstance(command, UpdateRules):
                rules += len(command.rules)
            elif isinstance(command, DelAllRules):
                dels += 1
        tags: Dict[str, object] = {
            "msg": "batch", "src": src, "dst": dst, "rules": rules, "dels": dels,
        }
        if round_tag is not None:
            tags["round"] = round_tag
        return tags

    def _send_control(self, cid: str, dst: str, batch: CommandBatch) -> None:
        route = self._route(cid, dst)
        if route is None:
            self.metrics.record_drop()
            return
        hops = len(route) - 1
        self.metrics.record_batch(cid, hops)
        tags = self._batch_tags(cid, dst, batch) if self._telemetry is not None else None
        for latency in self._wire_fates(hops):
            self.sim.schedule(
                latency,
                self._make_batch_delivery(cid, dst, batch),
                kind=EventKind.PACKET_DELIVERY,
                note=f"batch {cid}->{dst}",
                tags=dict(tags) if tags is not None else None,
            )

    def _wire_fates(self, hops: int) -> List[float]:
        base = max(1, hops) * self.config.link_latency
        if self._fault_model is None:
            fates = [base]
        else:
            fates = self._fault_model.copies_and_delays(base)
        if self._scheduler is not None:
            fates = [self._scheduler.delay(latency) for latency in fates]
        return fates

    def _route(self, src: str, dst: str) -> Optional[List[str]]:
        if dst not in self.topology or not self.topology.node_is_up(dst):
            return None
        if src not in self.topology or not self.topology.node_is_up(src):
            return None
        if self.config.out_of_band:
            # Section 8.2's dedicated management network: every control
            # packet is one logical hop, independent of the rule tables.
            return [src, dst]
        if self.route_cache is not None:
            return self.route_cache.path(src, dst, ttl=self.config.packet_ttl)
        return forwarding_path(
            self.topology, self.switches, src, dst, ttl=self.config.packet_ttl
        )

    def _make_batch_delivery(
        self, cid: str, dst: str, batch: CommandBatch
    ) -> Callable[[], None]:
        def deliver() -> None:
            # Re-validate at delivery: the route may have died mid-flight.
            if self._route(cid, dst) is None:
                self.metrics.record_drop()
                return
            if dst in self.switches:
                switch = self.switches[dst]
                reply = switch.handle_batch(batch)
                self._account_deletions(dst)
            else:
                reply = self.controllers[dst].on_batch(batch)
            if reply is not None:
                self._send_reply(dst, cid, reply)

        return deliver

    def _send_reply(self, src: str, cid: str, reply: QueryReply) -> None:
        route = self._route(src, cid)
        if route is None:
            self.metrics.record_drop()
            return
        hops = len(route) - 1
        self.metrics.record_reply(cid, hops)
        tagged = self._telemetry is not None
        for latency in self._wire_fates(hops):
            self.sim.schedule(
                latency,
                self._make_reply_delivery(cid, reply),
                kind=EventKind.PACKET_DELIVERY,
                note=f"reply {src}->{cid}",
                tags={"msg": "reply", "src": src, "dst": cid} if tagged else None,
            )

    def _make_reply_delivery(self, cid: str, reply: QueryReply) -> Callable[[], None]:
        def deliver() -> None:
            controller = self.controllers.get(cid)
            if controller is None or controller.failed:
                return
            if controller.on_reply(reply):
                self.metrics.c_resets += 1

        return deliver

    def _account_deletions(self, sid: str) -> None:
        """Classify fresh deletion records: removing a *live* controller's
        state is an illegitimate deletion (Definition 2)."""
        log = self.switches[sid].deletion_log
        start = self._illegit_seen[sid]
        live = set(self.checker.live_controllers())
        for record in log[start:]:
            for victim in record.managers_removed + record.rule_owners_cleared:
                if victim in live and victim != record.issuer:
                    self.metrics.illegitimate_deletions += 1
        self._illegit_seen[sid] = len(log)

    # -- faults ---------------------------------------------------------------------------

    def inject(self, plan: FaultPlan, mark_fault_time: bool = True) -> None:
        FaultInjector(self).install(plan, mark_fault_time=mark_fault_time)

    def apply_fault(self, action: FaultAction) -> None:
        kind, target = action.kind, action.target
        if kind == "fail_link":
            self.topology.set_link_up(*target, up=False)
        elif kind == "recover_link":
            self.topology.set_link_up(*target, up=True)
        elif kind == "remove_link":
            self.topology.remove_link(*target)
        elif kind == "fail_node":
            (node,) = target
            self.topology.set_node_up(node, False)
            if node in self.controllers:
                self.controllers[node].fail_stop()
        elif kind == "recover_node":
            (node,) = target
            self.topology.set_node_up(node, True)
            if node in self.controllers:
                self.controllers[node].recover()
        elif kind == "remove_node":
            (node,) = target
            self.topology.remove_node(node)
            if node in self.controllers:
                self.controllers[node].fail_stop()
        elif kind == "add_switch":
            sid, links = target
            self.add_switch_runtime(sid, links)
        elif kind == "add_controller":
            cid, links = target
            self.add_controller_runtime(cid, links)
        elif kind == "corrupt_switch":
            sid, rules, managers, clear_first = target
            self.switches[sid].corrupt(
                rules=rules, managers=managers, clear_first=clear_first
            )
        elif kind == "corrupt_controller":
            (cid,) = target
            controller = self.controllers[cid]
            controller.replydb.corrupt([])
            controller.rulegen.invalidate()
        else:
            raise ValueError(f"unknown fault kind: {kind}")

    # -- node additions (Lemma 8, the ℓ > 0 cases) -------------------------------------

    def add_switch_runtime(self, sid: str, links: List[str]) -> None:
        """Attach a brand-new switch with empty configuration (the paper's
        node-addition assumption: new nodes start with empty memory)."""
        self.topology.add_switch(sid)
        for peer in links:
            self.topology.add_link(sid, peer)
        self.discovery[sid] = LocalDiscovery(
            sid,
            self.topology.neighbors(sid),
            send_probe=self._make_probe_sender(sid),
            theta=self.rena_config.theta,
        )
        self.switches[sid] = AbstractSwitch(
            sid,
            alive_neighbors=self._make_alive_fn(sid),
            max_rules=self.rena_config.max_rules,
            max_managers=self.rena_config.max_managers,
        )
        if self.route_cache is not None:
            self.route_cache.watch_switch(sid)
        self._illegit_seen[sid] = 0
        if self._started:
            self.sim.schedule(
                self.config.discovery_delay,
                self._make_discovery_loop(sid),
                kind=EventKind.SWITCH_DISCOVERY,
            )

    def add_controller_runtime(self, cid: str, links: List[str]) -> None:
        """Attach a brand-new controller; it bootstraps itself in-band
        like any controller starting from an empty reply store."""
        self.topology.add_controller(cid)
        for peer in links:
            self.topology.add_link(cid, peer)
        self.discovery[cid] = LocalDiscovery(
            cid,
            self.topology.neighbors(cid),
            send_probe=self._make_probe_sender(cid),
            theta=self.rena_config.theta,
        )
        factory = self.config.controller_factory or RenaissanceController
        self.controllers[cid] = factory(
            cid, self.rena_config, self._make_alive_fn(cid)
        )
        if self._started:
            self.sim.schedule(
                self.config.discovery_delay,
                self._make_discovery_loop(cid),
                kind=EventKind.SWITCH_DISCOVERY,
            )
            self.sim.schedule(
                self.config.task_delay,
                self._make_controller_loop(cid),
                kind=EventKind.CONTROLLER_ITERATION,
            )

    # -- convergence -----------------------------------------------------------------------

    def is_legitimate(self, full: bool = False) -> bool:
        return self.checker.is_legitimate(full=full)

    def run_for(self, duration: float) -> None:
        self.start()
        self.sim.run(until=self.sim.now + duration)

    def run_until_legitimate(
        self,
        timeout: float,
        full: bool = False,
        check_interval: Optional[float] = None,
    ) -> Optional[float]:
        """Run until Definition 1 holds; returns the absolute sim time of
        convergence or ``None`` on timeout.  This is the measurement loop
        behind every bootstrap/recovery figure."""
        self.start()
        interval = check_interval or self.config.convergence_interval
        deadline = self.sim.now + timeout
        converged: List[float] = []

        def probe() -> None:
            telemetry = self._telemetry
            if telemetry is None:
                legitimate = self.is_legitimate(full=full)
            else:
                started = telemetry.now()
                legitimate = self.is_legitimate(full=full)
                elapsed = telemetry.now() - started
                telemetry.histogram("probe.wall_seconds").observe(elapsed)
                telemetry.record_span(
                    "legitimacy_probe",
                    "probe",
                    started,
                    elapsed,
                    t_sim=self.sim.now,
                    args={"legitimate": legitimate},
                )
                self.sim.annotate(probe=True, legitimate=legitimate)
            if legitimate:
                converged.append(self.sim.now)
                self.metrics.mark_convergence(self.sim.now)
                self.sim.stop()
                return
            if self.sim.now + interval <= deadline:
                self.sim.schedule(interval, probe, kind=EventKind.PROBE)

        self.sim.schedule(interval, probe, kind=EventKind.PROBE)
        self.sim.run(until=deadline)
        if converged:
            return converged[0]
        if self._telemetry is not None:
            # Timed out: ship the flight ring's tail so the non-converged
            # run is diagnosable without a re-run.
            self._telemetry.record_flight_dump(
                "non-convergence",
                list(self.sim.trace),
                t_sim=self.sim.now,
                source=f"run_until_legitimate(timeout={timeout})",
            )
        return None

    # -- introspection ------------------------------------------------------------------------

    def controller_iterations(self) -> Dict[str, int]:
        return {cid: ctrl.iterations for cid, ctrl in self.controllers.items()}

    def total_rules_installed(self) -> int:
        return sum(len(switch.table) for switch in self.switches.values())


__all__ = ["NetworkSimulation", "SimulationConfig"]
