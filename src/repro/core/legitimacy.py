"""Legitimate-state predicates (paper Definition 1) and data-plane checks.

The experiment harness needs to detect the instant the system (re)enters a
legitimate state — that instant defines the bootstrap/recovery times of
Figures 5–14.  :class:`LegitimacyChecker` evaluates Definition 1 against
ground truth:

1. every controller's accumulated view equals the live topology and covers
   exactly the reachable nodes;
2. every live switch is managed by exactly the live controllers;
3. the installed rules realize κ-fault-resilient forwarding between every
   controller and every node;
4. no stale state (rules/managers of failed controllers) remains.

Condition 3 is verified *operationally*: we walk packets through the actual
switch tables (:func:`forwarding_path`) rather than trusting the flow
planner, and re-walk under injected link failures (:func:`flow_is_resilient`)
— for κ = 1 the check is exhaustive over the failure space.

The probe runs a few times per simulated second, so its cost is kept
proportional to *what changed* rather than to the network size:

* :class:`RouteCache` memoizes walks and invalidates them per entry by
  intersecting each walk's recorded **visited set** with the dirty-node
  sets that topology and flow-table mutations publish.  A walk is a
  deterministic function of the operational neighbourhoods and rule tables
  of exactly the nodes it consulted (including failed branches), so an
  entry none of whose visited nodes is dirty replays identically —
  invalidation is exact, never heuristic.
* :class:`LegitimacyChecker` carries per-flow verdicts forward between
  probes and re-validates only flows whose cached walks were invalidated,
  draining the cache's dirty-pair feed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.topology import Topology, EdgeId, edge
from repro.switch.abstract_switch import AbstractSwitch
from repro.switch.flow_table import EVENT_DETOUR, EVENT_PRIMARY, EVENT_START
from repro.switch.forwarding import next_hop


def _no_record(_node: str) -> None:
    pass


class WalkTrace:
    """Dependency record of one :func:`forwarding_path` walk.

    ``visited`` holds every node whose operational neighbourhood the walk
    consulted (including abandoned branches) — the walk result is a
    deterministic function of those nodes' state plus the consulted rule
    tables.  ``node_kinds`` maps each node whose *table* was consulted to
    the strongest rule-event kind that could perturb the walk there:
    ``EVENT_START`` where the walk missed on rules (a new ``detour_start``
    could rescue it), ``EVENT_PRIMARY`` where a primary rule was followed
    (only a primary change can redirect it — shadowed detour rules are
    invisible to an unstamped packet).  Relay hops never consult the
    table and carry no rule sensitivity at all.  ``stamped`` marks walks
    that travelled on a detour, where any rule of the header matters;
    ``failed`` marks walks with a dead branch.
    """

    __slots__ = ("visited", "node_kinds", "stamped", "failed")

    def __init__(self) -> None:
        self.visited: Set[str] = set()
        self.node_kinds: Dict[str, int] = {}
        self.stamped = False
        self.failed = False


def forwarding_path(
    topology: Topology,
    switches: Dict[str, AbstractSwitch],
    src: str,
    dst: str,
    ttl: int = 64,
    extra_failed: Optional[Set[EdgeId]] = None,
    trace: Optional[WalkTrace] = None,
) -> Optional[List[str]]:
    """Walk a packet with header ``(src, dst)`` through the switch tables.

    ``extra_failed`` marks additional links as down (hypothetical failures
    for resilience checking) on top of the live operational state.  The
    walk starts at ``src``: controllers try each of their operational ports
    in order (a dual-homed host's local failover); switches apply their
    rule tables.  Returns the node path, or ``None`` if dropped/looped.

    ``trace``, if given, collects the walk's dependency record — what
    lets :class:`RouteCache` invalidate exactly.
    """
    failed = extra_failed or set()
    if trace is not None:
        record = trace.visited.add
        record(src)
        record(dst)
    else:
        record = _no_record

    if not failed:
        # Fast path: No(node) is cached inside the topology until the next
        # mutation touching that node; the frozenset flavour feeds the
        # membership-heavy rule-applicability checks without per-hop copies.
        op_list = topology.operational_neighbors
        op_set = topology.operational_neighbor_set
    else:

        def op_list(node: str) -> List[str]:
            return [
                v
                for v in topology.operational_neighbors(node)
                if edge(node, v) not in failed
            ]

        def op_set(node: str) -> FrozenSet[str]:
            return frozenset(op_list(node))

    if src == dst:
        return [src]
    if dst in op_set(src):
        return [src, dst]  # rule-free direct delivery

    def walk(path: List[str], node: str) -> Optional[List[str]]:
        stamp: Optional[int] = None
        budget = ttl
        while node != dst:
            if budget <= 0:
                if trace is not None:
                    trace.failed = True
                return None
            budget -= 1
            record(node)
            if node not in switches:
                if trace is not None:
                    trace.failed = True
                return None  # a controller cannot relay data-plane packets
            usable = op_set(node)
            hop, stamp = next_hop(
                switches[node].table, src, dst, usable, stamp=stamp
            )
            if trace is not None:
                if dst not in usable:
                    # The table was consulted (no direct relay): a miss is
                    # start-sensitive, a followed rule primary-sensitive.
                    kind = EVENT_START if hop is None else EVENT_PRIMARY
                    if kind > trace.node_kinds.get(node, -1):
                        trace.node_kinds[node] = kind
                if hop is None:
                    trace.failed = True
                    return None
                if stamp is not None:
                    trace.stamped = True
            elif hop is None:
                return None
            path.append(hop)
            node = hop
        return path

    if src in switches:
        # A switch emits through its own flow table first (this is where
        # detour stamping happens when its primary out-link is down)...
        result = walk([src], src)
        if result is not None:
            return result
        # ...and, with no applicable rule of its own, tries its ports —
        # the query-by-neighbour bootstrap (Section 2.1.1): a reply from a
        # yet-unconfigured switch relays back through the neighbour that
        # delivered the query.
    for first_hop in op_list(src):
        result = walk([src, first_hop], first_hop)
        if result is not None:
            return result
    return None


class RouteCache:
    """Dependency-tracked memo of :func:`forwarding_path` results.

    ``network_sim.py`` re-resolves the in-band route for every control
    packet, and the legitimacy probe re-walks every controller↔node pair a
    few times per simulated second — almost always against rule tables and
    operational state that changed only at a handful of nodes since the
    last probe.  The cache keys on the full walk input ``(src, dst, ttl,
    extra_failed)`` and stores, with each result, the walk's **visited
    set**.  Topology mutations and flow-table version bumps are delivered
    through dirty listeners; at the next lookup the accumulated dirty
    nodes invalidate exactly the entries whose visited set they intersect.
    Everything else is carried forward — during convergence, when every
    round mutates a few tables, this is the difference between O(changed)
    and O(network) probe cost.

    ``epoch()`` is a single monotone counter bumped per published mutation
    (an O(1) read; it used to sum every table's version per lookup).

    Invalidated ``(src, dst)`` pairs accumulate for
    :meth:`drain_dirty_pairs`, which :class:`LegitimacyChecker` uses to
    carry per-flow verdicts across probes.  Cached paths are shared —
    callers must not mutate the returned lists.
    """

    def __init__(
        self,
        topology: Topology,
        switches: Dict[str, AbstractSwitch],
    ) -> None:
        self.topology = topology
        self.switches = switches
        # key -> (result, visited frozenset, node sensitivity map).  The
        # map grades, per consulted switch, which rule events of the
        # entry's header can perturb the walk there: EVENT_PRIMARY (a
        # primary rule was followed — only primary changes matter, since
        # shadowed detours are invisible to an unstamped packet),
        # EVENT_START (the walk missed on rules there — a new
        # ``detour_start`` could also rescue it), EVENT_DETOUR (stamped or
        # hypothetical-failure walks — any rule of the header matters).
        # A rule event at ``sid`` invalidates an entry iff
        # ``sensitivity[sid] >= event kind``; switches where only a direct
        # relay happened carry no rule sensitivity at all.
        self._paths: Dict[
            Tuple, Tuple[Optional[List[str]], FrozenSet[str], Dict[str, int]]
        ] = {}
        # node -> keys of entries whose walk consulted it (inverted index).
        # Topology mutations at a node invalidate every such entry.
        self._deps: Dict[str, Set[Tuple]] = {}
        # (sid, src, dst) -> keys of entries with header (src, dst) whose
        # walk consulted sid's table.  A rule mutation only perturbs walks
        # of the same header through that switch, so table events
        # invalidate at this finer granularity.
        self._rule_deps: Dict[Tuple[str, str, str], Set[Tuple]] = {}
        # Dirty accumulators, flushed lazily at the next lookup; rule
        # events keep the strongest (lowest) kind seen per (sid, header).
        self._pending_nodes: Set[str] = set()
        self._pending_rules: Dict[Tuple[str, str, str], int] = {}
        # (src, dst) pairs of entries invalidated since the last drain.
        self._dirty_pairs: Set[Tuple[str, str]] = set()
        self._mutations = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        topology.add_dirty_listener(self._on_topology_dirty)
        for switch in switches.values():
            switch.table.add_version_listener(self._on_table_dirty)

    # -- dirty feed -----------------------------------------------------------

    def _on_topology_dirty(self, nodes: Tuple[str, ...]) -> None:
        self._mutations += 1
        self._pending_nodes.update(nodes)

    def _on_table_dirty(
        self, sid: str, events: Tuple[Tuple[str, str, int], ...]
    ) -> None:
        self._mutations += 1
        pending = self._pending_rules
        for src, dst, kind in events:
            triple = (sid, src, dst)
            prior = pending.get(triple)
            if prior is None or kind < prior:
                pending[triple] = kind

    def watch_switch(self, sid: str) -> None:
        """Subscribe to a switch added after construction; its node id is
        marked dirty so any walk that consulted the id before it existed
        (and failed there) is re-validated."""
        self.switches[sid].table.add_version_listener(self._on_table_dirty)
        self._mutations += 1
        self._pending_nodes.add(sid)

    def detach(self) -> None:
        """Unsubscribe from all mutation feeds (for short-lived caches)."""
        self.topology.remove_dirty_listener(self._on_topology_dirty)
        for switch in self.switches.values():
            switch.table.remove_version_listener(self._on_table_dirty)

    def epoch(self) -> int:
        """Monotone mutation counter of the routing state (O(1))."""
        return self._mutations

    def _flush_dirty(self) -> None:
        nodes = self._pending_nodes
        rules = self._pending_rules
        self._pending_nodes = set()
        self._pending_rules = {}
        if not self._paths:
            return
        paths = self._paths
        doomed: Set[Tuple] = set()
        for node in nodes:
            keys = self._deps.pop(node, None)
            if keys:
                doomed |= keys
        for triple, kind in rules.items():
            keys = self._rule_deps.get(triple)
            if not keys:
                continue
            sid = triple[0]
            for key in keys:
                entry = paths.get(key)
                if entry is not None and entry[2].get(sid, -1) >= kind:
                    doomed.add(key)
        for key in doomed:
            entry = self._paths.pop(key, None)
            if entry is None:
                continue
            self.invalidations += 1
            self._dirty_pairs.add((key[0], key[1]))
            src, dst = key[0], key[1]
            for node in entry[1]:
                bucket = self._deps.get(node)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._deps[node]
            for node in entry[2]:
                rbucket = self._rule_deps.get((node, src, dst))
                if rbucket is not None:
                    rbucket.discard(key)
                    if not rbucket:
                        del self._rule_deps[(node, src, dst)]

    def drain_dirty_pairs(self) -> Set[Tuple[str, str]]:
        """Invalidated ``(src, dst)`` pairs since the last drain; the
        checker re-validates exactly these flows."""
        if self._pending_nodes or self._pending_rules:
            self._flush_dirty()
        pairs = self._dirty_pairs
        self._dirty_pairs = set()
        return pairs

    def path(
        self,
        src: str,
        dst: str,
        ttl: int = 64,
        extra_failed: Optional[Set[EdgeId]] = None,
    ) -> Optional[List[str]]:
        """Cached equivalent of :func:`forwarding_path`."""
        if self._pending_nodes or self._pending_rules:
            self._flush_dirty()
        key = (src, dst, ttl, frozenset(extra_failed) if extra_failed else None)
        entry = self._paths.get(key)
        if entry is not None:
            self.hits += 1
            return entry[0]
        self.misses += 1
        trace = WalkTrace()
        result = forwarding_path(
            self.topology,
            self.switches,
            src,
            dst,
            ttl=ttl,
            extra_failed=extra_failed,
            trace=trace,
        )
        frozen = frozenset(trace.visited)
        if extra_failed or trace.stamped:
            # Detour-travelling and hypothetical-failure walks can react
            # to any rule of their header anywhere they passed.
            node_sens = {n: EVENT_DETOUR for n in frozen if n in self.switches}
        else:
            node_sens = trace.node_kinds
        self._paths[key] = (result, frozen, node_sens)
        deps = self._deps
        rule_deps = self._rule_deps
        for node in frozen:
            bucket = deps.get(node)
            if bucket is None:
                deps[node] = {key}
            else:
                bucket.add(key)
        for node in node_sens:
            triple = (node, src, dst)
            rbucket = rule_deps.get(triple)
            if rbucket is None:
                rule_deps[triple] = {key}
            else:
                rbucket.add(key)
        return result


def flow_is_resilient(
    topology: Topology,
    switches: Dict[str, AbstractSwitch],
    src: str,
    dst: str,
    kappa: int,
    ttl: int = 64,
    _failed: Optional[Set[EdgeId]] = None,
    cache: Optional[RouteCache] = None,
) -> bool:
    """Does forwarding survive every combination of ≤ κ further failures?

    Recursively fails each link on the current working path and re-walks;
    links off the working path cannot affect it, so the recursion is
    complete (exhaustive for the failure sets that matter) while staying
    polynomial for the κ used in the paper's experiments (κ = 1).
    """
    failed = _failed or set()
    if cache is not None:
        path = cache.path(src, dst, ttl=ttl, extra_failed=failed)
    else:
        path = forwarding_path(
            topology, switches, src, dst, ttl=ttl, extra_failed=failed
        )
    if path is None:
        return False
    if kappa == 0:
        return True
    for u, v in zip(path, path[1:]):
        e = edge(u, v)
        if not flow_is_resilient(
            topology,
            switches,
            src,
            dst,
            kappa - 1,
            ttl=ttl,
            _failed=failed | {e},
            cache=cache,
        ):
            return False
    return True


class LegitimacyChecker:
    """Definition 1 evaluated against simulation ground truth.

    When constructed with a :class:`RouteCache`, per-flow verdicts are
    carried across probes: ``flows_operational``/``flows_resilient`` first
    drain the cache's invalidated-pair feed, drop only those verdicts, and
    re-walk only those flows.  Because cache invalidation is exact, the
    carried verdicts are exactly what a fresh evaluation would compute —
    the equivalence property tests assert this against a cache-less
    checker over random mutation sequences.
    """

    def __init__(
        self,
        topology: Topology,
        switches: Dict[str, AbstractSwitch],
        controllers: Dict[str, "RenaissanceController"],
        kappa: int,
        route_cache: Optional[RouteCache] = None,
    ) -> None:
        self.topology = topology
        self.switches = switches
        self.controllers = controllers
        self.kappa = kappa
        self.route_cache = route_cache
        # Carried verdicts per ordered (src, dst) pair, maintained only
        # when a route cache feeds us exact invalidations.
        self._path_ok: Dict[Tuple[str, str], bool] = {}
        self._resilient_ok: Dict[Tuple[str, str], bool] = {}
        self._resilient_kappa: Optional[int] = None
        # Probe-scope caches validated against topology.version.
        self._kappa_cache: Optional[Tuple[int, int]] = None
        self._live_cache: Optional[Tuple[int, Topology]] = None
        self._truth_version: Optional[int] = None
        self._truth_cache: Dict[str, Tuple[Set[str], Set[Tuple[str, str]]]] = {}

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        if self.route_cache is not None:
            return self.route_cache.path(src, dst)
        return forwarding_path(self.topology, self.switches, src, dst)

    def _sync_verdicts(self) -> bool:
        """Drop verdicts of flows whose cached walks were invalidated.
        Returns whether verdict carrying is active at all."""
        cache = self.route_cache
        if cache is None:
            return False
        for pair in cache.drain_dirty_pairs():
            self._path_ok.pop(pair, None)
            self._resilient_ok.pop(pair, None)
        return True

    # -- live sets -------------------------------------------------------------

    def live_controllers(self) -> List[str]:
        return [
            cid
            for cid, ctrl in self.controllers.items()
            if not ctrl.failed and self.topology.node_is_up(cid) and cid in self.topology
        ]

    def live_switches(self) -> List[str]:
        return [
            sid
            for sid in self.switches
            if sid in self.topology and self.topology.node_is_up(sid)
        ]

    # -- Definition 1 conditions --------------------------------------------------

    def views_accurate(self, live_controllers: Optional[List[str]] = None) -> bool:
        """Condition 1: each controller's fused view equals the live
        reachable topology."""
        if live_controllers is None:
            live_controllers = self.live_controllers()
        for cid in live_controllers:
            view = self.controllers[cid].current_view()
            truth_nodes, truth_links = self._live_truth(cid)
            if set(view.nodes) != truth_nodes:
                return False
            if set(view.links) != truth_links:
                return False
        return True

    def _live_truth(self, cid: str) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Ground-truth reachable live nodes and operational links from
        ``cid`` — a pure function of the topology, memoized per version."""
        version = self.topology.version
        if self._truth_version != version:
            self._truth_cache.clear()
            self._truth_version = version
        cached = self._truth_cache.get(cid)
        if cached is None:
            truth_nodes = self._reachable_live_nodes(cid)
            truth_links = {
                (u, v)
                for u, v in self.topology.links
                if u in truth_nodes and v in truth_nodes
                and self.topology.link_operational(u, v)
            }
            cached = (truth_nodes, truth_links)
            self._truth_cache[cid] = cached
        return cached

    def _reachable_live_nodes(self, source: str) -> Set[str]:
        return set(self.topology.bfs_layers(source, operational_only=True))

    def managers_correct(
        self,
        live_controllers: Optional[List[str]] = None,
        live_switches: Optional[List[str]] = None,
    ) -> bool:
        """Condition 2 (plus stale cleanup): every live switch is managed by
        exactly the live controllers."""
        if live_controllers is None:
            live_controllers = self.live_controllers()
        if live_switches is None:
            live_switches = self.live_switches()
        expected = set(live_controllers)
        for sid in live_switches:
            if set(self.switches[sid].managers.members()) != expected:
                return False
        return True

    def no_stale_rules(
        self,
        live_controllers: Optional[List[str]] = None,
        live_switches: Optional[List[str]] = None,
    ) -> bool:
        """Rules of failed/removed controllers are fully cleaned up."""
        if live_controllers is None:
            live_controllers = self.live_controllers()
        if live_switches is None:
            live_switches = self.live_switches()
        live = set(live_controllers)
        for sid in live_switches:
            owners = set(self.switches[sid].table.controllers_present())
            if not owners.issubset(live):
                return False
        return True

    def flows_operational(
        self,
        live_controllers: Optional[List[str]] = None,
        live_switches: Optional[List[str]] = None,
    ) -> bool:
        """Condition 3, fast mode: zero-failure forwarding works both ways
        between every live controller and every live node."""
        if live_controllers is None:
            live_controllers = self.live_controllers()
        if live_switches is None:
            live_switches = self.live_switches()
        carrying = self._sync_verdicts()
        verdicts = self._path_ok
        live_nodes = live_switches + live_controllers
        for cid in live_controllers:
            for node in live_nodes:
                if node == cid:
                    continue
                for pair in ((cid, node), (node, cid)):
                    verdict = verdicts.get(pair) if carrying else None
                    if verdict is None:
                        verdict = self._path(pair[0], pair[1]) is not None
                        if carrying:
                            verdicts[pair] = verdict
                    if not verdict:
                        return False
        return True

    def flows_resilient(
        self,
        live_controllers: Optional[List[str]] = None,
        live_switches: Optional[List[str]] = None,
    ) -> bool:
        """Condition 3, full mode: κ-failure resilience, exhaustive for the
        experiment's κ."""
        if live_controllers is None:
            live_controllers = self.live_controllers()
        if live_switches is None:
            live_switches = self.live_switches()
        carrying = self._sync_verdicts()
        kappa = self._achievable_kappa()
        if kappa != self._resilient_kappa:
            # A connectivity change can flip resilience either way (a κ
            # drop makes a previously-failing flow pass); carried verdicts
            # computed under the old κ are void wholesale.
            self._resilient_ok.clear()
            self._resilient_kappa = kappa
        verdicts = self._resilient_ok
        live_nodes = live_switches + live_controllers
        for cid in live_controllers:
            for node in live_nodes:
                if node == cid:
                    continue
                verdict = verdicts.get((cid, node)) if carrying else None
                if verdict is None:
                    verdict = flow_is_resilient(
                        self.topology,
                        self.switches,
                        cid,
                        node,
                        kappa,
                        cache=self.route_cache,
                    )
                    if carrying:
                        verdicts[(cid, node)] = verdict
                if not verdict:
                    return False
        return True

    def _achievable_kappa(self) -> int:
        """After permanent failures the live topology may no longer be
        (κ+1)-edge-connected; Lemma 7/8 then only promise κ̃ < κ resilience.
        Memoized per topology version — the edge-connectivity max-flow is
        the single most expensive sub-check of a full probe."""
        version = self.topology.version
        if self._kappa_cache is not None and self._kappa_cache[0] == version:
            return self._kappa_cache[1]
        live = self._live_subgraph()
        connectivity = live.edge_connectivity()
        value = max(0, min(self.kappa, connectivity - 1))
        self._kappa_cache = (version, value)
        return value

    def _live_subgraph(self) -> Topology:
        version = self.topology.version
        if self._live_cache is not None and self._live_cache[0] == version:
            return self._live_cache[1]
        live = self.topology.copy()
        for node in list(live.nodes):
            if not live.node_is_up(node):
                live.remove_node(node)
        for u, v in live.failed_links():
            live.remove_link(u, v)
        self._live_cache = (version, live)
        return live

    # -- aggregate ------------------------------------------------------------------

    def is_legitimate(self, full: bool = False) -> bool:
        live_controllers = self.live_controllers()
        if not live_controllers:
            return False
        live_switches = self.live_switches()
        checks = (
            self.views_accurate(live_controllers)
            and self.managers_correct(live_controllers, live_switches)
            and self.no_stale_rules(live_controllers, live_switches)
            and self.flows_operational(live_controllers, live_switches)
        )
        if not checks:
            return False
        if full:
            return self.flows_resilient(live_controllers, live_switches)
        return True


__all__ = [
    "LegitimacyChecker",
    "RouteCache",
    "WalkTrace",
    "forwarding_path",
    "flow_is_resilient",
]
