"""Tenant routing: ECMP path enumeration + multipath rule installation.

Two halves:

* :func:`ecmp_paths` resolves the data-plane routes a header can take
  through the *installed* switch tables — a branching variant of
  :func:`repro.switch.forwarding.next_hop` that follows **every**
  applicable top-priority rule instead of the deterministic first one.
  Equal-priority primary rules with different out-ports coexist in a
  table (a rule's identity includes its action), which is exactly the
  OpenFlow *select*-group semantics ECMP needs.

* :class:`TenantFlows` plans and installs those rule sets for a
  workload's host pairs: up to ``ecmp`` equal-cost shortest paths at
  ``PRIMARY_PRIORITY`` plus the κ-failover detours of the first path.
  Tenant rules are owned by their **ingress switch** — always discovered
  reachable — so Renaissance's stale-owner cleanup (controllers delete
  rules whose owner left the network) never garbage-collects live tenant
  state in composed control-plane runs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.flows.failover import PRIMARY_PRIORITY, _directed_rules
from repro.net.topology import NodeId, Topology
from repro.switch.abstract_switch import AbstractSwitch
from repro.switch.flow_table import Rule

Path = Tuple[NodeId, ...]


def ecmp_paths(
    topology: Topology,
    switches: Dict[str, AbstractSwitch],
    src: NodeId,
    dst: NodeId,
    max_paths: int = 4,
    ttl: int = 64,
) -> List[Path]:
    """Every route ``src → dst`` packets can take through the installed
    tables, branching over equal-top-priority applicable rules (ECMP
    ties), up to ``max_paths``.  Mirrors ``next_hop``'s resolution order:
    direct-neighbour relay, own-detour rules, primaries, detour starts.
    """
    results: List[Path] = []

    def walk(
        node: NodeId, stamp: Optional[int], visited: Set[NodeId], path: List[NodeId]
    ) -> None:
        if len(results) >= max_paths or len(path) > ttl:
            return
        usable = topology.operational_neighbor_set(node)
        if dst in usable:
            results.append(tuple(path + [dst]))
            return
        switch = switches.get(node)
        if switch is None:
            return
        matches = switch.table.matching(src, dst)
        applicable = [
            r
            for r in matches
            if r.forward_to in usable and r.forward_to not in visited
        ]
        branches: List[Tuple[NodeId, Optional[int]]] = []
        if stamp is not None:
            own = [r for r in applicable if r.detour == stamp]
            if own:
                top = own[0].priority
                branches = [(r.forward_to, stamp) for r in own if r.priority == top]
        if not branches:
            primaries = [r for r in applicable if r.detour is None]
            if primaries:
                top = primaries[0].priority
                branches = [
                    (r.forward_to, None) for r in primaries if r.priority == top
                ]
            else:
                starts = [r for r in applicable if r.detour_start]
                if starts:
                    top = starts[0].priority
                    branches = [
                        (r.forward_to, r.detour) for r in starts if r.priority == top
                    ]
        seen: Set[NodeId] = set()
        for hop, new_stamp in branches:
            if hop in seen:
                continue
            seen.add(hop)
            walk(hop, new_stamp, visited | {hop}, path + [hop])

    walk(src, None, {src}, [src])
    return results


def equal_cost_paths(
    view: Topology, src: NodeId, dst: NodeId, k: int
) -> List[Path]:
    """Up to ``k`` shortest ``src → dst`` paths of equal length whose
    interior nodes are switches, in deterministic (lexicographic) order —
    the path set ECMP primaries are installed for."""
    dist: Dict[NodeId, int] = {dst: 0}
    frontier = deque([dst])
    while frontier:
        u = frontier.popleft()
        if u != dst and not view.is_switch(u):
            continue  # only switches relay onward
        for v in sorted(view.operational_neighbor_set(u)):
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    if src not in dist:
        return []
    paths: List[Path] = []
    acc: List[NodeId] = [src]

    def dfs(u: NodeId) -> None:
        if len(paths) >= k:
            return
        if u == dst:
            paths.append(tuple(acc))
            return
        for v in sorted(view.operational_neighbor_set(u)):
            if dist.get(v) != dist[u] - 1:
                continue
            if v != dst and not view.is_switch(v):
                continue
            acc.append(v)
            dfs(v)
            acc.pop()

    dfs(src)
    return paths


class TenantFlows:
    """Installs and repairs the tenant rule sets for a set of host pairs.

    Plays the role the transport layer's ``FlowMaintainer`` plays for a
    single Iperf pair, scaled to the workload's pair set and extended
    with ECMP: each pair gets up to ``ecmp`` equal-cost primary paths at
    the same priority (flows hash-split across them) and the κ-failover
    detours of the first path.  ``install()`` is also the repair
    operation — it replans against the live (failed-link-free) view.
    """

    def __init__(
        self,
        topology: Topology,
        switches: Dict[str, AbstractSwitch],
        pairs: Sequence[Tuple[NodeId, NodeId]],
        kappa: int = 1,
        ecmp: int = 4,
    ) -> None:
        self.topology = topology
        self.switches = switches
        self.pairs = list(dict.fromkeys(pairs))  # dedupe, keep order
        self.kappa = kappa
        self.ecmp = max(1, ecmp)
        self._base_max_rules: Dict[str, int] = {}
        # owner -> the switches its rules went to at the last install.
        self._holders: Dict[str, List[str]] = {}

    # -- planning --------------------------------------------------------------

    def _live_view(self) -> Topology:
        live = self.topology.copy()
        for u, v in live.failed_links():
            live.remove_link(u, v)
        return live

    def plan(self) -> Dict[str, Dict[str, List[Rule]]]:
        """``owner → switch → rules`` for the current live topology."""
        view = self._live_view()
        per: Dict[str, Dict[str, List[Rule]]] = {}

        def put(owner: str, rule: Rule) -> None:
            per.setdefault(owner, {}).setdefault(rule.sid, []).append(rule)

        for src, dst in self.pairs:
            owner = src  # reachable-node ownership; see module docstring
            seen_keys: Set[tuple] = set()
            for hop_rule in _directed_rules(view, src, dst, self.kappa):
                rule = Rule(
                    cid=owner,
                    sid=hop_rule.switch,
                    src=src,
                    dst=dst,
                    priority=hop_rule.priority,
                    forward_to=hop_rule.forward_to,
                    detour=hop_rule.detour,
                    detour_start=hop_rule.detour_start,
                )
                key = rule.key()
                if key not in seen_keys:
                    seen_keys.add(key)
                    put(owner, rule)
            if self.ecmp > 1:
                for path in equal_cost_paths(view, src, dst, self.ecmp):
                    for hop, nxt in zip(path, path[1:]):
                        rule = Rule(
                            cid=owner,
                            sid=hop,
                            src=src,
                            dst=dst,
                            priority=PRIMARY_PRIORITY,  # an ECMP tie
                            forward_to=nxt,
                        )
                        key = rule.key()
                        if key not in seen_keys:
                            seen_keys.add(key)
                            put(owner, rule)
        return per

    # -- installation ----------------------------------------------------------

    def _provision(self, planned_per_switch: Dict[str, int]) -> None:
        """Grow table capacity so tenant rules never fight the control
        plane's clogged-memory eviction: each switch keeps its original
        budget for controller rules plus 2× the planned tenant load."""
        for sid, planned in planned_per_switch.items():
            table = self.switches[sid].table
            base = self._base_max_rules.setdefault(sid, table.max_rules)
            table.max_rules = max(table.max_rules, base + 2 * planned + 8)

    def install(self) -> int:
        """(Re)install the tenant rule sets; returns rules installed."""
        plans = self.plan()
        planned_per_switch: Dict[str, int] = {}
        for per_switch in plans.values():
            for sid, rules in per_switch.items():
                planned_per_switch[sid] = planned_per_switch.get(sid, 0) + len(rules)
        self._provision(planned_per_switch)
        installed = 0
        owners = sorted({src for src, _ in self.pairs})
        for owner in owners:
            per_switch = plans.get(owner, {})
            for sid in sorted(per_switch):
                self.switches[sid].table.replace_rules_of(owner, per_switch[sid])
                installed += len(per_switch[sid])
            # Switches no longer on any of this owner's paths lose their
            # stale tenant rules.
            for sid in self._holders.get(owner, ()):
                if sid not in per_switch and sid in self.switches:
                    self.switches[sid].table.delete_rules_of(owner)
            self._holders[owner] = list(per_switch)
        return installed

    def remove(self) -> None:
        """Delete every tenant rule (end-of-phase cleanup)."""
        for owner, holders in self._holders.items():
            for sid in holders:
                if sid in self.switches:
                    self.switches[sid].table.delete_rules_of(owner)
        self._holders = {}


__all__ = ["TenantFlows", "ecmp_paths", "equal_cost_paths"]
