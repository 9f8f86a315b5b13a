"""Rule generation — the paper's ``myRules(G, j, tag)`` interface.

Given the controller's accumulated topology view ``G`` (built from query
replies), :class:`RuleGenerator` computes the κ-fault-resilient flows from
the controller to every reachable node and materializes them as per-switch
:class:`~repro.switch.flow_table.Rule` sets, tagged with the current
synchronization round.

The plan is cached per view *content* (nodes, node kinds, links): Algorithm 2
refreshes rules on *every* iteration of the do-forever loop, but the
underlying flows change only when the discovered topology does.  The round
tag is a label on the whole plan, not a field of it: each switch's rules
are one immutable :class:`~repro.switch.flow_table.RulePlan` (untagged
rules plus their keys) that is handed out again, as the same object, for
as long as the view stands, and the tag travels once per ``updateRule``
batch.  Stamped copies are made only for callers that ask for them
(:meth:`RuleGenerator.my_rules`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.net.topology import Topology, TopologyIndex, NodeKind
from repro.flows.failover import plan_flow_rules, HopRule
from repro.switch.flow_table import Rule, RulePlan
from repro.switch.commands import QueryReply
from repro.core.tags import Tag


def build_view(
    owner: str,
    own_neighbors: Iterable[str],
    replies: Iterable[QueryReply],
    controller_ids: Optional[Set[str]] = None,
) -> Topology:
    """Construct the topology view ``G(S)`` of Algorithm 2 (line 4).

    Nodes: every reply's sender and every reported neighbour.  Edges: the
    union of reported adjacencies (plus the owner's own neighbourhood).
    Nodes whose kind is unknown (seen only as neighbours) are treated as
    switches — they cannot be managed until they reply anyway.
    """
    view = Topology()
    kinds: Dict[str, NodeKind] = {owner: NodeKind.CONTROLLER}
    adjacency: Dict[str, Set[str]] = {owner: set(own_neighbors)}
    for reply in replies:
        kind = NodeKind.CONTROLLER if reply.kind == "controller" else NodeKind.SWITCH
        kinds[reply.node] = kind
        adjacency.setdefault(reply.node, set()).update(reply.neighbors)
    if controller_ids:
        for cid in controller_ids:
            kinds.setdefault(cid, NodeKind.CONTROLLER)

    all_nodes: Set[str] = set(adjacency)
    for neighbors in list(adjacency.values()):
        all_nodes.update(neighbors)
    for node in sorted(all_nodes):
        view.add_node(node, kinds.get(node, NodeKind.SWITCH))
    seen: Set[FrozenSet[str]] = set()
    for node, neighbors in adjacency.items():
        for peer in neighbors:
            if peer == node:
                continue
            key = frozenset((node, peer))
            if key in seen:
                continue
            seen.add(key)
            view.add_link(node, peer)
    return view


class RuleGenerator:
    """Cached ``myRules`` for one controller.

    The cache is derived state, never protocol state: it holds the plan of
    the last view asked about and is always reconstructible from the view.
    :meth:`invalidate` drops it, and everything that rewrites a
    controller's volatile state (``recover()``, the corruption hooks) calls
    that.
    """

    def __init__(self, owner: str, kappa: int) -> None:
        self.owner = owner
        self.kappa = kappa
        # The structure snapshot of the view the cached rules were planned
        # on.  A TopologyIndex carries exactly what the planner reads —
        # names, switch mask (node kinds), adjacency masks — and a Topology
        # hands out the same snapshot until its structure changes, so the
        # common lookup is an identity check.
        self._planned: Optional[TopologyIndex] = None
        self._cache: Dict[str, RulePlan] = {}
        self.computations = 0

    def rules_for_view(self, view: Topology, tag: Optional[Tag] = None) -> Dict[str, Tuple[Rule, ...]]:
        """Per-switch rules realizing κ-fault-resilient flows from the owner
        to every node reachable in ``view``; each (match, priority, action)
        once per switch.  Without ``tag``: the cached, untagged plans
        themselves — the same objects until the view's content changes.
        With ``tag``: copies stamped with it."""
        index = view.index()
        planned = self._planned
        if index is not planned:
            if (
                planned is None
                or index.switch_mask != planned.switch_mask
                or index.names != planned.names
                or index.adj_masks != planned.adj_masks
            ):
                self._cache = self._plan(view)
            self._planned = index
        if tag is None:
            return self._cache
        return {
            switch: tuple(rule.with_tag(tag) for rule in plan)
            for switch, plan in self._cache.items()
        }

    def _plan(self, view: Topology) -> Dict[str, RulePlan]:
        self.computations += 1
        per_switch: Dict[str, List[Rule]] = {}
        if self.owner in view:
            reachable = view.bfs_layers(self.owner)
            for target in sorted(reachable):
                if target == self.owner:
                    continue
                for hop_rule in plan_flow_rules(view, self.owner, target, self.kappa):
                    if not view.is_switch(hop_rule.switch):
                        continue  # controllers do not hold forwarding rules
                    per_switch.setdefault(hop_rule.switch, []).append(
                        self._materialize(hop_rule)
                    )
        # Deduplicated, one switch at a time so only one switch's key dict
        # is alive at once: two flows may share a hop with the same (match,
        # priority, action); the later rule wins, in first-seen order.
        # Keys the previous plan already had are reused as objects (tables
        # keep the key objects they were first given).
        plans: Dict[str, RulePlan] = {}
        for switch, rules in per_switch.items():
            previous = self._cache.get(switch)
            known = {key: key for key in previous.keys} if previous is not None else {}
            unique: Dict[Tuple, Rule] = {}
            for rule in rules:
                key = rule.key()
                unique[known.get(key, key)] = rule
            plans[switch] = RulePlan(unique.values(), unique)
        return plans

    def my_rules(self, view: Topology, switch: str, tag: Tag) -> List[Rule]:
        """The paper's ``myRules(G, j, tag)``: the owner's rules at one
        switch, each (match, priority, action) once, stamped ``tag``."""
        return [rule.with_tag(tag) for rule in self.rules_for_view(view).get(switch, ())]

    def _materialize(self, hop_rule: HopRule) -> Rule:
        return Rule(
            cid=self.owner,
            sid=hop_rule.switch,
            src=hop_rule.src,
            dst=hop_rule.dst,
            priority=hop_rule.priority,
            forward_to=hop_rule.forward_to,
            detour=hop_rule.detour,
            detour_start=hop_rule.detour_start,
        )

    def invalidate(self) -> None:
        self._planned = None
        self._cache = {}


__all__ = ["build_view", "RuleGenerator"]
