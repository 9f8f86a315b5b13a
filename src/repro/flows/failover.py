"""Conditional forwarding plans with local fast failover.

The paper realizes κ-fault-resilient flows with conditional forwarding
rules in the style of OpenFlow fast-failover groups [6]: when a switch's
primary out-link is down it locally falls back to a lower-priority rule,
without waiting for the controller.

For a flow ``src → dst`` we install:

* the **primary** rules along the first shortest path ``P0`` at
  ``PRIMARY_PRIORITY``;
* for each directed edge ``(x, y)`` at index ``i`` of ``P0``, a **detour**
  from the *detecting* switch ``x`` to ``dst``, computed in the graph
  without ``(x, y)`` and (when possible) without the strict prefix
  ``P0[:i]`` — so the detour cannot be hijacked by a pre-failure primary
  rule — at priority ``PRIMARY_PRIORITY - 1 - i``.

A detour may rejoin ``P0`` *after* the failed edge; there the primary
(higher-priority, operational) rules take over, which is sound for a
single failure because the suffix past the failed edge is intact.  This
construction is exact for κ = 1 — the κ the paper's prototype evaluates —
and best-effort beyond (deeper failures fall back through remaining
detour priorities and are ultimately bounded by the packet TTL).

Each direction of a flow is planned independently (``dst → src`` runs the
same construction on swapped endpoints), giving the bidirectional packet
exchange the paper's flow definition requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.net.topology import Topology, NodeId, EdgeId, edge

#: Priority of primary-path rules; detours descend from it.  Far above the
#: meta-rule's priority 0, leaving room for diameter-many detour levels.
PRIMARY_PRIORITY = 1_000


@dataclass(frozen=True, slots=True)
class HopRule:
    """One forwarding entry to install at ``switch``: matches header
    ``(src, dst)``, forwards to adjacent ``forward_to`` when that link is
    operational.  Larger ``priority`` wins.

    ``detour`` identifies which per-edge detour the rule belongs to (None
    for primary rules); ``detour_start`` marks the detecting switch where
    packets are stamped onto the detour (see
    :class:`repro.switch.flow_table.Rule`)."""

    switch: NodeId
    src: NodeId
    dst: NodeId
    forward_to: NodeId
    priority: int
    detour: Optional[int] = None
    detour_start: bool = False


def _directed_rules(
    view: Topology, src: NodeId, dst: NodeId, kappa: int
) -> List[HopRule]:
    """Primary + per-edge detour rules for packets ``src → dst``."""
    primary = _bfs_avoiding(view, src, dst, set(), set())
    if primary is None:
        return []
    rules: List[HopRule] = []
    for hop, nxt in zip(primary, primary[1:]):
        rules.append(
            HopRule(switch=hop, src=src, dst=dst, forward_to=nxt, priority=PRIMARY_PRIORITY)
        )
    if kappa < 1:
        return rules

    for idx in range(len(primary) - 1):
        x, y = primary[idx], primary[idx + 1]
        failed = {edge(x, y)}
        prefix = set(primary[:idx])  # strictly before the detecting node
        detour = _detour_path(view, x, dst, failed, prefix)
        if detour is None:
            continue
        priority = PRIMARY_PRIORITY - 1 - idx
        if priority <= 0:
            break
        # The stamping point is the first *switch* of the detour: when the
        # detour starts at the (non-forwarding) source controller, packets
        # are stamped at the first switch they reach instead.
        start_hop = detour[0] if view.is_switch(detour[0]) else (
            detour[1] if len(detour) > 1 else detour[0]
        )
        for hop, nxt in zip(detour, detour[1:]):
            rules.append(
                HopRule(
                    switch=hop,
                    src=src,
                    dst=dst,
                    forward_to=nxt,
                    priority=priority,
                    detour=idx,
                    detour_start=(hop == start_hop),
                )
            )
    return rules


def _detour_path(
    view: Topology,
    start: NodeId,
    dst: NodeId,
    failed_edges: Set[EdgeId],
    avoid_nodes: Set[NodeId],
) -> Optional[List[NodeId]]:
    """Shortest start→dst path avoiding the failed edge(s), preferring one
    that also avoids the primary prefix (hijack-free); falls back to
    edge-avoidance only."""
    strict = _bfs_avoiding(view, start, dst, failed_edges, avoid_nodes)
    if strict is not None:
        return strict
    return _bfs_avoiding(view, start, dst, failed_edges, set())


def _bfs_avoiding(
    view: Topology,
    start: NodeId,
    dst: NodeId,
    failed_edges: Set[EdgeId],
    avoid_nodes: Set[NodeId],
) -> Optional[List[NodeId]]:
    """First shortest start→dst path whose *interior* nodes are switches —
    controllers only forward to/from themselves, never relay (Section 2:
    switches are the packet-forwarding elements).

    Runs on the view's interned bitmask adjacency: the rule planner calls
    this for every primary path *and* every per-edge detour of every flow,
    which makes it the single hottest loop of a bootstrap.  Frontier nodes
    are expanded in discovery order and neighbours visited in ascending
    index (= sorted-name) order, reproducing the legacy FIFO/sorted BFS
    parent assignments exactly.
    """
    if start in avoid_nodes or dst in avoid_nodes:
        return None
    index = view.index()
    idx = index.idx
    names = index.names
    adj_masks = index.adj_masks
    src_i, dst_i = idx[start], idx[dst]
    if src_i == dst_i:
        return [start]
    avoid_mask = 0
    for node in avoid_nodes:
        i = idx.get(node)
        if i is not None:
            avoid_mask |= 1 << i
    excluded = Topology._excluded_masks(index, failed_edges)
    # Only switches relay; the start node forwards its own packets.
    relay_mask = index.switch_mask | (1 << src_i)
    parent: Dict[int, int] = {src_i: src_i}
    seen = (1 << src_i) | avoid_mask
    dst_bit = 1 << dst_i
    frontier = [src_i]
    while dst_i not in parent:
        if not frontier:
            return None
        next_frontier: List[int] = []
        for u in frontier:
            if not (relay_mask >> u) & 1:
                continue
            mask = adj_masks[u] & ~seen
            if excluded is not None and u in excluded:
                mask &= ~excluded[u]
            if mask & dst_bit:
                # First discovery fixes dst's parent, and every ancestor's
                # was fixed a layer earlier: the layer need not be finished.
                parent[dst_i] = u
                break
            seen |= mask
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                mask ^= low
                parent[v] = u
                next_frontier.append(v)
        frontier = next_frontier
    path_i = [dst_i]
    while path_i[-1] != src_i:
        path_i.append(parent[path_i[-1]])
    path_i.reverse()
    return [names[i] for i in path_i]


def plan_flow_rules(
    view: Topology, source: NodeId, target: NodeId, kappa: int
) -> List[HopRule]:
    """Bidirectional κ-fault-resilient rule plan between two endpoints."""
    forward = _directed_rules(view, source, target, kappa)
    backward = _directed_rules(view, target, source, kappa)
    return forward + backward


def rules_by_switch(rules: List[HopRule]) -> Dict[NodeId, List[HopRule]]:
    grouped: Dict[NodeId, List[HopRule]] = {}
    for rule in rules:
        grouped.setdefault(rule.switch, []).append(rule)
    return grouped


__all__ = ["HopRule", "PRIMARY_PRIORITY", "plan_flow_rules", "rules_by_switch"]
