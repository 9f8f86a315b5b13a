"""Differential oracle for the rule planner's search kernel.

``flows.failover`` is the hottest code of a bootstrap and the next thing
to be rewritten (shared searches, ROADMAP item 2).  The reference below is
the planner — ``_bfs_avoiding``, ``_detour_path``, ``_directed_rules`` —
frozen verbatim from the code as it was before the kernel was tightened;
seeded views drive both and every path and rule list must be list-equal.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

import pytest

from repro.flows import failover
from repro.flows.failover import PRIMARY_PRIORITY, HopRule
from repro.net.topologies import attach_controllers
from repro.net.topology import EdgeId, NodeId, Topology, edge
from repro.scenarios.generators import parse_topology

#: ≥ 30 seeded views (ROADMAP item 7a, planner half).
SEEDS = range(32)
SPECS = ["ring:9", "grid:3x4", "fattree:4", "jellyfish:14", "jellyfish:24"]


# -- the frozen reference -------------------------------------------------------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_bfs_avoiding(
    view: Topology,
    start: NodeId,
    dst: NodeId,
    failed_edges: Set[EdgeId],
    avoid_nodes: Set[NodeId],
) -> Optional[List[NodeId]]:
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
    relay_mask = index.switch_mask | (1 << src_i)
    parent: Dict[int, int] = {src_i: src_i}
    seen = (1 << src_i) | avoid_mask
    frontier = [src_i]
    found = False
    while frontier and not found:
        next_frontier: List[int] = []
        for u in frontier:
            if not (relay_mask >> u) & 1:
                continue
            mask = adj_masks[u] & ~seen
            if excluded is not None and u in excluded:
                mask &= ~excluded[u]
            for v in _bits(mask):
                seen |= 1 << v
                parent[v] = u
                next_frontier.append(v)
                if v == dst_i:
                    found = True
        frontier = next_frontier
    if dst_i not in parent:
        return None
    path_i = [dst_i]
    while path_i[-1] != src_i:
        path_i.append(parent[path_i[-1]])
    path_i.reverse()
    return [names[i] for i in path_i]


def reference_detour_path(
    view: Topology,
    start: NodeId,
    dst: NodeId,
    failed_edges: Set[EdgeId],
    avoid_nodes: Set[NodeId],
) -> Optional[List[NodeId]]:
    strict = reference_bfs_avoiding(view, start, dst, failed_edges, avoid_nodes)
    if strict is not None:
        return strict
    return reference_bfs_avoiding(view, start, dst, failed_edges, set())


def reference_directed_rules(
    view: Topology, src: NodeId, dst: NodeId, kappa: int
) -> List[HopRule]:
    primary = reference_bfs_avoiding(view, src, dst, set(), set())
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
        detour = reference_detour_path(view, x, dst, failed, prefix)
        if detour is None:
            continue
        priority = PRIMARY_PRIORITY - 1 - idx
        if priority <= 0:
            break
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


def reference_plan_flow_rules(
    view: Topology, source: NodeId, target: NodeId, kappa: int
) -> List[HopRule]:
    return reference_directed_rules(view, source, target, kappa) + reference_directed_rules(
        view, target, source, kappa
    )


# -- seeded views ---------------------------------------------------------------


def _view(seed: int, rng: random.Random) -> Topology:
    """A generator topology with controllers wired in as *interior* nodes
    (several switch neighbours each, so shortest paths would cross them if
    controllers relayed) and, sometimes, a part cut off from the rest."""
    view = parse_topology(rng.choice(SPECS), seed=seed)
    controllers = attach_controllers(view, rng.choice([1, 2, 3]), seed=seed)
    switches = sorted(view.switches)
    for cid in controllers:
        for peer in rng.sample(switches, rng.randint(1, 3)):
            if peer not in view.neighbors(cid):
                view.add_link(cid, peer)
    if rng.random() < 0.4:  # unreachable targets
        island = rng.sample(switches, 2)
        for node in island:
            for peer in list(view.neighbors(node)):
                if peer not in island:
                    view.remove_link(node, peer)
    return view


@pytest.mark.parametrize("seed", SEEDS)
def test_search_kernel_equals_frozen_reference(seed):
    rng = random.Random(seed)
    view = _view(seed, rng)
    nodes = sorted(view.nodes)
    links = sorted(tuple(sorted(link)) for link in view.links)
    for _ in range(120):
        start, dst = rng.choice(nodes), rng.choice(nodes)
        if rng.random() < 0.1:
            dst = start
        failed = {edge(*link) for link in rng.sample(links, rng.choice([0, 0, 1, 2, 4]))}
        avoid = set(rng.sample(nodes, rng.choice([0, 0, 1, 3])))
        if rng.random() < 0.1:
            avoid.add("not-in-the-view")
        args = (view, start, dst, failed, avoid)
        assert failover._bfs_avoiding(*args) == reference_bfs_avoiding(*args), args[1:]
        assert failover._detour_path(*args) == reference_detour_path(*args), args[1:]


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_flow_rules_equals_frozen_reference(seed):
    rng = random.Random(seed)
    view = _view(seed, rng)
    nodes = sorted(view.nodes)
    controllers = sorted(view.controllers)
    for kappa in (0, 1, 2):
        for source in controllers[:2]:
            for target in nodes:
                assert failover.plan_flow_rules(
                    view, source, target, kappa
                ) == reference_plan_flow_rules(view, source, target, kappa), (source, target, kappa)
        for _ in range(10):  # switch-to-switch pairs, as the tenant planner asks
            source, target = rng.choice(nodes), rng.choice(nodes)
            assert failover._directed_rules(
                view, source, target, kappa
            ) == reference_directed_rules(view, source, target, kappa), (source, target, kappa)
