"""Differential oracles for the "nothing changed" fast paths.

Two caches sit between Algorithm 2's every-iteration refresh and the work
it used to repeat: :class:`RuleGenerator` keeps the last view's plan and
hands it out again whatever the round tag, and
:meth:`FlowTable.replace_rules_of` turns the refresh of a resident
generation into one O(1) relabelling whose per-rule effects are derived
lazily.  Both claim *exact* equivalence with the slow path they replaced.
The references below are those slow paths, frozen from the code as it was
before the fast paths existed; seeded random sequences drive both sides
and compare everything observable after every step.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import pytest

from repro.core.config import RenaissanceConfig
from repro.core.controller import RenaissanceController
from repro.core.tags import Tag
from repro.flows.failover import plan_flow_rules
from repro.net.topologies import attach_controllers
from repro.net.topology import NodeKind, Topology
from repro.scenarios.generators import parse_topology
from repro.switch.abstract_switch import AbstractSwitch
from repro.switch.flow_table import (
    META_PRIORITY,
    FlowTable,
    Rule,
    RulePlan,
    _keys_of,
    tag_summary,
)

#: ≥ 25 seeded sequences per oracle (ROADMAP item 5a).
SEEDS = range(30)


# -- (a) RuleGenerator vs the uncached myRules ---------------------------------


def reference_rules(
    owner: str, kappa: int, view: Topology, tag: Tag
) -> Dict[str, List[Rule]]:
    """Frozen reference: the uncached ``rules_for_view`` body followed by
    ``my_rules``' per-switch de-duplication (later rule wins, first-seen
    order), planned from scratch on every call."""
    per_switch: Dict[str, List[Rule]] = {}
    if owner in view:
        for target in sorted(view.bfs_layers(owner)):
            if target == owner:
                continue
            for hop in plan_flow_rules(view, owner, target, kappa):
                if not view.is_switch(hop.switch):
                    continue
                per_switch.setdefault(hop.switch, []).append(
                    Rule(
                        cid=owner,
                        sid=hop.switch,
                        src=hop.src,
                        dst=hop.dst,
                        priority=hop.priority,
                        forward_to=hop.forward_to,
                        tag=tag,
                        detour=hop.detour,
                        detour_start=hop.detour_start,
                    )
                )
    deduplicated: Dict[str, List[Rule]] = {}
    for switch, rules in per_switch.items():
        unique: Dict[Tuple, Rule] = {}
        for rule in rules:
            unique[rule.key()] = rule
        deduplicated[switch] = list(unique.values())
    return deduplicated


class ViewModel:
    """Ground truth a view is (re)built from: node kinds and links."""

    def __init__(self, topology: Topology) -> None:
        self.kinds: Dict[str, NodeKind] = {n: topology.kind(n) for n in topology.nodes}
        self.links: Set[FrozenSet[str]] = {frozenset(l) for l in topology.links}
        self.fresh_ids = 0

    def build(self) -> Topology:
        view = Topology()
        for node in sorted(self.kinds):
            view.add_node(node, self.kinds[node])
        for u, v in sorted(tuple(sorted(l)) for l in self.links):
            view.add_link(u, v)
        return view

    def content(self) -> Tuple:
        return (
            tuple(sorted((n, k.value) for n, k in self.kinds.items())),
            tuple(sorted(tuple(sorted(l)) for l in self.links)),
        )


def _mutate(model: ViewModel, view: Topology, owner: str, rng: random.Random) -> Topology:
    """Apply one random content change; link changes sometimes mutate the
    live view object in place (same object, new version)."""
    others = [n for n in sorted(model.kinds) if n != owner]
    kind = rng.choice(["add_link", "remove_link", "add_node", "remove_node", "flip", "flip"])
    in_place = rng.random() < 0.5
    if kind == "add_link":
        u, v = rng.sample(sorted(model.kinds), 2)
        if frozenset((u, v)) in model.links:
            return view
        model.links.add(frozenset((u, v)))
        if in_place:
            view.add_link(u, v)
            return view
    elif kind == "remove_link" and model.links:
        u, v = sorted(rng.choice(sorted(model.links, key=sorted)))
        model.links.discard(frozenset((u, v)))
        if in_place:
            view.remove_link(u, v)
            return view
    elif kind == "add_node":
        model.fresh_ids += 1
        node = f"zx{model.fresh_ids}"
        model.kinds[node] = rng.choice([NodeKind.SWITCH, NodeKind.SWITCH, NodeKind.CONTROLLER])
        for peer in rng.sample(others, min(2, len(others))):
            model.links.add(frozenset((node, peer)))
    elif kind == "remove_node" and len(others) > 3:
        node = rng.choice(others)
        del model.kinds[node]
        model.links = {l for l in model.links if node not in l}
    elif kind == "flip" and others:
        # Same nodes, same links, one kind changes: a neighbour-only node
        # that replies as a controller.
        node = rng.choice(others)
        model.kinds[node] = (
            NodeKind.CONTROLLER if model.kinds[node] is NodeKind.SWITCH else NodeKind.SWITCH
        )
    return model.build()


@pytest.mark.parametrize("seed", SEEDS)
def test_rule_generator_equals_uncached_reference(seed):
    rng = random.Random(seed)
    topology = parse_topology(rng.choice(["ring:8", "grid:3x3", "jellyfish:12"]), seed=seed)
    owner = attach_controllers(topology, 2, seed=seed)[0]
    kappa = rng.choice([0, 1, 1])
    controller = RenaissanceController(
        owner, RenaissanceConfig(kappa=kappa), alive_neighbors=lambda: []
    )
    generator = controller.rulegen
    tags = [Tag(owner, value) for value in range(4)]
    model = ViewModel(topology)
    view = model.build()
    planned_content = None
    expected_computations = 0

    for _ in range(45):
        action = rng.choice(
            ["same", "same", "rebuild", "mutate", "mutate", "invalidate", "recover"]
        )
        if action == "rebuild":
            view = model.build()  # equal content, a different object
        elif action == "mutate":
            view = _mutate(model, view, owner, rng)
        elif action == "invalidate":
            generator.invalidate()
            planned_content = None
        elif action == "recover":
            controller.recover()
            planned_content = None
        tag = rng.choice(tags)  # repeats and non-monotone jumps included

        expected = reference_rules(owner, kappa, view, tag)
        for switch in view.switches:
            assert generator.my_rules(view, switch, tag) == expected.get(switch, [])
        if model.content() != planned_content:
            expected_computations += 1
            planned_content = model.content()
        # The cache plans exactly when the content changed or it was dropped.
        assert generator.computations == expected_computations


# -- (b) FlowTable.replace_rules_of vs per-rule delete-then-install --------------


class ReferenceTable(FlowTable):
    """Frozen reference ``replace_rules_of``: scan the whole table for the
    owner's stale rules, delete them one by one, then ``install`` every
    rule of the update one by one."""

    def replace_rules_of(self, cid: str, new_rules: Iterable[Rule], tag: object = None) -> None:
        # A batch tag is the same as that tag on every rule of the batch.
        incoming = [rule if tag is None else rule.with_tag(tag) for rule in new_rules]
        for rule in incoming:
            if rule.cid != cid:
                raise ValueError(f"rule owned by {rule.cid} in update for {cid}")
            if rule.sid != self.sid:
                raise ValueError(f"rule for switch {rule.sid} offered to {self.sid}")
        keep = {rule.key() for rule in incoming}
        for key in [
            k
            for k, r in self._rules.items()
            if r.cid == cid and not r.is_meta and k not in keep
        ]:
            self._delete_key(key)
        for rule in incoming:
            self.install(rule)


SID = "s0"
OWNERS = ["c0", "c1", "c2"]
ENDPOINTS = ["c0", "c1", "c2", "s1", "s2", "s3"]
PORTS = ["p1", "p2"]
HEADERS = [(s, d) for s in ENDPOINTS for d in ENDPOINTS]


def _random_rule(rng: random.Random, cid: str, plan: List[Rule] = ()) -> Rule:
    """A rule for ``cid``; half the time a twin of one already in ``plan``
    — same header, priority and port, another detour stamp — so the two
    tie on matching()'s whole sort key and only bucket order separates
    them."""
    detour = rng.choice([None, 0, 1, 2, 3])
    start = detour is not None and rng.random() < 0.4
    if plan and rng.random() < 0.5:
        return replace(rng.choice(plan), cid=cid, detour=detour, detour_start=start)
    return Rule(
        cid=cid,
        sid=SID,
        src=rng.choice(ENDPOINTS[:4]),
        dst=rng.choice(ENDPOINTS[2:]),
        priority=rng.choice([999, 1000]),
        forward_to=rng.choice(PORTS),
        detour=detour,
        detour_start=start,
    )


def _meta(cid: str, tag: object) -> Rule:
    return Rule(cid=cid, sid=SID, src="⊥", dst="⊥", priority=META_PRIORITY,
                forward_to=None, tag=tag)


def _stamps(table: FlowTable) -> Dict[Tuple, int]:
    """Least-recently-updated stamps as the next eviction must see them,
    derived without settling anything in the table itself."""
    stamps = dict(table._touched)
    for gen in table._generations.values():
        if not gen.stamped:
            stamps.update(zip(gen.keys, range(gen.base, gen.base + len(gen.keys))))
    return stamps


def _forwarding(rules: List[Rule]) -> List[Tuple]:
    """What the data path reads of a matching() result (never the tag)."""
    return [(rule.key(), rule.sid, rule.detour_start) for rule in rules]


def _snapshot(table: FlowTable):
    switch = AbstractSwitch(table.sid, alive_neighbors=lambda: [])
    switch.table = table
    return switch.snapshot()


def _assert_tables_equal(table: FlowTable, reference: FlowTable, events, ref_events) -> None:
    assert table.rules() == reference.rules()  # tags included
    for header in HEADERS + [("⊥", "⊥")]:
        assert _forwarding(table.matching(*header)) == _forwarding(
            reference.matching(*header)
        ), header
    assert table.version == reference.version
    assert events == ref_events
    assert table.evictions == reference.evictions
    assert table.controllers_present() == reference.controllers_present()
    for cid in OWNERS:
        assert table.rules_of(cid) == reference.rules_of(cid)
    reply = _snapshot(table)
    assert reply.owner_tags == tag_summary(reference.rules())
    assert reply.rules == tuple(reference.rules())
    # Not observable yet, but what the next eviction and the next foreign
    # install will act on: the LRU stamps (after settling) and each owner's
    # keys inside every bucket (cross-owner order never reaches matching()).
    assert _stamps(table) == reference._touched
    assert table._by_match.keys() == reference._by_match.keys()
    for header, bucket in table._by_match.items():
        for cid in OWNERS:
            assert [k for k in bucket if k[0] == cid] == [
                k for k in reference._by_match[header] if k[0] == cid
            ], (header, cid)


@pytest.mark.parametrize("seed", SEEDS)
def test_replace_rules_of_equals_per_rule_reference(seed):
    rng = random.Random(seed)
    max_rules = rng.choice([6, 10, 16, 64])  # small: eviction mid-batch
    table, reference = FlowTable(SID, max_rules), ReferenceTable(SID, max_rules)
    events: List[Tuple] = []
    ref_events: List[Tuple] = []
    table.add_version_listener(lambda sid, evs: events.append((sid, evs)))
    reference.add_version_listener(lambda sid, evs: ref_events.append((sid, evs)))
    owners = OWNERS[: rng.choice([2, 3])]
    plans: Dict[str, List[Rule]] = {cid: [] for cid in owners}
    for plan_cid, plan in plans.items():
        for _ in range(rng.randint(2, 7)):
            plan.append(_random_rule(rng, plan_cid, plan))

    def both(operation) -> None:
        operation(table)
        operation(reference)

    for step in range(70):
        tag = ("round", step)
        cid = rng.choice(owners)
        action = rng.choice(
            ["refresh", "refresh", "refresh", "replan", "meta", "garbage",
             "foreign", "delete", "clear"]
        )
        if action in ("refresh", "replan"):
            if action == "replan":
                plan = plans[cid]
                for _ in range(rng.randint(1, 2)):
                    change = rng.choice(["drop", "add", "flip", "twice", "shuffle"])
                    if change == "drop" and plan:
                        plan.pop(rng.randrange(len(plan)))
                    elif change == "add":
                        plan.insert(rng.randint(0, len(plan)), _random_rule(rng, cid, plan))
                    elif change == "flip" and plan:
                        i = rng.randrange(len(plan))
                        if plan[i].detour is not None:
                            plan[i] = replace(plan[i], detour_start=not plan[i].detour_start)
                    elif change == "twice" and plan:
                        plan.append(rng.choice(plan))  # one key given twice
                    elif change == "shuffle":
                        rng.shuffle(plan)  # same keys, another update order
            batch = [rule.with_tag(tag) for rule in plans[cid]]
            if rng.random() < 0.2:
                batch.append(_meta(cid, tag))  # a meta-rule inside the update
            both(lambda t: t.replace_rules_of(cid, batch))
        elif action == "meta":
            both(lambda t: t.install(_meta(cid, tag)))  # newRound
        elif action == "garbage":
            # Planted under this owner's name, often as the twin of a
            # resident rule: garbage that ties on (priority, cid, forward_to).
            resident = [r for r in table.rules() if not r.is_meta]
            junk = [replace(_random_rule(rng, cid, resident), sid="elsewhere", tag="junk")]
            both(lambda t: t.corrupt_with(junk))
        elif action == "foreign":
            # Another owner's rule on a header this owner's plan uses.
            if plans[cid]:
                other = rng.choice([o for o in OWNERS if o != cid])
                foreign = replace(rng.choice(plans[cid]), cid=other, tag=tag)
                both(lambda t: t.install(foreign))
        elif action == "delete":
            include_meta = rng.random() < 0.5
            both(lambda t: t.delete_rules_of(cid, include_meta=include_meta))
        elif action == "clear" and rng.random() < 0.3:
            both(lambda t: t.clear())
        _assert_tables_equal(table, reference, events, ref_events)


# -- (c) generations: one round tag per (owner, switch) vs a tag on every rule ----


def _log_deletes(table: FlowTable) -> List[Tuple]:
    """Every key the table deletes, evictions included, in order."""
    deleted: List[Tuple] = []
    delete = table._delete_key

    def logged(key: Tuple) -> None:
        deleted.append(key)
        delete(key)

    table._delete_key = logged
    return deleted


def run_generation_sequence(seed: int, table_class=FlowTable) -> FlowTable:
    """Drive ``table_class`` and the per-rule reference through one seeded
    sequence of batch-tagged refreshes and everything that can interrupt
    them, comparing after every step."""
    rng = random.Random(1000 + seed)
    max_rules = rng.choice([7, 12, 18, 64])  # small: evictions between and inside refreshes
    table, reference = table_class(SID, max_rules), ReferenceTable(SID, max_rules)
    events: List[Tuple] = []
    ref_events: List[Tuple] = []
    table.add_version_listener(lambda sid, evs: events.append((sid, evs)))
    reference.add_version_listener(lambda sid, evs: ref_events.append((sid, evs)))
    deleted, ref_deleted = _log_deletes(table), _log_deletes(reference)
    owners = OWNERS[: rng.choice([2, 3, 3])]
    # Owners share headers: controller-pair flows put two owners under one (src, dst).
    shared = [_random_rule(rng, OWNERS[0]) for _ in range(3)]
    plans: Dict[str, Tuple[Rule, ...]] = {}
    for cid in owners:
        plan = [replace(rule, cid=cid) for rule in shared[: rng.randint(1, 3)]]
        for _ in range(rng.randint(1, 4)):
            plan.append(_random_rule(rng, cid, plan))
        plans[cid] = RulePlan(dict.fromkeys(plan))

    def both(operation) -> None:
        operation(table)
        operation(reference)

    for step in range(120):
        tag = ("round", step)
        cid = rng.choice(owners)
        plan = plans[cid]
        action = rng.choice(
            ["same"] * 9
            + ["distinct", "distinct", "permute", "add", "remove", "flip", "mixed", "meta",
               "meta", "garbage", "foreign", "delete", "clear", "limit"]
        )
        if action == "distinct":
            # Equal rules, another tuple: sometimes with its keys, sometimes plain.
            copies = [replace(rule) for rule in plan]
            plan = RulePlan(copies) if rng.random() < 0.5 else tuple(copies)
        elif action == "permute":
            plan = RulePlan(rng.sample(plan, len(plan)))
        elif action == "add":
            rule = _random_rule(rng, cid, list(plan))
            if rule.key() not in _keys_of(plan):
                at = rng.randint(0, len(plan))
                plan = RulePlan(plan[:at] + (rule,) + plan[at:])
        elif action == "remove" and plan:
            at = rng.randrange(len(plan))
            plan = RulePlan(plan[:at] + plan[at + 1:])
        elif action == "flip" and plan:
            at = rng.randrange(len(plan))
            if plan[at].detour is not None:
                flipped = replace(plan[at], detour_start=not plan[at].detour_start)
                plan = RulePlan(plan[:at] + (flipped,) + plan[at + 1:])
        plans[cid] = plan
        if action in ("same", "distinct", "permute", "add", "remove", "flip"):
            both(lambda t: t.replace_rules_of(cid, plan, tag))
        elif action == "mixed":
            # Per-rule tags, two rounds in one batch (the three-tag variant).
            batch = tuple(
                rule.with_tag(tag if i % 2 else ("round", step - 1)) for i, rule in enumerate(plan)
            )
            both(lambda t: t.replace_rules_of(cid, batch))
        elif action == "meta":
            both(lambda t: t.install(_meta(cid, tag)))  # newRound
        elif action == "garbage":
            resident = [r for r in reference.rules() if not r.is_meta]
            junk = [replace(_random_rule(rng, cid, resident), sid="elsewhere", tag="junk")]
            both(lambda t: t.corrupt_with(junk))
        elif action == "foreign" and plan:
            other = rng.choice([o for o in OWNERS if o != cid])
            foreign = replace(rng.choice(plan), cid=other, tag=tag)
            both(lambda t: t.install(foreign))
        elif action == "delete":
            include_meta = rng.random() < 0.5
            both(lambda t: t.delete_rules_of(cid, include_meta=include_meta))
        elif action == "clear" and rng.random() < 0.3:
            both(lambda t: t.clear())
        elif action == "limit":
            # A clogged table, where the next installs evict, or room again.
            clogged = max(3, len(reference) - rng.randint(0, 2))
            table.max_rules = reference.max_rules = rng.choice([clogged, max_rules])
        _assert_tables_equal(table, reference, events, ref_events)
        assert deleted == ref_deleted
    return table


@pytest.mark.parametrize("seed", SEEDS)
def test_generations_equal_per_rule_reference(seed):
    run_generation_sequence(seed)


def test_generation_sequences_reach_the_fast_path_and_the_fallback():
    tables = [run_generation_sequence(seed) for seed in SEEDS]
    assert sum(t.refreshes for t in tables) > 10 * len(tables)
    assert sum(t.evictions for t in tables) > len(tables)
    assert all(t.rule_writes > t.refreshes for t in tables)


def test_shortcut_forced_off_is_still_the_reference(monkeypatch):
    """The O(1) match changes cost, never behaviour."""
    monkeypatch.setattr(FlowTable, "_same_generation", lambda self, gen, rules: False)
    for seed in SEEDS:
        assert run_generation_sequence(seed).refreshes == 0


class _ClockStandsStill(FlowTable):
    def replace_rules_of(self, cid, new_rules, tag=None):
        refreshes, clock = self.refreshes, self._clock
        super().replace_rules_of(cid, new_rules, tag)
        if self.refreshes != refreshes:
            self._clock = clock


class _KeepsTheOldTag(FlowTable):
    def replace_rules_of(self, cid, new_rules, tag=None):
        refreshes, gen = self.refreshes, self._generations.get(cid)
        old = gen.tag if gen is not None else None
        super().replace_rules_of(cid, new_rules, tag)
        if self.refreshes != refreshes:
            gen.tag = old


class _IgnoresDetourStart(FlowTable):
    def _same_generation(self, gen, rules):
        return rules is gen.rules or _keys_of(rules) == gen.keys


class _IgnoresOrder(FlowTable):
    def _same_generation(self, gen, rules):
        return sorted(_keys_of(rules), key=repr) == sorted(gen.keys, key=repr) and all(
            rule.sid == self.sid for rule in rules
        )


class _InstallKeepsTheGeneration(FlowTable):
    def install(self, rule):
        if rule.sid != self.sid:
            raise ValueError("wrong switch")
        self._install(rule.key(), rule)


class _EvictsOnStaleStamps(FlowTable):
    def _evict_one(self):
        victim = min(self._touched, key=self._touched.get)
        self._delete_key(victim)
        self.evictions += 1


@pytest.mark.parametrize(
    "mutant",
    [_ClockStandsStill, _KeepsTheOldTag, _IgnoresDetourStart, _IgnoresOrder,
     _InstallKeepsTheGeneration, _EvictsOnStaleStamps],
)
def test_generation_oracle_catches_a_broken_fast_path(mutant):
    """Six seeded mutations of the fast path: the oracle must bite each."""
    caught = 0
    for seed in SEEDS:
        try:
            run_generation_sequence(seed, mutant)
        except (AssertionError, KeyError, ValueError):
            caught += 1
    assert caught >= 3, f"{mutant.__name__} survived {len(SEEDS) - caught} of {len(SEEDS)} seeds"


@pytest.mark.parametrize("table_class", [FlowTable, ReferenceTable])
def test_replace_rules_of_rejects_wrong_owner_and_wrong_switch(table_class):
    resident = RulePlan([Rule("c0", SID, "c0", "s1", 1000, "p1")])
    for tag in (None, "t2"):  # per-rule tags, and a batch tag over a resident generation
        for bad in (
            Rule("c1", SID, "c0", "s1", 1000, "p1", tag=2),  # wrong cid
            Rule("c0", "s9", "c0", "s1", 1000, "p1", tag=2),  # wrong sid: an equal key sequence
        ):
            table = table_class(SID, 8)
            table.replace_rules_of("c0", resident, "t1")
            before = (table.rules(), table.version, table._clock)
            with pytest.raises(ValueError):
                table.replace_rules_of("c0", [bad], tag)
            assert (table.rules(), table.version, table._clock) == before
