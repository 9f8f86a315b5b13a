"""Unit tests for view building and rule generation (myRules)."""

from repro.core.rules import RuleGenerator, build_view
from repro.core.tags import Tag
from repro.net.topology import NodeKind
from repro.switch.commands import QueryReply


def reply(node, neighbors, kind="switch"):
    return QueryReply(
        node=node, neighbors=tuple(neighbors), managers=(), rules=(), kind=kind
    )


T = Tag("c0", 1)
T2 = Tag("c0", 2)


def test_build_view_nodes_and_edges():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    assert set(view.nodes) == {"c0", "s1", "s2"}
    assert ("s1", "s2") in view.links or ("s2", "s1") in view.links
    assert view.has_link("c0", "s1")


def test_build_view_owner_is_controller():
    view = build_view("c0", [], [])
    assert view.is_controller("c0")


def test_build_view_controller_kind_from_reply():
    view = build_view("c0", ["c1"], [reply("c1", ["c0"], kind="controller")])
    assert view.is_controller("c1")


def test_build_view_unknown_nodes_are_switches():
    view = build_view("c0", ["s1"], [reply("s1", ["mystery"])])
    assert view.is_switch("mystery")


def test_build_view_deduplicates_edges():
    view = build_view(
        "c0", ["s1"], [reply("s1", ["s2"]), reply("s2", ["s1"])]
    )
    assert len(view.links) == 2  # c0-s1 and s1-s2 exactly once


def test_rules_for_view_covers_reachable_targets():
    view = build_view(
        "c0",
        ["s1"],
        [reply("s1", ["c0", "s2"]), reply("s2", ["s1", "s3"]), reply("s3", ["s2"])],
    )
    gen = RuleGenerator("c0", kappa=0)
    per_switch = gen.rules_for_view(view, T)
    # Forwarding to s2/s3 requires rules at s1 and s2 at least.
    assert "s1" in per_switch and "s2" in per_switch
    dsts = {r.dst for rules in per_switch.values() for r in rules}
    assert {"s2", "s3"} <= dsts


def test_rules_cached_per_view_and_tag():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    gen = RuleGenerator("c0", kappa=0)
    first = {s: list(rules) for s, rules in gen.rules_for_view(view, T).items()}
    gen.rules_for_view(view, T)
    assert gen.computations == 1
    # A new round on an unchanged view is a relabel, not a second plan —
    # also when the view arrives as a freshly built, equal object.
    for same_view in (view, build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])):
        restamped = gen.rules_for_view(same_view, T2)
        assert gen.computations == 1
        assert restamped.keys() == first.keys()
        for switch, rules in restamped.items():
            assert all(r.tag == T2 for r in rules)
            assert [r.key() for r in rules] == [r.key() for r in first[switch]]


def test_node_kind_is_part_of_the_cached_view():
    """Equal nodes and links, one relay flips switch -> controller (a node
    seen only as a neighbour is typed a switch until it replies):
    controllers never relay, so the far side must be re-planned around it."""
    replies = [
        reply("s1", ["c0", "r", "s2"]),
        reply("s2", ["s1", "s3"]),
        reply("s3", ["s2", "s9"]),
        reply("s9", ["s3", "r"]),
    ]
    before = build_view("c0", ["s1"], replies)
    after = build_view("c0", ["s1"], replies + [reply("r", ["s1", "s9"], kind="controller")])
    assert before.nodes == after.nodes and before.links == after.links
    assert before.is_switch("r") and after.is_controller("r")

    gen = RuleGenerator("c0", kappa=0)
    via_relay = gen.my_rules(before, "s1", T)
    around_relay = gen.my_rules(after, "s1", T)
    assert gen.computations == 2
    to_far_side = lambda rules: [r.forward_to for r in rules if (r.src, r.dst) == ("c0", "s9")]
    assert to_far_side(via_relay) == ["r"]
    assert to_far_side(around_relay) == ["s2"]
    assert around_relay == RuleGenerator("c0", kappa=0).my_rules(after, "s1", T)


def test_mutating_the_same_view_object_replans():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    gen = RuleGenerator("c0", kappa=0)
    assert "s3" not in {r.dst for r in gen.my_rules(view, "s2", T)}
    view.add_switch("s3")
    view.add_link("s2", "s3")
    assert "s3" in {r.dst for r in gen.my_rules(view, "s2", T)}
    assert gen.computations == 2


def test_cache_invalidated_on_view_change():
    gen = RuleGenerator("c0", kappa=0)
    view1 = build_view("c0", ["s1"], [reply("s1", ["c0"])])
    gen.rules_for_view(view1, T)
    view2 = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"])])
    gen.rules_for_view(view2, T)
    assert gen.computations == 2


def test_my_rules_owned_and_tagged():
    view = build_view("c0", ["s1"], [reply("s1", ["c0", "s2"]), reply("s2", ["s1"])])
    gen = RuleGenerator("c0", kappa=0)
    for r in gen.my_rules(view, "s1", T):
        assert r.cid == "c0"
        assert r.tag == T
        assert r.sid == "s1"


def test_my_rules_deduplicates_by_key():
    view = build_view(
        "c0",
        ["s1"],
        [reply("s1", ["c0", "s2"]), reply("s2", ["s1", "s3"]), reply("s3", ["s2"])],
    )
    gen = RuleGenerator("c0", kappa=0)
    rules = gen.my_rules(view, "s1", T)
    keys = [r.key() for r in rules]
    assert len(keys) == len(set(keys))


def test_no_rules_installed_on_controllers():
    view = build_view(
        "c0", ["s1"], [reply("s1", ["c0", "c1"]), reply("c1", ["s1"], kind="controller")]
    )
    gen = RuleGenerator("c0", kappa=0)
    per_switch = gen.rules_for_view(view, T)
    assert "c1" not in per_switch


def test_invalidate_clears_cache():
    view = build_view("c0", ["s1"], [reply("s1", ["c0"])])
    gen = RuleGenerator("c0", kappa=0)
    gen.rules_for_view(view, T)
    gen.invalidate()
    gen.rules_for_view(view, T)
    assert gen.computations == 2
