"""The Renaissance controller — Algorithm 2 of the paper.

Pure control logic, deliberately free of any transport or simulator
dependency: the do-forever body (:meth:`iterate`) *returns* the aggregated
command batches to send, and the owner (the simulation harness, or a unit
test) feeds replies back through :meth:`on_reply` and queries through
:meth:`on_query`.  This keeps every line of Algorithm 2 unit-testable in
isolation.

Line-by-line correspondence (Algorithm 2):

* line 8  → :meth:`_prune_reply_db`
* lines 9–12 → :meth:`_maybe_start_round`
* line 13 → :meth:`_reference_tag`
* lines 14–18 → :meth:`_prepare_switch_updates`
* line 19 → the batch list returned by :meth:`iterate`
* lines 20–22 → :meth:`on_reply` (C-reset inside :class:`ReplyDB`)
* line 23 → :meth:`on_query`
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.topology import Topology
from repro.core.config import RenaissanceConfig
from repro.core.tags import Tag, TagGenerator
from repro.core.replydb import ReplyDB
from repro.core.rules import RuleGenerator, build_view
from repro.switch.flow_table import Rule, META_PRIORITY
from repro.switch.abstract_switch import BOTTOM
from repro.switch.commands import (
    CommandBatch,
    NewRound,
    Query,
    QueryReply,
    UpdateRules,
    make_batch,
)


class RenaissanceController:
    """One controller ``pi`` running Algorithm 2."""

    def __init__(
        self,
        cid: str,
        config: RenaissanceConfig,
        alive_neighbors,
    ) -> None:
        self.cid = cid
        self.config = config
        self._alive_neighbors = alive_neighbors
        self.tags = TagGenerator(cid, domain=config.tag_domain)
        self.replydb = self._make_replydb()
        self.rulegen = RuleGenerator(cid, kappa=config.kappa)
        self.prev_tag: Tag = self.tags.next_tag()
        self.curr_tag: Tag = self.tags.next_tag()
        # Observability counters.
        self.iterations = 0
        self.rounds_completed = 0
        self.forced_restarts = 0
        self.batches_sent = 0
        self.last_new_round = False
        self.failed = False
        # Iterations the current round has been waiting on unanswered
        # nodes (the bounded round refresh of _maybe_start_round).
        self._round_age = 0
        # This iteration's (reply set, G(reply set), nodes reachable in it).
        self._views: List[Tuple[List[QueryReply], Topology, Set[str]]] = []

    @property
    def round_age(self) -> int:
        """Iterations the current round has been waiting on unanswered
        nodes — the forensics layer reads this to flag stuck rounds."""
        return self._round_age

    # -- hooks that variants override -------------------------------------------

    def _make_replydb(self) -> ReplyDB:
        return ReplyDB(self.cid, self.config.max_replies)

    def _cleanup_enabled(self) -> bool:
        """Whether stale managers/rules are actively deleted (the
        non-memory-adaptive variant of Section 8.1 turns this off)."""
        return True

    def _update_rules(self, view: Topology, switch_reply: QueryReply) -> UpdateRules:
        """The ``updateRule`` command for one switch this round: its cached
        plan, labelled once with ``currTag`` (the three-tag variant of
        Section 6.2 sends per-rule tags instead, to keep the previous
        round's rules)."""
        plan = self.rulegen.rules_for_view(view).get(switch_reply.node, ())
        return UpdateRules(plan, self.curr_tag)

    # -- Algorithm 2 do-forever body ----------------------------------------------

    def iterate(self) -> List[Tuple[str, CommandBatch]]:
        """One complete iteration; returns ``(destination, batch)`` pairs."""
        if self.failed:
            return []
        self.iterations += 1
        neighbors = list(self._alive_neighbors())
        self._views = []

        self._prune_reply_db(neighbors)
        new_round = self._maybe_start_round(neighbors)
        self.last_new_round = new_round

        fusion_view, reachable = self._view(
            neighbors, self.replydb.fusion(self.curr_tag, self.prev_tag)
        )
        prev_view, reachable_prev = self._view(neighbors, self.replydb.res(self.prev_tag))
        refer_tag, refer_view = self._reference_tag(neighbors, fusion_view, prev_view)
        updates = self._prepare_switch_updates(refer_tag, refer_view, new_round, reachable_prev)

        batches: List[Tuple[str, CommandBatch]] = []
        for node in sorted(reachable):
            if node == self.cid:
                continue
            if node in updates:
                batch = updates[node]
            else:
                batch = CommandBatch(
                    sender=self.cid,
                    commands=(NewRound(self.curr_tag), Query(self.curr_tag)),
                )
            batches.append((node, batch))
        self.batches_sent += len(batches)
        return batches

    def _view(
        self, neighbors: Sequence[str], replies: List[QueryReply]
    ) -> Tuple[Topology, Set[str]]:
        """``G(replies)`` and the nodes reachable from ``pi`` in it, built
        once per distinct reply set of an iteration: the prune's fusion and
        the post-prune fusion are the same replies whenever the prune
        removed nothing, and ``res(prevTag)``, ``res(currTag)`` and the
        fusion coincide in a completed round."""
        for known, view, reachable in self._views:
            if known == replies:
                return view, reachable
        view = build_view(self.cid, neighbors, replies)
        reachable = set(view.bfs_layers(self.cid))
        self._views.append((replies, view, reachable))
        return view, reachable

    # line 8
    def _prune_reply_db(self, neighbors: Sequence[str]) -> None:
        # Reachability is evaluated against the *fusion* graph — the
        # controller's best current knowledge — not per-tag remnants.
        # Per-tag graphs G(res(x)) shrink as nodes re-answer the newer
        # round (the reply store keeps one entry per node), so when reply
        # round-trips span iteration boundaries the previous round's
        # leftover entries form a disconnected far remnant and would be
        # pruned as "unreachable", erasing live nodes from the view and
        # flapping their flows.  The adversarial delivery schedulers
        # (bounded worst-case delay, RTT > task period) hit this reliably
        # on high-diameter rings; the fusion graph keeps the prune's
        # intent — stale tags and genuinely unreachable senders still go —
        # without the artifact.
        _, reach = self._view(neighbors, self.replydb.fusion(self.curr_tag, self.prev_tag))
        self.replydb.prune(
            keep_tags={self.curr_tag, self.prev_tag},
            reachable={self.curr_tag: reach, self.prev_tag: reach},
        )

    # lines 9-12, plus the bounded round refresh
    def _maybe_start_round(self, neighbors: Sequence[str]) -> bool:
        current = self.replydb.res(self.curr_tag)
        _, reachable = self._view(neighbors, current)
        answered = {r.node for r in current} | {self.cid}
        if not reachable.issubset(answered):
            # Bounded round refresh.  A corrupted replyDB entry can assert
            # its own reachability — a fabricated reply from a phantom node
            # claiming adjacency to live switches is stamped with currTag,
            # so it never goes stale, poisons rule generation (routes
            # through a node that does not exist), and thereby keeps a real
            # node from ever answering: the round waits forever and the
            # poisoned entry is never pruned.  The adversarial
            # self-stabilization harness finds this livelock reliably.
            # Restarting a round that cannot complete within twice the
            # discovery timeout (2Θ iterations — benign failures are
            # detected and pruned after Θ probes, so legal executions never
            # trigger this) rotates the tag, after which only genuinely
            # answering nodes re-enter res() and the fabricated entry ages
            # out of {currTag, prevTag} and is pruned.
            self._round_age += 1
            if self._round_age < max(8, 2 * self.config.theta):
                return False
            self.forced_restarts += 1
        else:
            self.rounds_completed += 1
        self._round_age = 0
        self.prev_tag = self.curr_tag
        self.curr_tag = self.tags.next_tag(observed=self._observed_tags())
        self.replydb.drop_tag(self.curr_tag)
        return True

    def _observed_tags(self) -> List[Tag]:
        observed: List[Tag] = [self.curr_tag, self.prev_tag]
        for stored in self.replydb.entries():
            metas, tags = stored.reply.owner_tags.get(self.cid, ((), ()))
            for tag in (stored.tag, *metas, *tags):
                if isinstance(tag, Tag):
                    observed.append(tag)
        return observed

    # line 13
    def _reference_tag(
        self, neighbors: Sequence[str], fusion_view: Topology, prev_view: Topology
    ) -> Tuple[Tag, Topology]:
        """During legal executions the reference is the completed previous
        round (``prev_view``, which then equals ``fusion_view``); while the
        discovered topology is still changing it is the
        *current* round's fresh replies — ``G(res(currTag))``, not the
        fusion, which can still carry a stale reply from a node that died
        mid-round (line 13 / line 18 of Algorithm 2).

        Under ``config.robust_views`` the unstable branch instead plans
        from the **corroborated fusion**: current-round replies completed
        by previous-round fills that some *other* evidence (the
        controller's own neighbourhood or an admitted reply's adjacency)
        still names — a reply vouches for its neighbours, never for its
        own sender's liveness.  Rationale: the reply store keeps one
        entry per node, so nodes re-answering the new round *shrink*
        ``res(currTag)``'s complement — when reply round-trips exceed the
        iteration period (high-diameter networks under bounded
        adversarial delivery schedulers) the literal current-round view
        is persistently partial and planning from it tears down flows to
        nodes whose replies are merely in flight, a limit cycle the
        stabilization harness hits reliably.  The literal behaviour stays
        the default because its teardown doubles as the re-expansion
        mechanism after *permanent* faults (stale fills would otherwise
        keep planning routes through a removed switch until the bounded
        round refresh fires); the adversarial axis, whose workloads are
        pure transient corruption, opts in."""
        if self._same_graph(fusion_view, prev_view):
            return self.prev_tag, prev_view
        if self.config.robust_views:
            replies = self._corroborated_fusion(neighbors)
        else:
            replies = self.replydb.res(self.curr_tag)
        return self.curr_tag, self._view(neighbors, replies)[0]

    def _corroborated_fusion(self, neighbors: Sequence[str]) -> List[QueryReply]:
        """Current-round replies plus the previous-round fills that other
        evidence corroborates (see :meth:`_reference_tag`)."""
        current = {r.node: r for r in self.replydb.res(self.curr_tag)}
        fills = {
            r.node: r
            for r in self.replydb.res(self.prev_tag)
            if r.node not in current
        }
        evidence: Set[str] = set(neighbors) | {self.cid}
        for reply in current.values():
            evidence.update(reply.neighbors)
        admitted = list(current.values())
        changed = True
        while changed and fills:
            changed = False
            for node in list(fills):
                if node in evidence:
                    reply = fills.pop(node)
                    admitted.append(reply)
                    evidence.update(reply.neighbors)
                    changed = True
        return admitted

    @staticmethod
    def _same_graph(a: Topology, b: Topology) -> bool:
        return a is b or (a.nodes == b.nodes and a.links == b.links)

    # lines 14-18
    def _prepare_switch_updates(
        self,
        refer_tag: Tag,
        refer_view: Topology,
        new_round: bool,
        reachable_prev: Set[str],
    ) -> Dict[str, CommandBatch]:
        updates: Dict[str, CommandBatch] = {}
        for reply in self.replydb.res(refer_tag):
            if reply.kind != "switch":
                continue
            # Stale-state removal.  We follow Algorithm 1's semantics
            # (lines 9-11) and the prose of Section 4.1.2: on a new round,
            # remove any manager or rule owner that was not discovered
            # *reachable* during round prevTag — but "only when [pi] has
            # succeeded in discovering the network and bootstrapped
            # communication", i.e. only while the discovered topology is
            # quiescent (referTag == prevTag, line 13's stability signal).
            #
            # Two literal readings of Algorithm 2's line 15 livelock in
            # practice and are deliberately not used:
            # * requiring a kept manager to own rules in the snapshot makes
            #   each controller's own delete-then-query batch manufacture
            #   "manager without rules" evidence about live peers, so two
            #   controllers alternately erase each other forever;
            # * deleting while discovery is still expanding lets controllers
            #   carve the network into spheres of influence, erasing each
            #   other's flows at the borders faster than they are rebuilt,
            #   which freezes discovery on diameter-10+ networks.
            manager_dels: List[str] = []
            rule_dels: List[str] = []
            discovery_quiescent = refer_tag == self.prev_tag
            if new_round and discovery_quiescent and self._cleanup_enabled():
                manager_dels = sorted(
                    m
                    for m in set(reply.managers)
                    if m != self.cid and m not in reachable_prev
                )
                rule_dels = sorted(
                    owner
                    for owner in reply.owner_tags
                    if owner != self.cid and owner not in reachable_prev
                )
            updates[reply.node] = make_batch(
                sender=self.cid,
                round_tag=self.curr_tag,
                manager_dels=manager_dels,
                rule_dels=rule_dels,
                new_rules=self._update_rules(refer_view, reply),
                query_tag=self.curr_tag,
            )
        return updates

    # -- message handlers -----------------------------------------------------------

    def on_reply(self, reply: QueryReply) -> bool:
        """Lines 20–22.  Returns ``True`` if a C-reset occurred."""
        if self.failed:
            return False
        return self.replydb.store(reply, self._extract_tag(reply), self.curr_tag)

    def _extract_tag(self, reply: QueryReply) -> Optional[Tag]:
        """The tag of *our* meta/echo rule inside the reply (``res`` macro),
        else that of the last of our rules that carries one."""
        metas, tags = reply.owner_tags.get(self.cid, ((), ()))
        for tag in (*metas, *reversed(tags)):
            if isinstance(tag, Tag):
                return tag
        return None

    def on_query(self, sender: str, tag: object) -> QueryReply:
        """Line 23: answer another controller's query with our local
        topology and the tag echo."""
        echo = Rule(
            cid=sender,
            sid=self.cid,
            src=BOTTOM,
            dst=BOTTOM,
            priority=META_PRIORITY,
            forward_to=None,
            tag=tag,
        )
        return QueryReply(
            node=self.cid,
            neighbors=tuple(self._alive_neighbors()),
            managers=(),
            rules=(echo,),
            kind="controller",
        )

    def on_batch(self, batch: CommandBatch) -> Optional[QueryReply]:
        """Controllers ignore every command except the query (Section 4.2)."""
        tag = batch.query_tag
        if tag is None:
            return None
        return self.on_query(batch.sender, tag)

    # -- views for inspection / legitimacy checking ------------------------------------

    def current_view(self) -> Topology:
        return build_view(
            self.cid,
            list(self._alive_neighbors()),
            self.replydb.fusion(self.curr_tag, self.prev_tag),
        )

    # -- fault hooks ---------------------------------------------------------------------

    def fail_stop(self) -> None:
        self.failed = True

    def recover(self) -> None:
        """Restart with empty volatile state (a recovered controller boots
        fresh, as Lemma 8's node-addition case assumes)."""
        self.failed = False
        self.replydb = self._make_replydb()
        self.rulegen.invalidate()
        self.prev_tag = self.tags.next_tag()
        self.curr_tag = self.tags.next_tag()
        self._round_age = 0

    def corrupt_tags(self, prev: Tag, curr: Tag) -> None:
        """Transient-fault hook: overwrite round state arbitrarily."""
        self.prev_tag = prev
        self.curr_tag = curr


__all__ = ["RenaissanceController"]
