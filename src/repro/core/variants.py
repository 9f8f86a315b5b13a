"""Algorithm variants discussed by the paper.

* :class:`NonAdaptiveController` — Section 8.1: never deletes other
  controllers' state and never C-resets; relies purely on the switches'
  (and its own reply store's) bounded-memory eviction to wash out stale
  state.  Recovers from transient faults in Θ(D) frames but its
  post-stabilization memory can be NC/nC times larger.

* :class:`ThreeTagController` — Section 6.2: the prototype variation that
  keeps the *previous* round's rules installed while writing the current
  round's, deleting only the round-before-previous.  This keeps
  κ-fault-resilient flows usable during reconfiguration (consistent
  updates), which is what the throughput experiment (Figure 15) runs.
"""

from __future__ import annotations

from typing import Optional

from repro.net.topology import Topology
from repro.core.controller import RenaissanceController
from repro.core.replydb import ReplyDB, StoredReply
from repro.core.tags import Tag
from repro.switch.commands import QueryReply, UpdateRules


class EvictingReplyDB(ReplyDB):
    """Reply store that evicts its oldest entry instead of C-resetting —
    the constant-size-queue replacement of Section 8.1."""

    def store(self, reply: QueryReply, tag: Optional[Tag], current_tag: Tag) -> bool:
        if reply.node not in self._entries and len(self._entries) + 1 > self.max_replies:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        if tag == current_tag:
            self._entries[reply.node] = StoredReply(reply=reply, tag=tag)
        return False  # never a C-reset


class NonAdaptiveController(RenaissanceController):
    """Section 8.1: no deletions, no C-resets, Θ(D) transient recovery."""

    def _make_replydb(self) -> ReplyDB:
        return EvictingReplyDB(self.cid, self.config.max_replies)

    def _cleanup_enabled(self) -> bool:
        return False


class ThreeTagController(RenaissanceController):
    """Section 6.2: retain the previous round's rules during updates.

    ``updateRule`` replaces all of this controller's rules, so retaining is
    achieved by re-submitting the prev-tagged rules from the switch's own
    snapshot together with the fresh current-tagged rules.  Rules two
    rounds old (the paper's ``beforePrevTag``) are thereby dropped.
    Key collisions (same match/priority/action) resolve in favour of the
    fresh rule, so the stable-state table is identical to Algorithm 2's.
    """

    def _update_rules(self, view: Topology, switch_reply: QueryReply) -> UpdateRules:
        fresh = self.rulegen.my_rules(view, switch_reply.node, self.curr_tag)
        fresh_keys = {rule.key() for rule in fresh}
        retained = [
            rule
            for rule in switch_reply.rules
            if rule.cid == self.cid
            and not rule.is_meta
            and rule.tag == self.prev_tag
            and rule.key() not in fresh_keys
        ]
        return UpdateRules(tuple(fresh + retained))


__all__ = ["NonAdaptiveController", "ThreeTagController", "EvictingReplyDB"]
