"""The abstract SDN switch control module (paper Section 2.1.1).

Glues the flow table, the manager set and the command protocol together.
A command batch is executed atomically — receive, update, reply in one
step, per the paper's execution model (Section 3.2).

The switch also records which deletions each batch performed; the
simulation harness classifies them as legitimate or *illegitimate*
(Definition 2: removing a non-failed controller's state on another
controller's command) to reproduce the Theorem 1 bound empirically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.switch.flow_table import FlowTable, Rule, META_PRIORITY
from repro.switch.managers import ManagerSet
from repro.switch.commands import (
    AddManager,
    CommandBatch,
    DelAllRules,
    DelManager,
    NewRound,
    Query,
    QueryReply,
    UpdateRules,
)

#: Placeholder for "no value" fields in meta-rules (the paper's ⊥).
BOTTOM = "⊥"


@dataclass
class DeletionRecord:
    """What one batch deleted, for illegitimate-deletion accounting."""

    issuer: str
    managers_removed: List[str] = field(default_factory=list)
    rule_owners_cleared: List[str] = field(default_factory=list)


class AbstractSwitch:
    """One switch's control module plus its bounded configuration state."""

    def __init__(
        self,
        sid: str,
        alive_neighbors: Callable[[], List[str]],
        max_rules: int = 10_000,
        max_managers: int = 64,
    ) -> None:
        self.sid = sid
        self._alive_neighbors = alive_neighbors
        self.table = FlowTable(sid, max_rules=max_rules)
        self.managers = ManagerSet(max_managers=max_managers)
        self.batches_processed = 0
        self.deletion_log: List[DeletionRecord] = []

    # -- control plane ----------------------------------------------------------

    def handle_batch(self, batch: CommandBatch) -> Optional[QueryReply]:
        """Execute a command batch atomically; answer its query if present."""
        self.batches_processed += 1
        record = DeletionRecord(issuer=batch.sender)
        reply: Optional[QueryReply] = None
        for command in batch.commands:
            if isinstance(command, NewRound):
                self._set_meta_rule(batch.sender, command.tag)
            elif isinstance(command, AddManager):
                self.managers.add(command.cid)
            elif isinstance(command, DelManager):
                if self.managers.remove(command.cid):
                    record.managers_removed.append(command.cid)
            elif isinstance(command, DelAllRules):
                if self.table.delete_rules_of(command.cid) > 0:
                    record.rule_owners_cleared.append(command.cid)
            elif isinstance(command, UpdateRules):
                self.table.replace_rules_of(batch.sender, command.rules, command.tag)
            elif isinstance(command, Query):
                reply = self.snapshot()
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown command: {command!r}")
        if record.managers_removed or record.rule_owners_cleared:
            self.deletion_log.append(record)
        return reply

    def _set_meta_rule(self, cid: str, tag: object) -> None:
        self.table.install(
            Rule(
                cid=cid,
                sid=self.sid,
                src=BOTTOM,
                dst=BOTTOM,
                priority=META_PRIORITY,
                forward_to=None,
                tag=tag,
            )
        )

    def snapshot(self) -> QueryReply:
        """The switch's query response ⟨j, Nc(j), manager(j), rules(j)⟩."""
        return QueryReply(
            node=self.sid,
            neighbors=tuple(self._alive_neighbors()),
            managers=tuple(self.managers.members()),
            rules=self.table.resident(),
            owner_tags=self.table.owner_tags(),
        )

    def meta_tag_of(self, cid: str) -> Optional[object]:
        """Tag of ``cid``'s meta-rule, or ``None`` if absent."""
        for rule in self.table.rules_of(cid):
            if rule.is_meta:
                return rule.tag
        return None

    # -- transient-fault hooks -----------------------------------------------------

    def corrupt(
        self,
        rules: Tuple[Rule, ...] = (),
        managers: Tuple[str, ...] = (),
        clear_first: bool = False,
    ) -> None:
        """Arbitrarily rewrite the switch configuration (a transient fault:
        the paper's rare faults corrupt state but leave code intact)."""
        if clear_first:
            self.table.clear()
            self.managers.clear()
        self.table.corrupt_with(rules)
        self.managers.corrupt_with(managers)


__all__ = ["AbstractSwitch", "DeletionRecord", "BOTTOM"]
