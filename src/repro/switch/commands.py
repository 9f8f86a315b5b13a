"""Controller→switch command protocol (paper Figure 4).

Controllers send *command batches*: a ``newRound`` first, then any
management commands (``delMngr``/``addMngr``/``delAllRules``), then
``updateRule``, and a trailing ``query``.  The switch control module
executes a batch atomically (one atomic step, Section 3.2) and answers the
query with ⟨j, Nc(j), manager(j), rules(j)⟩.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.switch.flow_table import Rule, tag_summary


@dataclass(frozen=True)
class Command:
    """Base class for control commands (subclasses are the wire format)."""


@dataclass(frozen=True)
class NewRound(Command):
    """⟨'newRound', t_metaRule⟩ — update the sender's meta-rule tag."""

    tag: object


@dataclass(frozen=True)
class AddManager(Command):
    """⟨'addMngr', k⟩ — add controller ``k`` to the manager set."""

    cid: str


@dataclass(frozen=True)
class DelManager(Command):
    """⟨'delMngr', k⟩ — remove controller ``k`` from the manager set."""

    cid: str


@dataclass(frozen=True)
class DelAllRules(Command):
    """⟨'delAllRules', k⟩ — delete every rule installed by ``k``."""

    cid: str


@dataclass(frozen=True)
class UpdateRules(Command):
    """⟨'updateRule', newRules⟩ — replace all of the *sender's* rules.

    ``tag`` is the round tag of the whole batch, said once: a controller
    re-sends the same plan tuple every round and only this label moves.
    ``None`` means each rule carries its own tag (the three-tag variant
    mixes two rounds in one update)."""

    rules: Tuple[Rule, ...]
    tag: object = None


@dataclass(frozen=True)
class Query(Command):
    """⟨'query', t_query⟩ — request the configuration snapshot."""

    tag: object


@dataclass(frozen=True)
class CommandBatch:
    """An aggregated configuration message from one controller
    (Algorithm 2, line 19)."""

    sender: str
    commands: Tuple[Command, ...]

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("empty command batch")

    @property
    def query_tag(self) -> Optional[object]:
        for command in self.commands:
            if isinstance(command, Query):
                return command.tag
        return None


class QueryReply:
    """⟨ID, Nc, Mng, rules⟩ — the respondent's configuration snapshot.

    Controllers answer with empty ``managers``/``rules`` except for the
    echo meta-entry carrying the query tag (Algorithm 2, line 23); their
    replies are marked ``kind="controller"`` (the paper distinguishes them
    by the ⊥ manager field).

    ``owner_tags`` is the :func:`~repro.switch.flow_table.tag_summary` of
    the rules — all that round synchronization reads of them.  A switch
    passes it along with its table's resident ``Rule`` objects, whose own
    tags may predate the round (``FlowTable.resident``); ``rules`` then
    stamps them on first use, for the callers that really iterate rules.
    Without it the rules are taken as they are and summarized on demand.
    """

    __slots__ = ("node", "neighbors", "managers", "kind", "_resident", "_owner_tags", "_rules")

    def __init__(
        self,
        node: str,
        neighbors: Tuple[str, ...],
        managers: Tuple[str, ...],
        rules: Tuple[Rule, ...],
        kind: str = "switch",
        owner_tags: Optional[Dict[str, Tuple[List[object], List[object]]]] = None,
    ) -> None:
        self.node = node
        self.neighbors = neighbors
        self.managers = managers
        self.kind = kind
        self._resident = rules
        self._owner_tags = owner_tags
        self._rules = rules if owner_tags is None else None

    def __repr__(self) -> str:
        return (f"QueryReply(node={self.node!r}, neighbors={self.neighbors!r}, "
                f"managers={self.managers!r}, rules={self.rules!r}, kind={self.kind!r})")

    @property
    def owner_tags(self) -> Dict[str, Tuple[List[object], List[object]]]:
        if self._owner_tags is None:
            self._owner_tags = tag_summary(self._resident)
        return self._owner_tags

    @property
    def rules(self) -> Tuple[Rule, ...]:
        if self._rules is None:
            # Only an owner whose non-meta rules share one tag can have
            # been summarized without reading them.
            shared = {cid: tags[0] for cid, (_, tags) in self._owner_tags.items()
                      if len(tags) == 1}
            self._rules = tuple(
                rule if rule.is_meta or rule.tag == shared.get(rule.cid, rule.tag)
                else rule.with_tag(shared[rule.cid])
                for rule in self._resident
            )
        return self._rules

    def tags_of(self, cid: str) -> List[object]:
        """Tags of ``cid``'s rules in this snapshot (used by the round
        synchronization check, Algorithm 2's ``res(x)`` macro)."""
        return [r.tag for r in self.rules if r.cid == cid]


def make_batch(
    sender: str,
    round_tag: object,
    manager_dels: Sequence[str] = (),
    rule_dels: Sequence[str] = (),
    new_rules: Union[UpdateRules, Sequence[Rule]] = (),
    query_tag: object = None,
) -> CommandBatch:
    """Assemble a batch in the paper's canonical order:
    newRound ∘ delMngr* ∘ addMngr(self) ∘ delAllRules* ∘ updateRule ∘ query.
    """
    commands: List[Command] = [NewRound(round_tag)]
    commands.extend(DelManager(cid) for cid in manager_dels)
    commands.append(AddManager(sender))
    commands.extend(DelAllRules(cid) for cid in rule_dels)
    # A ready command goes through as it is: switches recognize a plan
    # tuple they already hold by identity.
    if not isinstance(new_rules, UpdateRules):
        new_rules = UpdateRules(tuple(new_rules))
    commands.append(new_rules)
    commands.append(Query(query_tag if query_tag is not None else round_tag))
    return CommandBatch(sender=sender, commands=tuple(commands))


__all__ = [
    "Command",
    "NewRound",
    "AddManager",
    "DelManager",
    "DelAllRules",
    "UpdateRules",
    "Query",
    "CommandBatch",
    "QueryReply",
    "make_batch",
]
