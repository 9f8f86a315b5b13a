"""Bounded match-action rule table with least-recently-updated eviction.

A rule is the paper's tuple ⟨cID, sID, src, dest, prt, fwd, tag⟩
(Figure 4): ``cid`` installed it, ``sid`` stores it, the match is the
packet header ``(src, dst)``, ``priority`` picks among matching rules
(larger is higher), ``forward_to`` is the out-port, and ``tag`` is the
synchronization-round tag.

The table enforces ``max_rules`` with the paper's clogged-memory policy
(Section 2.1.1): when full, the least-recently-*updated* rule is evicted.
A controller that keeps refreshing its rules therefore never loses them to
eviction — the property Lemma 1 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Priority reserved for round-synchronization meta-rules — the lowest.
META_PRIORITY = 0

#: Rule-event kinds published to version listeners, ordered by how much of
#: a cached walk population they can perturb (see ``RouteCache``): a
#: primary-rule change can redirect any walk of its header; a
#: ``detour_start`` change additionally only matters to walks that hit a
#: rule miss (it could rescue them); a plain detour-hop change only
#: matters to walks that actually travelled stamped.
EVENT_PRIMARY = 0
EVENT_START = 1
EVENT_DETOUR = 2


def _event_kind(rule: "Rule") -> int:
    if rule.detour is None:
        return EVENT_PRIMARY
    return EVENT_START if rule.detour_start else EVENT_DETOUR


@dataclass(frozen=True, slots=True)
class Rule:
    """One match-action entry.  ``forward_to is None`` encodes a meta-rule
    (it matches nothing on the data path).

    ``detour``/``detour_start`` implement tagged local fast failover: a
    packet whose primary out-link is down is stamped with the detour id at
    the detecting switch (the rule with ``detour_start=True``) and from
    then on matches only rules carrying the same ``detour`` stamp, falling
    back to primary rules (unstamping) where the detour rejoins the intact
    primary suffix.  The stamp is what keeps concurrent detours of one
    flow from bouncing packets between each other — the same role packet
    tags play for consistent updates in the paper (Section 6.2).
    """

    cid: str  # controller that installed the rule
    sid: str  # switch storing the rule
    src: str  # match: packet source
    dst: str  # match: packet destination
    priority: int
    forward_to: Optional[str]
    tag: object = None
    detour: Optional[int] = None  # None = primary-path rule
    detour_start: bool = False  # stamps unstamped packets entering here

    @property
    def is_meta(self) -> bool:
        return self.forward_to is None and self.priority == META_PRIORITY

    def key(self) -> Tuple[str, str, str, int, Optional[str], Optional[int]]:
        """Identity within one controller's rule set: match + priority +
        action (the tag is metadata, not identity)."""
        return (self.cid, self.src, self.dst, self.priority, self.forward_to, self.detour)

    def with_tag(self, tag: object) -> "Rule":
        """The same rule stamped with another round tag."""
        return Rule(self.cid, self.sid, self.src, self.dst, self.priority,
                    self.forward_to, tag, self.detour, self.detour_start)


class RulePlan(tuple):
    """One owner's rules for one switch, as an immutable tuple that also
    carries each rule's :meth:`Rule.key` in ``keys`` — computed once, where
    the plan is made.  The tag is not part of a key, so a plan outlives the
    rounds it is sent under."""

    keys: Tuple[Tuple, ...]

    def __new__(cls, rules: Iterable[Rule], keys: Optional[Iterable[Tuple]] = None) -> "RulePlan":
        plan = super().__new__(cls, rules)
        plan.keys = tuple(r.key() for r in plan) if keys is None else tuple(keys)
        return plan


def tag_summary(rules: Iterable[Rule]) -> Dict[str, Tuple[List[object], List[object]]]:
    """Owner → (its meta-rules' tags, its other rules' tags with runs of
    equal tags collapsed), both in the order given: what round
    synchronization reads from a rule set."""
    summary: Dict[str, Tuple[List[object], List[object]]] = {}
    for rule in rules:
        metas, tags = summary.setdefault(rule.cid, ([], []))
        if rule.is_meta:
            metas.append(rule.tag)
        elif not tags or tags[-1] != rule.tag:
            tags.append(rule.tag)
    return summary


class _Generation:
    """One owner's plan resident in a table under one round tag (see
    :meth:`FlowTable.replace_rules_of`).  While the record exists the
    owner's resident non-meta keys are exactly ``keys``; ``tag`` overrides
    the resident ``Rule`` objects' own, and unless ``stamped`` the
    least-recently-updated stamp of ``keys[i]`` is ``base + i``."""

    __slots__ = ("rules", "keys", "tag", "base", "stamped")

    def __init__(self, rules: Tuple[Rule, ...], keys: Tuple[Tuple, ...], tag: object, base: int) -> None:
        self.rules, self.keys, self.tag, self.base = rules, keys, tag, base
        self.stamped = True


def _keys_of(rules: Tuple[Rule, ...]) -> Tuple[Tuple, ...]:
    return rules.keys if isinstance(rules, RulePlan) else tuple(r.key() for r in rules)


class FlowTable:
    """Rule storage for one switch, bounded by ``max_rules``."""

    def __init__(self, sid: str, max_rules: int) -> None:
        if max_rules < 1:
            raise ValueError("max_rules must be >= 1")
        self.sid = sid
        self.max_rules = max_rules
        self._rules: Dict[Tuple, Rule] = {}
        self._touched: Dict[Tuple, int] = {}
        # Match index (src, dst) -> rule keys, kept in sync by every
        # mutation: data-plane lookups must not scan the whole table.
        self._by_match: Dict[Tuple[str, str], List[Tuple]] = {}
        self._clock = 0
        self.evictions = 0
        # Work counters: whole-generation refreshes (O(1) each) and
        # per-rule writes (installs, plus tags written out when a
        # generation is dropped).
        self.refreshes = 0
        self.rule_writes = 0
        # Monotone mutation counter of *forwarding-relevant* state: bumped
        # whenever the set of rules — as seen by the data plane — changes,
        # letting route caches detect staleness without diffing tables.
        # Idempotent refreshes (same key re-installed to stay LRU-fresh,
        # meta-rule tag rotation) deliberately do not bump it: they cannot
        # change any forwarding decision.
        self.version = 0
        # Subscribers notified on each version bump with this table's sid
        # and ``(src, dst, event_kind)`` triples describing which packet
        # headers' match results the mutation may have changed and how —
        # the dirty-tracking channel route caches use to invalidate only
        # walks of those flows through this switch.
        self._version_listeners: List[
            Callable[[str, Tuple[Tuple[str, str, int], ...]], None]
        ] = []
        # Memo of matching() results per header, dropped per key on any
        # install/delete touching that header (even tag-only refreshes,
        # which swap the Rule object without bumping version).
        self._match_cache: Dict[Tuple[str, str], List[Rule]] = {}
        # Resident keys per owning controller, in table (insertion) order:
        # controllers_present() is O(#cids) instead of a full-table scan on
        # every no_stale_rules probe, and a per-owner command visits only
        # that owner's rules.
        self._owner_keys: Dict[str, List[Tuple]] = {}
        # The meta-rule subset of _owner_keys, and each owner's resident
        # generation, if its rules are one.
        self._owner_metas: Dict[str, List[Tuple]] = {}
        self._generations: Dict[str, _Generation] = {}

    def add_version_listener(
        self, listener: Callable[[str, Tuple[Tuple[str, str, int], ...]], None]
    ) -> None:
        """Subscribe to forwarding-relevant mutations of this table.

        Listeners receive ``(sid, events)`` where each event is
        ``(src, dst, kind)`` with ``kind`` one of ``EVENT_PRIMARY`` /
        ``EVENT_START`` / ``EVENT_DETOUR``; meta-rule headers are
        delivered too but match no data-plane flow.
        """
        self._version_listeners.append(listener)

    def remove_version_listener(
        self, listener: Callable[[str, Tuple[Tuple[str, str, int], ...]], None]
    ) -> None:
        try:
            self._version_listeners.remove(listener)
        except ValueError:
            pass

    def _bump_version(self, events: Tuple[Tuple[str, str, int], ...]) -> None:
        self.version += 1
        for listener in self._version_listeners:
            listener(self.sid, events)

    def _index_add(self, key: Tuple, rule: Rule) -> None:
        if rule.is_meta:
            return
        self._by_match.setdefault((rule.src, rule.dst), []).append(key)

    def _index_remove(self, key: Tuple, rule: Rule) -> None:
        if rule.is_meta:
            return
        bucket = self._by_match.get((rule.src, rule.dst))
        if bucket is None:
            return
        try:
            bucket.remove(key)
        except ValueError:
            pass
        if not bucket:
            del self._by_match[(rule.src, rule.dst)]

    def _delete_key(self, key: Tuple) -> None:
        rule = self._rules[key]
        if rule.cid in self._generations and not rule.is_meta:
            self._drop_generation(rule.cid)
        del self._rules[key]
        del self._touched[key]
        self._index_remove(key, rule)
        self._match_cache.pop((rule.src, rule.dst), None)
        owned = self._owner_keys[rule.cid]
        owned.remove(key)
        if rule.is_meta:
            self._owner_metas[rule.cid].remove(key)
        if not owned:
            del self._owner_keys[rule.cid]
            self._owner_metas.pop(rule.cid, None)
        self._bump_version(((rule.src, rule.dst, _event_kind(rule)),))

    def __len__(self) -> int:
        return len(self._rules)

    def _tagged(self, rule: Rule) -> Rule:
        """``rule`` under the tag its owner's generation holds for it."""
        gen = self._generations.get(rule.cid)
        if gen is None or rule.is_meta or rule.tag == gen.tag:
            return rule
        return rule.with_tag(gen.tag)

    def rules(self) -> List[Rule]:
        return [self._tagged(rule) for rule in self._rules.values()]

    def rules_of(self, cid: str) -> List[Rule]:
        return [self._tagged(self._rules[k]) for k in self._owner_keys.get(cid, ())]

    def resident(self) -> Tuple[Rule, ...]:
        """The stored ``Rule`` objects as they are, in table order: the tags
        of an owner with a resident generation are whatever its plan
        carried, and :meth:`owner_tags` holds the true ones."""
        return tuple(self._rules.values())

    def owner_tags(self) -> Dict[str, Tuple[List[object], List[object]]]:
        """:func:`tag_summary` of :meth:`rules`, in O(1) per owner whose
        rules are a resident generation."""
        rules = self._rules
        summary: Dict[str, Tuple[List[object], List[object]]] = {}
        for cid, keys in self._owner_keys.items():
            gen = self._generations.get(cid)
            if gen is None:
                summary.update(tag_summary(rules[k] for k in keys))
            else:
                metas = [rules[k].tag for k in self._owner_metas.get(cid, ())]
                summary[cid] = (metas, [gen.tag] if gen.keys else [])
        return summary

    def controllers_present(self) -> List[str]:
        return sorted(self._owner_keys)

    # -- mutation -------------------------------------------------------------

    def install(self, rule: Rule) -> None:
        """Insert or refresh one rule, evicting if the table is clogged."""
        if rule.sid != self.sid:
            raise ValueError(f"rule for switch {rule.sid} offered to {self.sid}")
        if rule.cid in self._generations and not rule.is_meta:
            self._drop_generation(rule.cid)
        self._install(rule.key(), rule)

    def _install(self, key: Tuple, rule: Rule) -> None:
        prior = self._rules.get(key)
        if prior is None and len(self._rules) >= self.max_rules:
            self._evict_one()
        if prior is not None:
            self._index_remove(key, prior)
        self._rules[key] = rule
        self._touched[key] = self._clock
        self._clock += 1
        self.rule_writes += 1
        self._index_add(key, rule)
        self._match_cache.pop((rule.src, rule.dst), None)
        if prior is None:
            self._owner_keys.setdefault(rule.cid, []).append(key)
            if rule.is_meta:
                self._owner_metas.setdefault(rule.cid, []).append(key)
        # The key carries every forwarding-relevant field except
        # ``detour_start``; a same-key refresh differing only in tag (the
        # newRound meta-rule rotation) leaves forwarding untouched.
        if prior is None or prior.detour_start != rule.detour_start:
            # A detour_start flip is both a removal and an addition; publish
            # the stronger (lower) of the two kinds.
            kind = _event_kind(rule)
            if prior is not None:
                kind = min(kind, _event_kind(prior))
            self._bump_version(((rule.src, rule.dst, kind),))

    def _evict_one(self) -> None:
        for gen in self._generations.values():
            self._stamp(gen)
        victim = min(self._touched, key=self._touched.get)
        self._delete_key(victim)
        self.evictions += 1

    def _stamp(self, gen: _Generation) -> None:
        """Write out the least-recently-updated stamps ``gen`` holds lazily."""
        if not gen.stamped:
            self._touched.update(zip(gen.keys, range(gen.base, gen.base + len(gen.keys))))
            gen.stamped = True

    def _drop_generation(self, cid: str, write_tags: bool = True) -> None:
        """Forget ``cid``'s generation because a per-rule operation is about
        to hit its rules, first writing out what the record held for them
        (``write_tags=False`` when every one of them is about to be
        overwritten or deleted anyway)."""
        gen = self._generations.pop(cid, None)
        if gen is None:
            return
        self._stamp(gen)
        if write_tags:
            rules = self._rules
            for key in gen.keys:
                rules[key] = rules[key].with_tag(gen.tag)
            self.rule_writes += len(gen.keys)

    def _same_generation(self, gen: _Generation, rules: Tuple[Rule, ...]) -> bool:
        """Whether ``rules`` is the plan ``gen`` records: the same tuple, or
        the same keys in the same order with the same ``detour_start`` marks
        (everything else forwarding reads is in the key)."""
        if rules is gen.rules:
            return True
        if _keys_of(rules) != gen.keys:
            return False
        return all(
            new.detour_start == old.detour_start and new.sid == self.sid
            for new, old in zip(rules, gen.rules)
        )

    def replace_rules_of(self, cid: str, new_rules: Iterable[Rule], tag: object = None) -> None:
        """The ``updateRule`` command: replace all of ``cid``'s rules
        (except meta-rules, which ``newRound`` manages).  ``tag``, when
        given, is the round tag of the whole batch and overrides the rules'
        own; without it each rule keeps the tag it carries.

        A batch under a batch tag that leaves ``cid``'s rules exactly the
        batch — no key twice, no meta-rule inside, no eviction — makes them
        a *generation*: the table records the tuple, its keys, the tag and
        the clock value of the refresh instead of relabelling every rule.
        Algorithm 2's periodic refresh of an unchanged plan then finds its
        own generation resident (:meth:`_same_generation`) and costs O(1):
        the new tag, and the clock advanced by one tick per rule.  What a
        rule-by-rule refresh would also have written is derived when
        something asks: least-recently-updated stamps (``base + position``)
        before an eviction picks a victim, tags in :meth:`rules`,
        :meth:`rules_of` and :meth:`owner_tags`; :meth:`matching` returns
        the stored objects, whose tags nothing on the data path reads.  Any
        per-rule operation that hits one of the owner's rules (``install``,
        a delete, an eviction, ``clear``, ``corrupt_with``) drops the record
        first, so every other batch — a new or missing key, a
        ``detour_start`` flip, per-rule tags, planted garbage, a clogged
        table — takes the rule-by-rule path below, the one healing path:
        ``cid``'s resident rules missing from the update are deleted, then
        each rule is installed (no version bump for an unchanged one).

        Bucket order: :meth:`matching` sorts on ``(-priority, cid,
        forward_to)``, so only the relative order of *one owner's* keys in
        a ``(src, dst)`` bucket is observable.  Rule-by-rule refreshes
        re-append them in update order; a repeated generation would
        re-append them in the order they already have, so buckets stay.
        """
        rules = new_rules if isinstance(new_rules, tuple) else tuple(new_rules)
        gen = self._generations.get(cid)
        if gen is not None and tag is not None and self._same_generation(gen, rules):
            if rules is not gen.rules:
                self._rules.update(zip(gen.keys, rules))  # let the old plan go
                gen.rules = rules
            gen.tag, gen.base, gen.stamped = tag, self._clock, False
            self._clock += len(gen.keys)
            self.refreshes += 1
            return
        generation = tag is not None
        for rule in rules:
            if rule.cid != cid:
                raise ValueError(f"rule owned by {rule.cid} in update for {cid}")
            if rule.sid != self.sid:
                raise ValueError(f"rule for switch {rule.sid} offered to {self.sid}")
            if rule.is_meta:
                generation = False
        keys = _keys_of(rules)
        self._drop_generation(cid, write_tags=False)
        resident = self._rules
        keep = set(keys)
        for key in [
            k
            for k in self._owner_keys.get(cid, ())
            if k not in keep and not resident[k].is_meta
        ]:
            self._delete_key(key)
        if generation and (
            len(keep) != len(keys)
            or len(resident) + sum(k not in resident for k in keep) > self.max_rules
        ):
            generation = False
        base = self._clock
        for key, rule in zip(keys, rules):
            self._install(key, rule if generation or tag is None else rule.with_tag(tag))
        if generation:
            self._generations[cid] = _Generation(rules, keys, tag, base)

    def delete_rules_of(self, cid: str, include_meta: bool = True) -> int:
        """The ``delAllRules`` command.  Returns the number removed."""
        self._drop_generation(cid, write_tags=False)
        victims = [
            k
            for k in self._owner_keys.get(cid, ())
            if include_meta or not self._rules[k].is_meta
        ]
        for key in victims:
            self._delete_key(key)
        return len(victims)

    def clear(self) -> None:
        kinds: Dict[Tuple[str, str], int] = {}
        for rule in self._rules.values():
            header = (rule.src, rule.dst)
            kind = _event_kind(rule)
            prior = kinds.get(header)
            kinds[header] = kind if prior is None else min(prior, kind)
        self._rules.clear()
        self._touched.clear()
        self._by_match.clear()
        self._match_cache.clear()
        self._owner_keys.clear()
        self._owner_metas.clear()
        self._generations.clear()
        self._bump_version(tuple((s, d, k) for (s, d), k in kinds.items()))

    # -- lookup ---------------------------------------------------------------

    def matching(self, src: str, dst: str) -> List[Rule]:
        """All non-meta rules matching a packet header, highest priority
        first (deterministic tie-break on owner and out-port)."""
        cached = self._match_cache.get((src, dst))
        if cached is None:
            keys = self._by_match.get((src, dst), ())
            cached = [self._rules[k] for k in keys]
            cached.sort(key=lambda r: (-r.priority, r.cid, r.forward_to or ""))
            self._match_cache[(src, dst)] = cached
        return cached

    def is_unambiguous(self, operational: Optional[Iterable[str]] = None) -> bool:
        """Check the paper's unambiguity requirement: for every packet
        header there is at most one applicable rule.

        When ``operational`` (the usable out-neighbours) is given,
        applicability is evaluated against it; otherwise all out-ports are
        assumed usable — the stricter static check.
        """
        usable = set(operational) if operational is not None else None
        best: Dict[Tuple[str, str], List[Rule]] = {}
        for rule in self._rules.values():
            if rule.is_meta:
                continue
            if usable is not None and rule.forward_to not in usable:
                continue
            best.setdefault((rule.src, rule.dst), []).append(rule)
        for candidates in best.values():
            top = max(r.priority for r in candidates)
            top_rules = [r for r in candidates if r.priority == top]
            actions = {r.forward_to for r in top_rules}
            if len(actions) > 1:
                return False
        return True

    # -- fault hooks ------------------------------------------------------------

    def corrupt_with(self, rules: Iterable[Rule]) -> None:
        """Transient-fault hook: plant arbitrary rules, bypassing ownership
        discipline but still respecting the memory bound."""
        for rule in rules:
            self.install(replace(rule, sid=self.sid))


__all__ = [
    "Rule",
    "RulePlan",
    "tag_summary",
    "FlowTable",
    "META_PRIORITY",
    "EVENT_PRIMARY",
    "EVENT_START",
    "EVENT_DETOUR",
]
