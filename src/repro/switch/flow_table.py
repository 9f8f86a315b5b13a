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

import itertools
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
        self._clock = itertools.count()
        self.evictions = 0
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
        rule = self._rules.pop(key)
        del self._touched[key]
        self._index_remove(key, rule)
        self._match_cache.pop((rule.src, rule.dst), None)
        owned = self._owner_keys[rule.cid]
        owned.remove(key)
        if not owned:
            del self._owner_keys[rule.cid]
        self._bump_version(((rule.src, rule.dst, _event_kind(rule)),))

    def __len__(self) -> int:
        return len(self._rules)

    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    def rules_of(self, cid: str) -> List[Rule]:
        return [self._rules[k] for k in self._owner_keys.get(cid, ())]

    def controllers_present(self) -> List[str]:
        return sorted(self._owner_keys)

    # -- mutation -------------------------------------------------------------

    def install(self, rule: Rule) -> None:
        """Insert or refresh one rule, evicting if the table is clogged."""
        if rule.sid != self.sid:
            raise ValueError(f"rule for switch {rule.sid} offered to {self.sid}")
        key = rule.key()
        prior = self._rules.get(key)
        if prior is None and len(self._rules) >= self.max_rules:
            self._evict_one()
        if prior is not None:
            self._index_remove(key, prior)
        self._rules[key] = rule
        self._touched[key] = next(self._clock)
        self._index_add(key, rule)
        self._match_cache.pop((rule.src, rule.dst), None)
        if prior is None:
            self._owner_keys.setdefault(rule.cid, []).append(key)
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
        victim = min(self._touched, key=self._touched.get)
        self._delete_key(victim)
        self.evictions += 1

    def replace_rules_of(self, cid: str, new_rules: Iterable[Rule]) -> None:
        """The ``updateRule`` command: replace all of ``cid``'s rules
        (except meta-rules, which ``newRound`` manages).

        Delta-based.  ``cid``'s resident rules missing from the update are
        deleted first.  If every key of the update is then resident with an
        unchanged ``detour_start`` — Algorithm 2's periodic refresh of an
        unchanged plan — the batch is one refresh pass: each ``Rule`` is
        swapped for its (re-tagged) successor and its least-recently-updated
        stamp advanced, with no version bump, so an idempotent update does
        not invalidate route caches.  Otherwise the rules are installed one
        by one.

        Bucket order: a refresh pass leaves each touched ``(src, dst)``
        bucket as its untouched keys in their previous order followed by the
        refreshed keys in update order (a key given twice counts where it
        came last) — what removing and re-appending one rule at a time
        leaves, and what breaks :meth:`matching` ties on
        ``(priority, cid, forward_to)``.
        """
        incoming = list(new_rules)
        for rule in incoming:
            if rule.cid != cid:
                raise ValueError(f"rule owned by {rule.cid} in update for {cid}")
            if rule.sid != self.sid:
                raise ValueError(f"rule for switch {rule.sid} offered to {self.sid}")
        rules = self._rules
        keys = [rule.key() for rule in incoming]
        keep = set(keys)
        for key in [
            k
            for k in self._owner_keys.get(cid, ())
            if k not in keep and not rules[k].is_meta
        ]:
            self._delete_key(key)
        refreshed: Dict[Tuple[str, str], Dict[Tuple, None]] = {}
        for key, rule in zip(keys, incoming):
            prior = rules.get(key)
            if prior is None or prior.detour_start != rule.detour_start:
                break  # not a pure refresh
            if not rule.is_meta:
                moved = refreshed.setdefault((rule.src, rule.dst), {})
                moved.pop(key, None)
                moved[key] = None
        else:
            rules.update(zip(keys, incoming))
            self._touched.update(zip(keys, self._clock))  # one tick per rule
            for header, moved in refreshed.items():
                bucket = self._by_match[header]
                bucket[:] = [k for k in bucket if k not in moved] + list(moved)
                self._match_cache.pop(header, None)
            return
        for rule in incoming:
            self.install(rule)

    def delete_rules_of(self, cid: str, include_meta: bool = True) -> int:
        """The ``delAllRules`` command.  Returns the number removed."""
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
    "FlowTable",
    "META_PRIORITY",
    "EVENT_PRIMARY",
    "EVENT_START",
    "EVENT_DETOUR",
]
