"""Outside-in tracing for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :class:`Tracer` replaces
the layers' *public* entry points (the table below) with thin wrappers
that record one in-memory span ``(name, start, end, parent)`` per call;
the spans are written out once, when the run ends.  A layer's **self
time** is its spans' duration minus the part their direct child spans
cover, so the per-layer seconds of one run add up to the traced wall
(what is left over is reported as ``trace.unattributed_s``).

End-to-end numbers never come from a traced run: the wrappers cost a few
percent (``trace.overhead_ratio``), which is why tracing is a separate
pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Dict, List, Optional, Tuple

#: (module, class name or None for a module-level name, attribute, span name).
#: The span name is the per-layer metric the span's self time is reported
#: under.  Module-level names are patched where the *caller* looks them up:
#: ``plan_flow_rules`` as bound in ``repro.core.rules``, ``resolve_topology``
#: as bound in ``repro.api.plan``.
WRAPS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.self_s"),
    ("repro.net.discovery", "LocalDiscovery", "probe_round", "net.discovery.self_s"),
    ("repro.core.controller", "RenaissanceController", "iterate",
     "core.controller.iterate_self_s"),
    ("repro.core.controller", "RenaissanceController", "on_reply",
     "core.controller.on_reply_self_s"),
    ("repro.core.rules", "RuleGenerator", "rules_for_view", "core.rules.self_s"),
    ("repro.core.rules", None, "plan_flow_rules", "flows.failover.self_s"),
    ("repro.switch.abstract_switch", "AbstractSwitch", "handle_batch", "switch.self_s"),
    ("repro.core.legitimacy", "LegitimacyChecker", "is_legitimate",
     "core.legitimacy.probe_self_s"),
    ("repro.core.legitimacy", "RouteCache", "path", "core.legitimacy.route_self_s"),
    ("repro.api.plan", None, "resolve_topology", "api.resolve_topology_s"),
    ("repro.sim.network_sim", "NetworkSimulation", "__init__",
     "sim.network_sim.construct_s"),
    ("repro.net.topology", "Topology", "diameter", "net.topology.diameter_s"),
    ("repro.traffic.workload", "WorkloadSpec", "generate", "traffic.workload.generate_s"),
    ("repro.traffic.routes", "TenantFlows", "install", "traffic.routes.install_self_s"),
    ("repro.traffic.engine", "FluidTrafficEngine", "__init__", "traffic.engine.init_s"),
    ("repro.traffic.engine", "FluidTrafficEngine", "advance",
     "traffic.engine.advance_self_s"),
    ("repro.traffic.engine", "FluidTrafficEngine", "reroute",
     "traffic.engine.reroute_self_s"),
    ("repro.store.store", "RunStore", "put", "store.put_self_s"),
    ("repro.store.store", "RunStore", "get", "store.get_self_s"),
)

#: Layers whose cost belongs to set-up on most workloads: their self time
#: is summed over the whole process, every other layer's over the timed
#: region only.
SETUP_LAYERS = frozenset(
    {"api.resolve_topology_s", "sim.network_sim.construct_s", "net.topology.diameter_s"}
)

#: Span name → the counter that sums ``len(result)`` of its calls.
RESULT_SIZES = {"flows.failover.self_s": "flows.failover.hop_rules"}

#: Span name → the counter that counts its calls in the timed region.
CALL_COUNTS = {
    "net.discovery.self_s": "net.discovery.probe_rounds",
    "core.controller.on_reply_self_s": "core.controller.replies",
    "core.rules.self_s": "core.rules.lookups",
    "flows.failover.self_s": "flows.failover.plans",
    "core.legitimacy.probe_self_s": "core.legitimacy.probes",
    "traffic.engine.advance_self_s": "traffic.engine.advances",
    "traffic.engine.reroute_self_s": "traffic.engine.reroutes",
    "traffic.routes.install_self_s": "traffic.routes.installs",
}

ITERATE = "core.controller.iterate_self_s"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        #: ``[name index, start, end, parent span index or -1]`` per span.
        self.spans: List[List[float]] = []
        self.names: List[str] = []
        self.result_sizes: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self._timed: Optional[Tuple[float, float]] = None

    # -- recording ----------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def enter(self, name: str) -> int:
        """Open a span by hand (the workloads' own phases)."""
        index = len(self.spans)
        self.spans.append([self._name_index(name), time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        wrapped = getattr(owner, attribute)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_index = self._name_index(name)
        size_counter = RESULT_SIZES.get(name)
        sizes = self.result_sizes

        @functools.wraps(wrapped)
        def traced(*args, **kwargs):
            span = [name_index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = wrapped(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size_counter is not None:
                sizes[size_counter] = sizes.get(size_counter, 0) + len(result)
            return result

        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Wrap every entry point of :data:`WRAPS`."""
        for module_name, class_name, attribute, name in WRAPS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            self.wrap(owner, attribute, name)

    def timed_region(self, start: float, end: float) -> None:
        self._timed = (start, end)

    # -- analysis -----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer self seconds, call counts and the iterate percentiles."""
        if self._timed is None:
            raise RuntimeError("timed_region() was never set")
        t0, t1 = self._timed
        durations = [span[2] - span[1] for span in self.spans]
        self_time = list(durations)
        for index, span in enumerate(self.spans):
            parent = int(span[3])
            if parent >= 0:
                self_time[parent] -= durations[index]

        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        attributed = 0.0
        iterate_ms: List[float] = []
        for index, span in enumerate(self.spans):
            name = self.names[int(span[0])]
            in_timed = t0 <= span[1] <= t1
            if in_timed:
                attributed += self_time[index]
                calls[name] = calls.get(name, 0) + 1
                if name == ITERATE:
                    iterate_ms.append(durations[index] * 1000.0)
            if in_timed or name in SETUP_LAYERS:
                seconds[name] = seconds.get(name, 0.0) + self_time[index]

        metrics: Dict[str, float] = {name: seconds.get(name, 0.0) for *_, name in WRAPS}
        for name, counter in CALL_COUNTS.items():
            metrics[counter] = calls.get(name, 0)
        for counter in RESULT_SIZES.values():
            metrics[counter] = self.result_sizes.get(counter, 0)
        metrics["trace.unattributed_s"] = (t1 - t0) - attributed
        metrics.update(_iterate_percentiles(iterate_ms))
        return metrics

    def dump(self, path: str) -> None:
        """Write every span as ``[name, start, end, parent]`` (one JSON file)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "timed_region": self._timed,
                       "spans": self.spans}, fh)


def _iterate_percentiles(samples_ms: List[float]) -> Dict[str, float]:
    """Median and tail of the controller-iteration latency.

    The tail is the highest percentile that still has ten samples beyond
    it; its rank is reported beside it (0 when there are too few samples
    for any tail).
    """
    out = {"core.controller.iterate_p50_ms": 0.0,
           "core.controller.iterate_tail_ms": 0.0,
           "core.controller.iterate_tail_pct": 0.0}
    if not samples_ms:
        return out
    ordered = sorted(samples_ms)
    n = len(ordered)
    out["core.controller.iterate_p50_ms"] = ordered[n // 2]
    if n > 10:
        out["core.controller.iterate_tail_ms"] = ordered[n - 11]
        out["core.controller.iterate_tail_pct"] = 100.0 * (n - 10) / n
    return out
