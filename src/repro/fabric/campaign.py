"""Campaign submission, aggregation, and local fleets.

The aggregator side of the fabric: :func:`run_fabric_campaign` publishes
one campaign to a store's work queue, blocks until every unit's
measurement record exists (produced by whatever workers share the store —
local fleet, other hosts on a shared filesystem), and merges the records
through :func:`~repro.store.report.aggregate` — the runner's own merge
path, so the result is byte-identical to a serial ``run_spec`` of the
same arguments.

:class:`LocalFleet` launches N :class:`~repro.fabric.worker.FabricWorker`
processes against a store directory; :func:`run_local_campaign` is the
one-shot convenience behind ``repro fabric run`` (fleet up → campaign →
fleet down).
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.exp.spec import ExperimentResult, get_spec
from repro.obs.telemetry import active as active_telemetry
from repro.fabric.queue import CampaignRequest, FabricError, WorkQueue
from repro.fabric.worker import DEFAULT_POLL, worker_main
from repro.store.report import aggregate
from repro.store.store import RunStore


def _as_store(store: Union[str, Path, RunStore]) -> RunStore:
    return store if isinstance(store, RunStore) else RunStore(store)


def submit_campaign(
    store: Union[str, Path, RunStore],
    name: str,
    reps: Optional[int] = None,
    networks: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    queue: Optional[WorkQueue] = None,
) -> CampaignRequest:
    """Publish one campaign to the store's queue and return its request.

    Unknown spec names and params raise here, before anything is
    published — a malformed campaign would otherwise fail inside every
    worker that picks it up.
    """
    get_spec(name).resolve(params)
    queue = queue or WorkQueue(_as_store(store))
    request = CampaignRequest(
        name=name,
        reps=reps,
        networks=tuple(networks) if networks else None,
        base_seed=base_seed,
        params=dict(params or {}),
    )
    queue.submit(request)
    return request


def wait_for_campaign(
    queue: WorkQueue,
    request: CampaignRequest,
    poll: float = DEFAULT_POLL,
    timeout: Optional[float] = None,
) -> None:
    """Block until every unit of ``request`` is done.

    Raises :class:`FabricError` when a unit is quarantined (the campaign
    can never complete: the error names the poison task) or when
    ``timeout`` seconds pass without completion.
    """
    units = queue.units_of(request)
    deadline = None if timeout is None else time.time() + timeout
    while True:
        poisoned = [u for u in units if queue.is_quarantined(u.key)]
        if poisoned:
            details = {e["key"]: e for e in queue.quarantine_entries()}
            lines = [
                f"  {u.label!r} rep {u.task.rep_index} (seed {u.task.seed}): "
                f"{details.get(u.key, {}).get('error', 'unknown error')}"
                for u in poisoned
            ]
            raise FabricError(
                f"campaign {request.name} has {len(poisoned)} quarantined "
                "unit(s) after repeated failures:\n" + "\n".join(lines)
            )
        if all(queue.is_done(u.key) for u in units):
            return
        if deadline is not None and time.time() > deadline:
            remaining = sum(1 for u in units if not queue.is_done(u.key))
            raise FabricError(
                f"campaign {request.name} timed out with {remaining}/"
                f"{len(units)} unit(s) incomplete — are any workers "
                "running against this store?"
            )
        time.sleep(poll)


def aggregate_campaign(
    store: RunStore, request: CampaignRequest
) -> ExperimentResult:
    """Merge a completed campaign's records; raises on missing ones."""
    result, missing = aggregate(
        store,
        request.name,
        reps=request.reps,
        networks=request.networks,
        base_seed=request.base_seed,
        params=request.params,
    )
    if missing:
        raise FabricError(
            f"campaign {request.name} aggregation is missing "
            f"{len(missing)} repetition(s): " + "; ".join(missing)
        )
    return result


def run_fabric_campaign(
    store: Union[str, Path, RunStore],
    name: str,
    reps: Optional[int] = None,
    networks: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    poll: float = DEFAULT_POLL,
    timeout: Optional[float] = None,
) -> ExperimentResult:
    """Submit one campaign and block as its aggregator.

    The workers are whoever shares the store; this function only
    publishes work, waits, and merges.  The merged result is
    byte-identical to ``run_spec`` with the same arguments.
    """
    store = _as_store(store)
    queue = WorkQueue(store)
    telemetry = active_telemetry()
    started = telemetry.now() if telemetry is not None else 0.0
    request = submit_campaign(store, name, reps=reps, networks=networks,
                              base_seed=base_seed, params=params, queue=queue)
    if telemetry is not None:
        # The submit span carries the unit keys, so the trace stitcher can
        # draw dispatch arrows from here to each worker's task span.
        telemetry.record_span(
            f"submit:{request.campaign_id}",
            "fabric",
            started,
            telemetry.now() - started,
            args={
                "campaign": request.campaign_id,
                "units": [u.key for u in queue.units_of(request)],
            },
        )
    wait_for_campaign(queue, request, poll=poll, timeout=timeout)
    agg_started = telemetry.now() if telemetry is not None else 0.0
    result = aggregate_campaign(store, request)
    if telemetry is not None:
        telemetry.record_span(
            f"aggregate:{request.campaign_id}",
            "fabric",
            agg_started,
            telemetry.now() - agg_started,
            args={"campaign": request.campaign_id},
        )
    queue.log_event("campaign-complete", campaign=request.campaign_id)
    return result


class LocalFleet:
    """N fabric worker processes against one store directory."""

    def __init__(
        self,
        store_dir: Union[str, Path],
        workers: int = 2,
        **worker_kwargs: Any,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker (got {workers})")
        self.store_dir = str(store_dir)
        self.n_workers = workers
        self.worker_kwargs = worker_kwargs
        self.processes: List[multiprocessing.process.BaseProcess] = []

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # Launching clears a stale stop flag so a fresh fleet on a reused
        # store directory does not exit immediately.
        WorkQueue(RunStore(self.store_dir)).clear_stop()
        for index in range(self.n_workers):
            kwargs = dict(self.worker_kwargs)
            kwargs.setdefault("worker_id", None)
            process = ctx.Process(
                target=worker_main,
                args=(self.store_dir,),
                kwargs=kwargs,
                name=f"fabric-worker-{index}",
                daemon=True,
            )
            process.start()
            self.processes.append(process)

    def stop(self, timeout: float = 30.0) -> None:
        """Raise the stop flag and join the fleet (terminate stragglers)."""
        WorkQueue(RunStore(self.store_dir)).request_stop()
        for process in self.processes:
            process.join(timeout=timeout)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self.processes = []

    def pids(self) -> List[Optional[int]]:
        return [process.pid for process in self.processes]


def run_local_campaign(
    store_dir: Union[str, Path],
    name: str,
    reps: Optional[int] = None,
    networks: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    workers: int = 2,
    poll: float = DEFAULT_POLL,
    timeout: Optional[float] = None,
    **worker_kwargs: Any,
) -> ExperimentResult:
    """One-shot local fabric run: fleet up, campaign, fleet down."""
    fleet = LocalFleet(store_dir, workers=workers, poll=poll, **worker_kwargs)
    with fleet:
        return run_fabric_campaign(
            store_dir,
            name,
            reps=reps,
            networks=networks,
            base_seed=base_seed,
            params=params,
            poll=poll,
            timeout=timeout,
        )


__all__ = [
    "LocalFleet",
    "aggregate_campaign",
    "run_fabric_campaign",
    "run_local_campaign",
    "submit_campaign",
    "wait_for_campaign",
]
