"""Parallel repetition runner for declarative experiment specs.

The runner expands an :class:`~repro.exp.spec.ExperimentSpec` into a flat
list of repetition tasks, executes them — in-process or fanned out over a
``multiprocessing`` pool — and merges the outcomes into an
:class:`~repro.exp.spec.ExperimentResult`.

**Determinism contract.**  A repetition's measurement is a pure function
of ``(spec name, networks, params, case index, seed)``: the seed is
derived from ``(base_seed, rep_index)`` by :mod:`repro.exp.seeding`, the
measurement callable is rebuilt from the registry inside whichever
process runs the task, and outcomes are merged by ``(case, repetition)``
index rather than completion order.  Serial and parallel execution of the
same spec therefore produce bit-identical series — the property the
determinism tests pin down.

**Persistence.**  With a ``store`` the runner becomes resumable: each
completed repetition is written through to a content-addressed
:class:`~repro.store.store.RunStore` *from the process that ran it* (so
an interrupted sweep keeps everything finished so far), and a stored
repetition is loaded instead of measured on re-invocation.  The task's
identity dict doubles as the lookup key, which is why the pure-function
contract above matters: the same task always addresses the same record.
Underneath, the measurement executes with the store *active*, so every
:meth:`~repro.api.plan.RunPlan.run` it performs is content-addressed
too — a sweep re-filtered to other networks or repetitions still reuses
every simulation it already ran.

Workers receive only primitive task tuples; nothing closure-shaped ever
crosses the process boundary, so the runner works under both ``fork`` and
``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.exp.seeding import derive_seed
from repro.exp.spec import (
    CaseSpec,
    ExperimentResult,
    ExperimentSpec,
    Measurement,
    get_spec,
    trimmed,
)

#: How one repetition's value was obtained (``ExperimentResult.cache_stats``
#: tallies these): ``hit`` — measurement record loaded, nothing executed;
#: ``derived`` — measurement re-derived from cached run records, no
#: simulation; ``simulated`` — at least one simulation actually ran.
HIT, DERIVED, SIMULATED = "hit", "derived", "simulated"


@dataclass(frozen=True)
class RepetitionTask:
    """One unit of work: a single repetition of a single case."""

    spec_name: str
    networks: Optional[Tuple[str, ...]]
    params: Tuple[Tuple[str, object], ...]  # sorted (key, value) pairs
    case_index: int
    rep_index: int
    seed: int
    store_dir: Optional[str] = None
    refresh: bool = False


def measurement_identity(task: RepetitionTask, label: str) -> Dict[str, Any]:
    """The content-addressed identity of one repetition's measurement."""
    from repro.store.hashing import SCHEMA_VERSION

    return {
        "kind": "measurement",
        "schema": SCHEMA_VERSION,
        "spec": task.spec_name,
        "networks": list(task.networks) if task.networks else None,
        "params": [[k, v] for k, v in task.params],
        "label": label,
        "case_index": task.case_index,
        "rep": task.rep_index,
        "seed": task.seed,
    }


#: Store handles per (root, refresh), one per worker process: stats
#: accumulate across the tasks a worker executes.
_OPEN_STORES: Dict[Tuple[str, bool], "RunStore"] = {}


def _open_store(store_dir: str, refresh: bool):
    from repro.store.store import RunStore

    key = (store_dir, refresh)
    if key not in _OPEN_STORES:
        _OPEN_STORES[key] = RunStore(store_dir, refresh=refresh)
    return _OPEN_STORES[key]


def _execute_task(task: RepetitionTask) -> Tuple[int, int, Measurement, str]:
    """Run (or load) one repetition; top-level so workers can unpickle it."""
    spec = get_spec(task.spec_name)
    cases = spec.cases(networks=task.networks, **dict(task.params))
    case = cases[task.case_index]
    if task.store_dir is None:
        return task.case_index, task.rep_index, case.measure(task.seed), SIMULATED

    from repro.store.hashing import fingerprint
    from repro.store.store import use_store

    store = _open_store(task.store_dir, task.refresh)
    identity = measurement_identity(task, case.label)
    key = fingerprint(identity)
    record = store.get(key)
    if record is not None and record.get("kind") == "measurement":
        return task.case_index, task.rep_index, record["payload"]["value"], HIT

    loaded_before = store.stats.runs_loaded
    stored_before = store.stats.runs_stored
    with use_store(store):
        value = case.measure(task.seed)
    if store.stats.runs_stored > stored_before:
        status = SIMULATED  # at least one fresh simulation was persisted
    elif store.stats.runs_loaded > loaded_before:
        status = DERIVED  # re-derived entirely from cached run records
    else:
        # The measurement never touched a RunPlan (traffic/table specs
        # execute directly); it did its own work, so count it as such.
        status = SIMULATED
    store.put(
        key,
        identity,
        {"value": value},
        tags={
            "spec": task.spec_name,
            "label": case.label,
            "network": case.network,
            "rep": task.rep_index,
            "seed": task.seed,
        },
    )
    return task.case_index, task.rep_index, value, status


def default_workers() -> int:
    """Worker count when the caller does not choose one.

    ``REPRO_WORKERS`` overrides (the benchmark suite sets it); the default
    of 1 keeps library calls serial unless parallelism is asked for.
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return 1


def expand_tasks(
    name: str,
    reps: Optional[int] = None,
    networks: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, object]] = None,
    store_dir: Optional[str] = None,
    refresh: bool = False,
) -> Tuple[ExperimentSpec, List[CaseSpec], int, List[RepetitionTask]]:
    """Expand one spec invocation into its flat repetition task list.

    Shared by :func:`run_spec`, the store report aggregator and the
    fabric queue — they must enumerate identical tasks so lookups address
    the exact records a sweep wrote.  ``params`` is validated against the
    spec's schema here, but each task carries (and the store hashes)
    exactly what the caller passed, not the defaults-filled form.
    """
    spec = get_spec(name)
    networks_key = tuple(networks) if networks else None
    params = dict(params or {})
    params_key = tuple(sorted(params.items()))
    cases = spec.cases(networks=networks_key, **params)
    effective_reps = reps if reps is not None else spec.default_reps

    tasks: List[RepetitionTask] = []
    for case_index, case in enumerate(cases):
        n_reps = 1 if case.series else effective_reps
        for rep in range(n_reps):
            tasks.append(
                RepetitionTask(
                    spec_name=name,
                    networks=networks_key,
                    params=params_key,
                    case_index=case_index,
                    rep_index=rep,
                    seed=derive_seed(base_seed, rep),
                    store_dir=store_dir,
                    refresh=refresh,
                )
            )
    return spec, cases, effective_reps, tasks


def merge_measurements(
    spec: ExperimentSpec,
    cases: List[CaseSpec],
    effective_reps: int,
    grid: Dict[Tuple[int, int], Measurement],
) -> ExperimentResult:
    """Assemble the result from a (case, repetition) → value grid.

    One merge path for live sweeps and store-only reports: identical
    grids produce byte-identical serialized results.
    """
    result = ExperimentResult(name=spec.title, notes=spec.notes)
    for case_index, case in enumerate(cases):
        if case.series:
            value = grid.get((case_index, 0))
            result.series[case.label] = list(value) if value else []
            continue
        values = [
            grid[(case_index, rep)]
            for rep in range(effective_reps)
            if grid.get((case_index, rep)) is not None
        ]
        result.series[case.label] = trimmed(values) if case.trim else values
    return result


def run_spec(
    name: str,
    reps: Optional[int] = None,
    networks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    base_seed: int = 0,
    params: Optional[Dict[str, object]] = None,
    store: Optional[Union[str, Path, "RunStore"]] = None,
    refresh: bool = False,
) -> ExperimentResult:
    """Execute one registered experiment spec and merge its series.

    ``reps`` defaults to the spec's own repetition count; ``networks``
    restricts the case list; ``params`` overrides the spec's declared
    parameters (e.g. ``controller_counts`` for fig6 — a name the spec
    does not declare raises ``ValueError``).  ``workers > 1`` fans the
    repetitions out over a process pool; results are identical to
    ``workers=1`` for the same ``base_seed``.

    ``store`` (a directory path or an open
    :class:`~repro.store.store.RunStore`) makes the sweep resumable:
    completed repetitions are persisted as they finish and loaded instead
    of simulated on re-invocation.  ``refresh=True`` (the CLI's
    ``--no-cache``) recomputes everything while still writing through.
    The result's ``cache_stats`` tallies how each repetition was obtained.
    """
    store_dir: Optional[str] = None
    if store is not None:
        # NB: duck-typing on `.root` would be a trap here — pathlib paths
        # expose `.root` as the filesystem anchor ("/").
        from repro.store.store import RunStore

        if isinstance(store, RunStore):
            store_dir = str(store.root)
            refresh = refresh or store.refresh
        else:
            store_dir = str(store)
    spec, cases, effective_reps, tasks = expand_tasks(
        name,
        reps=reps,
        networks=networks,
        base_seed=base_seed,
        params=params,
        store_dir=store_dir,
        refresh=refresh,
    )

    n_workers = workers if workers is not None else default_workers()
    outcomes = _execute(tasks, n_workers)

    grid: Dict[Tuple[int, int], Measurement] = {
        (case_index, rep): value for case_index, rep, value, _status in outcomes
    }
    result = merge_measurements(spec, cases, effective_reps, grid)
    if store_dir is not None:
        stats = {HIT: 0, DERIVED: 0, SIMULATED: 0}
        for *_, status in outcomes:
            stats[status] += 1
        result.cache_stats = stats
    return result


def worker_initializer() -> None:
    """Per-process one-time setup for repetition workers.

    Loads the deferred spec registry once (instead of on the first task)
    and enables the memoized topology-resolution cache, so repeated
    repetitions of the same network in one worker stop re-running the
    generator and controller placement.  Import errors are deliberately
    swallowed here: a broken registry module re-raises from the first
    task's ``get_spec`` with a full traceback instead of killing the pool
    during initialization.

    Shared by the ``multiprocessing`` pool below and the fabric's
    persistent workers — the same warm-process semantics either way.
    """
    from repro.api.topology import enable_resolution_cache

    enable_resolution_cache()
    try:
        from repro.exp.spec import list_specs

        list_specs()
    except Exception:
        pass


def _execute(
    tasks: List[RepetitionTask], workers: int
) -> List[Tuple[int, int, Measurement, str]]:
    if workers <= 1 or len(tasks) <= 1:
        return [_execute_task(task) for task in tasks]
    ctx = _pool_context()
    with ctx.Pool(
        processes=min(workers, len(tasks)), initializer=worker_initializer
    ) as pool:
        # chunksize 1: repetition cost varies by orders of magnitude across
        # networks, so fine-grained dispatch keeps the pool balanced.
        return pool.map(_execute_task, tasks, chunksize=1)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


__all__ = [
    "DERIVED",
    "HIT",
    "SIMULATED",
    "RepetitionTask",
    "default_workers",
    "expand_tasks",
    "measurement_identity",
    "merge_measurements",
    "run_spec",
    "worker_initializer",
]
