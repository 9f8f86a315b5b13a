"""Command-line interface: run reproduction experiments from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli bootstrap --network B4 --controllers 3 --reps 3
    python -m repro.cli bootstrap --network jellyfish:20x4 --json
    python -m repro.cli recover --network Telstra --fault link
    python -m repro.cli iperf --network Telstra [--no-recovery]
    python -m repro.cli traffic --topology jellyfish:200 --flows 100000 --store runs/
    python -m repro.cli sweep --figure fig5 --network Telstra --reps 8 --workers 4
    python -m repro.cli scenario --topology jellyfish:20 --campaign churn --reps 4
    python -m repro.cli stabilize --topology fattree:4 --corruption mixed --reps 3
    python -m repro.cli sweep --figure fig5 --network B4 --reps 3 --store runs/
    python -m repro.cli report --figure fig5 --network B4 --reps 3 --store runs/
    python -m repro.cli store verify --store runs/
    python -m repro.cli trace record --network fattree:4 --store runs/ --out boot.trace.json
    python -m repro.cli trace summary --store runs/
    python -m repro.cli fabric top --store runs/ --watch 2

Every simulation-running command constructs its runs through the public
facade (:mod:`repro.api`), so ``--network`` accepts both the named
Table-8 networks and the generated-topology specs (``fattree:4``,
``jellyfish:20x4``, ``ring:16``, ...).  ``bootstrap``, ``recover``,
``sweep``, and ``scenario`` take ``--json`` to emit the serializable
:class:`~repro.api.results.RunResult` / :class:`~repro.exp.spec.
ExperimentResult` record instead of human-readable rows, and ``--out
FILE`` to additionally write that JSON to disk.

``sweep`` and ``scenario`` take ``--store DIR`` to persist completed
repetitions into a content-addressed run store and resume from it
(``--no-cache`` recomputes while still writing through); ``report``
rebuilds figures/tables from a store with zero simulation, and ``store
ls``/``verify``/``reindex``/``gc`` inspect and repair one.

The distributed sweep fabric runs campaigns across independent worker
processes coordinated through a shared store directory: ``repro fabric
start --store DIR --workers N`` joins N persistent workers to the fleet
(run it on any host that mounts DIR), ``repro sweep --figure fig5
--fabric DIR`` submits the sweep's work units and blocks as the
aggregator, ``repro fabric run`` is the one-shot local convenience
(fleet up → campaign → fleet down), and ``repro fabric status``/``stop``
inspect and shut down a fleet.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.adversary.corruptions import CORRUPTIONS
from repro.adversary.schedulers import SCHEDULERS
from repro.api import (
    AwaitLegitimacy,
    Bootstrap,
    InjectFaults,
    RunPlan,
    RunResult,
    default_timeout,
    topology_spec_syntaxes,
    validate_topology_spec,
)
from repro.exp.runner import run_spec
from repro.exp.seeding import derive_seed
from repro.exp.spec import (
    CONTROLLERS_PARAM,
    SECTION6,
    TASK_DELAY_PARAM,
    THETA_PARAM,
    ExperimentResult,
    ExperimentSpec,
    Param,
    controller_fault,
    get_spec,
    link_fault,
    list_specs,
    positive_float,
    switch_fault,
    theta_value,
)
from repro.store import RunStore, aggregate, store_summary
from repro.net.topologies import TOPOLOGY_BUILDERS
from repro.scenarios.campaigns import CAMPAIGNS
from repro.scenarios.generators import GENERATORS, parse_topology
from repro.transport.traffic import (
    TrafficRun,
    place_hosts_at_max_distance,
    standalone_switches,
)


def _checked(parse: Callable[[str], object]) -> Callable[[str], object]:
    """argparse type: ``parse`` with its ``ValueError`` reported at parse
    time (a bad value would otherwise surface as a RemoteTraceback from
    deep inside a pool worker)."""

    def convert(value: str) -> object:
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


_network_spec = _checked(validate_topology_spec)
_positive_float = _checked(positive_float)
_theta_value = _checked(theta_value)


def _cli_params(*specs: ExperimentSpec) -> List[Param]:
    """The CLI-settable params of ``specs`` (those with a parser), a flag
    shared between specs listed once."""
    by_flag: Dict[str, Param] = {}
    for spec in specs:
        for param in spec.params:
            if param.parse is not None:
                by_flag.setdefault(param.cli_flag, param)
    return list(by_flag.values())


def _dest(param: Param) -> str:
    """Where a param's parsed flag lands on the argparse namespace."""
    return param.cli_flag.lstrip("-").replace("-", "_")


def _add_param_flags(parser: argparse.ArgumentParser, params: Iterable[Param]) -> None:
    """Generate one flag per param, straight from the schema."""
    for param in params:
        parser.add_argument(
            param.cli_flag,
            dest=_dest(param),
            type=_checked(param.parse),
            default=param.default,
            choices=param.choices,
            help=param.help,
        )


def _spec_params(args: argparse.Namespace, spec: ExperimentSpec) -> Dict[str, object]:
    """The spec's params as parsed from its generated flags.  One source
    for the run commands (which run under these params) and ``repro
    report`` (which must address records under the exact same params)."""
    return {param.name: getattr(args, _dest(param)) for param in _cli_params(spec)}


def _emit_json(doc: object, args: argparse.Namespace) -> None:
    """Serialize ``doc`` per the output flags: ``--json`` prints it to
    stdout (replacing the human rows), ``--out FILE`` writes it to disk."""
    if not (getattr(args, "json", False) or getattr(args, "out", None)):
        return
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.json:
        print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _quiet(args: argparse.Namespace) -> bool:
    """Human-readable rows are suppressed when stdout carries JSON."""
    return bool(getattr(args, "json", False))


def _store_of(args: argparse.Namespace):
    """The run store named by ``--store`` (with ``--no-cache`` applied),
    or ``None`` when persistence is off."""
    if not getattr(args, "store", None):
        return None
    return RunStore(args.store, refresh=getattr(args, "no_cache", False))


def _report_cache_stats(result, args: argparse.Namespace) -> None:
    """One stderr line of cache accounting — stderr so stdout stays
    byte-identical between cold and warm invocations (the resumability
    acceptance property, and what the CI resume-smoke job greps)."""
    stats = getattr(result, "cache_stats", None)
    if stats is None:
        return
    print(
        f"store: hits={stats['hit']} derived={stats['derived']} "
        f"simulated={stats['simulated']}",
        file=sys.stderr,
    )


def cmd_list(_args: argparse.Namespace) -> int:
    print("networks:", ", ".join(sorted(TOPOLOGY_BUILDERS)))
    print("figures:", ", ".join(sorted(spec.name for spec in SECTION6)))
    print(
        "scenario topologies:",
        ", ".join(syntax for _, syntax in GENERATORS.values()),
    )
    print("campaigns:", ", ".join(sorted(CAMPAIGNS)))
    print("corruptions:", ", ".join(sorted(CORRUPTIONS)))
    print("schedulers:", ", ".join(["none"] + sorted(SCHEDULERS)))
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    timeout = default_timeout(args.network)
    times: List[float] = []
    runs: List[RunResult] = []
    for rep in range(args.reps):
        result = (
            RunPlan(args.network, controllers=args.controllers,
                    seed=derive_seed(args.seed, rep))
            .configure(task_delay=args.task_delay, out_of_band=args.out_of_band)
            .then(Bootstrap(timeout=timeout))
            .run()
        )
        runs.append(result)
        t = result.bootstrap_time
        if t is None:
            if not _quiet(args):
                print(f"rep {rep}: TIMEOUT")
            continue
        times.append(t)
        if not _quiet(args):
            print(
                f"rep {rep}: bootstrapped in {t:.1f} s "
                f"(rules={result.metrics['rules_installed']}, "
                f"illegit-deletions={result.metrics['illegitimate_deletions']})"
            )
    if times and not _quiet(args):
        print(f"median: {sorted(times)[len(times) // 2]:.1f} s over {len(times)} reps")
    _emit_json(
        {
            "command": "bootstrap",
            "network": args.network,
            "controllers": args.controllers,
            "base_seed": args.seed,
            "runs": [run.to_dict() for run in runs],
        },
        args,
    )
    return 0 if times else 1


#: ``repro recover --fault`` choices: the Figure 10/13/12 fault builders.
RECOVER_FAULTS = {
    "controller": controller_fault,
    "link": link_fault,
    "switch": switch_fault,
}


def cmd_recover(args: argparse.Namespace) -> int:
    timeout = default_timeout(args.network)
    result = (
        RunPlan(args.network, controllers=args.controllers, seed=args.seed)
        .configure(task_delay=args.task_delay)
        .then(
            Bootstrap(timeout=timeout),
            InjectFaults(
                builder=RECOVER_FAULTS[args.fault],
                label=f"recover:{args.fault}",
            ),
            AwaitLegitimacy(timeout=timeout),
        )
        .run()
    )
    _emit_json(result.to_dict(), args)
    quiet = _quiet(args)
    if result.bootstrap_time is None:
        if not quiet:
            print("bootstrap timed out")
        return 1
    if not quiet:
        print(f"bootstrap: {result.bootstrap_time:.1f} s")
        print(f"injecting {args.fault} fault")
    if result.recovery_time is None:
        if not quiet:
            print("recovery timed out")
        return 1
    if not quiet:
        print(f"recovered in {result.recovery_time:.1f} s")
    return 0


def cmd_iperf(args: argparse.Namespace) -> int:
    """Single-pair transport probe (the Figure 15/16 measurement)."""
    topology = TOPOLOGY_BUILDERS[args.network]()
    pair = place_hosts_at_max_distance(topology)
    switches = standalone_switches(topology)
    run = TrafficRun(topology, switches, pair, recovery=not args.no_recovery)
    stats = run.run()
    print(f"hosts: {pair.a} <-> {pair.b} ({pair.distance} hops)")
    print("throughput (Mbit/s):", [round(x) for x in stats.throughput_series()])
    print("retransmissions (%):", [round(x, 1) for x in stats.retransmission_series()])
    return 0


def _report_result(
    args: argparse.Namespace,
    result: ExperimentResult,
    trailer: str,
    incomplete_message: Optional[str] = None,
) -> int:
    """The tail of every spec-running command: cache stats, JSON, rows,
    the ``-- ...`` trailer, and the exit code.

    With ``incomplete_message`` (the campaign commands, whose series are
    untrimmed) every repetition must have produced a value: the runner
    drops ``None`` measurements from the series, so the shortfall is
    counted and fails the command instead of reporting a clean
    distribution of survivors.  Without it (figure sweeps) only an
    entirely empty result fails.
    """
    _report_cache_stats(result, args)
    _emit_json(result.to_dict(), args)
    problem = None
    if incomplete_message is not None:
        # One series per case: scenario/stabilize build one case, traffic
        # builds one per metric.
        expected = args.reps * max(1, len(result.series))
        completed = sum(len(values) for values in result.series.values())
        if completed < expected:
            problem = f"{expected - completed}/{expected} {incomplete_message}"
    elif not any(result.series.values()):
        problem = "no data produced (all repetitions timed out?)"
    if not _quiet(args):
        for line in result.rows():
            print(line)
        print(trailer)
        if problem:
            print(problem)
    return 1 if problem else 0


def _run_spec_command(
    args: argparse.Namespace,
    name: str,
    headline: str,
    networks=None,
    params: Optional[Dict[str, object]] = None,
    incomplete_message: Optional[str] = None,
) -> int:
    """The one spec-running body behind ``sweep``, ``scenario``,
    ``stabilize`` and ``traffic``: optionally profile, run the spec
    through the repetition runner, report."""
    profiler = None
    if args.profile:
        import cProfile

        # Profiling needs the work in-process and deterministic: one
        # repetition, no worker fan-out (child processes would escape the
        # profiler).
        args.reps = 1
        args.workers = 1
        profiler = cProfile.Profile()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = run_spec(
        name,
        reps=args.reps,
        networks=networks,
        workers=args.workers,
        base_seed=args.seed,
        params=params,
        store=_store_of(args),
        refresh=args.no_cache,
    )
    if profiler is not None:
        profiler.disable()
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(30)
    elapsed = time.perf_counter() - started
    trailer = (
        f"-- {headline} reps={args.reps} seed={args.seed} "
        f"workers={args.workers}: {elapsed:.2f} s wall"
    )
    return _report_result(args, result, trailer, incomplete_message)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one experiment spec through the parallel repetition runner."""
    networks = tuple(args.network) if args.network else None
    if args.fabric:
        return _sweep_via_fabric(args, networks)
    return _run_spec_command(args, args.figure, f"sweep {args.figure}", networks)


def _sweep_via_fabric(args: argparse.Namespace, networks) -> int:
    """``repro sweep --fabric DIR``: submit the sweep's work units to the
    fabric queue at DIR and block as the aggregator.  The workers are
    whoever shares the store (``repro fabric start`` fleets, here or on
    other hosts); the merged output is byte-identical to a serial sweep."""
    from repro.fabric import FabricError, run_fabric_campaign

    if args.profile:
        print("error: --profile needs the work in-process; it cannot be "
              "combined with --fabric", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = run_fabric_campaign(
            args.fabric,
            args.figure,
            reps=args.reps,
            networks=networks,
            base_seed=args.seed,
            timeout=args.fabric_timeout,
        )
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    return _report_result(
        args,
        result,
        f"-- sweep {args.figure} reps={args.reps} seed={args.seed} "
        f"fabric={args.fabric}: {elapsed:.2f} s wall",
    )


def cmd_fabric(args: argparse.Namespace) -> int:
    """Manage the distributed sweep fabric: start/status/stop/run."""
    from repro.fabric import (
        FabricError,
        LocalFleet,
        WorkQueue,
        run_local_campaign,
        worker_main,
    )

    store = RunStore(args.store)
    if args.action == "start":
        queue = WorkQueue(store, ttl=args.ttl)
        worker_kwargs = dict(
            ttl=args.ttl,
            poll=args.poll,
            max_attempts=args.max_attempts,
            backoff=args.backoff,
            drain=args.drain,
            preload=tuple(args.preload or ()),
            trace=args.trace,
        )
        if args.workers == 1:
            # In-process: this very process is the worker (its pid is the
            # one to SIGKILL in crash-recovery drills).
            queue.clear_stop()
            stats = worker_main(args.store, **worker_kwargs)
            print(f"worker drained: {dict(stats) or 'no work'}")
            return 0
        fleet = LocalFleet(args.store, workers=args.workers, **worker_kwargs)
        fleet.start()
        print(f"fabric fleet: {args.workers} worker(s) on {args.store} "
              f"(pids {', '.join(str(p) for p in fleet.pids())})")
        print("stop with: repro fabric stop --store " + args.store)
        for process in fleet.processes:
            process.join()
        return 0
    if args.action == "status":
        return _fabric_status(store)
    if args.action == "top":
        return _fabric_top(store, watch=args.watch)
    if args.action == "stop":
        WorkQueue(store).request_stop()
        print(f"fabric {args.store}: stop requested (workers exit at "
              "their next poll)")
        return 0
    # run: one-shot local fleet + campaign + aggregate
    networks = tuple(args.network) if args.network else None
    started = time.perf_counter()

    def _campaign() -> ExperimentResult:
        return run_local_campaign(
            args.store,
            args.figure,
            reps=args.reps,
            networks=networks,
            base_seed=args.seed,
            workers=args.workers,
            ttl=args.ttl,
            poll=args.poll,
            max_attempts=args.max_attempts,
            backoff=args.backoff,
            timeout=args.fabric_timeout,
            trace=args.trace,
        )

    try:
        if args.trace:
            # The aggregator records its own track; each worker saves a
            # `worker:<id>` TRACE before the fleet context exits, so
            # `repro trace stitch --store` sees the whole campaign.
            from repro.obs.export import save_trace
            from repro.obs.telemetry import Telemetry, use_telemetry

            with use_telemetry(Telemetry()) as telemetry:
                result = _campaign()
            trace_key = save_trace(store, telemetry, label="aggregator")
            print(
                f"aggregator trace {trace_key[:12]} saved (merge the "
                f"campaign: repro trace stitch --store {args.store})"
            )
        else:
            result = _campaign()
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    return _report_result(
        args,
        result,
        f"-- fabric run {args.figure} reps={args.reps} seed={args.seed} "
        f"workers={args.workers}: {elapsed:.2f} s wall",
    )


def _fabric_status(store: RunStore) -> int:
    """Per-campaign progress, lease state, and quarantine for one store."""
    from repro.fabric import WorkQueue

    queue = WorkQueue(store)
    campaigns = queue.campaigns()
    print(f"fabric {store.root}: {len(campaigns)} campaign(s)")
    for request in campaigns:
        progress = queue.progress(request)
        print(
            f"  {request.campaign_id[:12]} spec={request.name} "
            f"seed={request.base_seed}: done={progress['done']}/"
            f"{progress['total']} leased={progress['leased']} "
            f"quarantined={progress['quarantined']}"
        )
    now = time.time()
    leases = queue.leases()
    if leases:
        print(f"leases ({len(leases)}):")
        for lease in leases:
            state = "cooldown" if not lease.token else (
                "active" if lease.expires_at > now else "expired"
            )
            print(
                f"  {lease.key[:12]} worker={lease.worker} "
                f"attempts={lease.attempts} {state} "
                f"expires-in={lease.expires_at - now:+.1f}s"
            )
    quarantined = queue.quarantine_entries()
    if quarantined:
        print(f"quarantine ({len(quarantined)}):")
        for entry in quarantined:
            print(
                f"  {entry.get('key', '?')[:12]} "
                f"attempts={entry.get('attempts')} "
                f"error={entry.get('error')}"
            )
    from repro.obs.dashboard import worker_stats

    stats = worker_stats(queue.events(), now=now)
    active = [w for w, s in stats.items() if s["active"]]
    print(
        f"workers: {len(active)} active, {len(stats)} ever started"
        + (f" ({', '.join(sorted(active))})" if active else "")
    )
    for worker in sorted(stats):
        digest = stats[worker]
        age = digest["heartbeat_age"]
        heartbeat = "never" if age is None else f"{age:.1f}s ago"
        print(
            f"  {worker}: heartbeat {heartbeat}, claims={digest['claims']} "
            f"done={digest['completes']} failed={digest['failures']} "
            f"renews={digest['renews']}"
        )
    if queue.stop_requested():
        print("stop flag is raised (fleet is shutting down)")
    return 0


def _fabric_top(store: RunStore, watch: float = 0.0) -> int:
    """``repro fabric top``: the live campaign dashboard (per-worker task
    rates, heartbeat ages, retry/quarantine counts, ETA), rendered from
    the fabric journal; ``--watch S`` refreshes every S seconds."""
    from repro.fabric import WorkQueue
    from repro.obs.dashboard import render_fabric_top

    queue = WorkQueue(store)
    while True:
        print(render_fabric_top(queue))
        if not watch:
            return 0
        try:
            time.sleep(watch)
        except KeyboardInterrupt:
            return 0
        print()


#: The campaign commands — one generated subcommand per entry, named
#: after the spec it runs: (subcommand help, the params its ``-- ...``
#: trailer summarizes, what a repetition without a value means).
CAMPAIGN_COMMANDS = {
    "scenario": (
        "run a fault campaign on a generated topology via the repetition runner",
        ("campaign",),
        "repetitions never reached a legitimate configuration (bootstrap "
        "or post-campaign re-convergence exceeded --timeout {timeout})",
    ),
    "stabilize": (
        "measure convergence from an arbitrary corrupted initial state",
        ("corruption", "scheduler"),
        "repetitions never stabilized to a legitimate configuration "
        "within --timeout {timeout}",
    ),
    "traffic": (
        "run a flow-level tenant workload under a fault campaign",
        ("campaign", "flows"),
        "repetitions recorded no traffic metrics (the traffic phase "
        "failed or exceeded --timeout {timeout})",
    ),
}


def cmd_campaign(args: argparse.Namespace) -> int:
    """``scenario`` / ``stabilize`` / ``traffic``: run the spec named by
    the subcommand under the params parsed from its generated flags."""
    _help, summarized, incomplete_message = CAMPAIGN_COMMANDS[args.command]
    try:
        # Without this a typo surfaces as a RemoteTraceback from inside a
        # pool worker.
        parse_topology(args.topology, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = _spec_params(args, get_spec(args.command))
    knobs = " ".join(f"{name}={params[name]}" for name in summarized)
    return _run_spec_command(
        args,
        args.command,
        f"{args.command} {args.topology} {knobs}",
        params=params,
        incomplete_message=incomplete_message.format(timeout=args.timeout),
    )


def _report_timings(store: RunStore) -> None:
    """Aggregate the per-phase host-cost breakdown over every stored run
    record that carries one (runs executed under telemetry): where the
    campaign's wall/CPU time actually went."""
    totals: Dict[str, Dict[str, float]] = {}
    timed_runs = 0
    for record in store.records():
        if record.get("kind") != "run":
            continue
        timings = record.get("payload", {}).get("timings") or []
        if timings:
            timed_runs += 1
        for timing in timings:
            bucket = totals.setdefault(
                timing.get("phase", "?"), {"wall": 0.0, "cpu": 0.0, "n": 0}
            )
            bucket["wall"] += float(timing.get("wall_seconds", 0.0))
            bucket["cpu"] += float(timing.get("cpu_seconds", 0.0))
            bucket["n"] += 1
    if not totals:
        print(
            "no timed run records (record some with telemetry active, e.g. "
            "repro trace record --store ...)"
        )
        return
    grand = sum(b["wall"] for b in totals.values())
    print(f"phase timings over {timed_runs} timed run(s):")
    for phase, bucket in sorted(
        totals.items(), key=lambda kv: -kv[1]["wall"]
    ):
        share = 100.0 * bucket["wall"] / grand if grand else 0.0
        print(
            f"  {phase}: wall={bucket['wall']:.3f}s ({share:.0f}%) "
            f"cpu={bucket['cpu']:.3f}s n={bucket['n']}"
        )


def cmd_report(args: argparse.Namespace) -> int:
    """Rebuild a figure/table purely from stored records — no simulation."""
    store = RunStore(args.store)
    if getattr(args, "timings", False):
        _report_timings(store)
        return 0
    if args.figure is None:
        print("error: --figure is required (or use --timings)", file=sys.stderr)
        return 2
    networks = tuple(args.network) if args.network else None
    result, missing = aggregate(
        store,
        args.figure,
        reps=args.reps,
        networks=networks,
        base_seed=args.seed,
        params=_spec_params(args, get_spec(args.figure)),
    )
    _emit_json(result.to_dict(), args)
    if not _quiet(args):
        for line in result.rows():
            print(line)
    if missing:
        print(
            f"store {args.store} is missing {len(missing)} repetition(s) "
            f"for {args.figure}:",
            file=sys.stderr,
        )
        for entry in missing:
            print(f"  {entry}", file=sys.stderr)
        print(
            "re-run the original sweep with --store to fill them",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record, export, and summarize telemetry traces.

    ``record`` runs one bootstrap under an active telemetry handle (the
    run always executes — a cached result would have nothing to trace),
    optionally persisting both the run record and a content-addressed
    TRACE record into ``--store``, and exporting Chrome trace-event JSON
    to ``--out``.  ``export`` re-exports a stored TRACE record;
    ``summary`` prints its counters/histograms/phase-timing digest
    (``--json`` for scripting); ``stitch`` merges every TRACE record in
    the store — the aggregator plus each ``worker:N`` track of a fabric
    campaign — into one Perfetto timeline with cross-worker flow arrows.
    """
    from repro.obs import Telemetry, use_telemetry
    from repro.obs.export import (
        chrome_trace_from_payload,
        find_traces,
        load_trace,
        save_trace,
        stitch_chrome_trace,
        to_chrome_trace,
        trace_payload,
        validate_chrome_trace,
    )

    if args.action == "record":
        timeout = args.timeout or default_timeout(args.network)
        overrides = {"task_delay": args.task_delay}
        if args.theta is not None:
            overrides["theta"] = args.theta
        plan = (
            RunPlan(args.network, controllers=args.controllers, seed=args.seed)
            .configure(**overrides)
            .then(Bootstrap(timeout=timeout))
        )
        with use_telemetry(Telemetry(flight_capacity=args.flight)) as telemetry:
            result = plan.session().run()
        run_key = None
        store = _store_of(args)
        if store is not None:
            from repro.store.hashing import fingerprint

            identity = plan.identity()
            run_key = fingerprint(identity)
            store.save_run(run_key, identity, result,
                           tags={"topology": args.network, "seed": args.seed})
            trace_key = save_trace(store, telemetry, run_key=run_key,
                                   label=args.label)
            print(f"trace {trace_key[:12]} recorded for run {run_key[:12]} "
                  f"in {args.store}")
        doc = to_chrome_trace(telemetry)
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=None, sort_keys=True)
                fh.write("\n")
            print(f"chrome trace ({len(doc['traceEvents'])} events) -> {args.out}")
        _print_trace_summary(trace_payload(telemetry), result)
        return 0 if result.ok else 1

    # export / summary / stitch read stored TRACE records
    if not args.store:
        print(f"error: trace {args.action} needs --store DIR", file=sys.stderr)
        return 2
    store = RunStore(args.store)
    if args.action == "stitch":
        entries = []
        for trace_key in find_traces(store):
            record = load_trace(store, trace_key)
            if record is None:
                continue
            # Per-run traces (keyed by a run record) are single-run
            # post-mortems; the campaign timeline stitches the *session*
            # traces — the aggregator and worker:N tracks.
            if record["identity"].get("run"):
                continue
            entries.append({
                "label": record["identity"].get("label") or trace_key[:12],
                "payload": record["payload"],
            })
        if not entries:
            print(f"error: no trace records in {args.store} "
                  "(run a campaign with: repro fabric run --trace ...)",
                  file=sys.stderr)
            return 1
        doc = stitch_chrome_trace(entries)
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        out = args.out or "stitched.trace.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=None, sort_keys=True)
            fh.write("\n")
        labels = ", ".join(sorted(entry["label"] for entry in entries))
        print(f"stitched {len(entries)} trace(s) [{labels}] "
              f"({len(doc['traceEvents'])} events) -> {out}  "
              f"(load in https://ui.perfetto.dev)")
        return 0
    key = args.key
    if key is None:
        traces = find_traces(store)
        if not traces:
            print(f"error: no trace records in {args.store} "
                  "(record one with: repro trace record --store ...)",
                  file=sys.stderr)
            return 1
        key = traces[-1]
    record = load_trace(store, key)
    if record is None:
        print(f"error: no trace record at key {key}", file=sys.stderr)
        return 1
    payload = record["payload"]
    if args.action == "export":
        doc = chrome_trace_from_payload(payload)
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        out = args.out or f"{key[:12]}.trace.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=None, sort_keys=True)
            fh.write("\n")
        print(f"chrome trace {key[:12]} ({len(doc['traceEvents'])} events) "
              f"-> {out}  (load in https://ui.perfetto.dev)")
        return 0
    # summary
    if args.json:
        digest = {
            "key": key,
            "run": record["identity"].get("run"),
            "label": record["identity"].get("label", ""),
            "trace_schema": record["identity"].get("trace_schema", 1),
            "summary": payload.get("summary", {}),
            "n_spans": len(payload.get("spans", [])),
            "n_causal_events": sum(
                len(log.get("events", []))
                for log in payload.get("causal", [])
            ),
        }
        print(json.dumps(digest, indent=2, sort_keys=True))
        return 0
    print(f"trace {key[:12]} (run={record['identity'].get('run')})")
    _print_trace_summary(payload)
    return 0


def _print_trace_summary(payload: Dict[str, object], result=None) -> None:
    """Human digest of one trace payload: counters, histograms, phase
    wall/CPU breakdown, flight dumps."""
    summary = payload.get("summary", {})
    counters = summary.get("counters", {})
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name}: {counters[name]}")
    for name, histogram in sorted(summary.get("histograms", {}).items()):
        mean = histogram.get("mean")
        print(
            f"histogram {name}: n={histogram.get('count')} "
            f"mean={mean:.6f}s max={histogram.get('max'):.6f}s"
            if mean is not None
            else f"histogram {name}: empty"
        )
    spans = payload.get("spans", [])
    phase_spans = [s for s in spans if s.get("cat") == "phase"]
    if phase_spans:
        print("phases:")
        for span in phase_spans:
            print(f"  {span['name']}: {span['dur_wall']:.3f}s wall")
    if result is not None and result.timings:
        print("timings:")
        for timing in result.timings:
            print(
                f"  {timing['phase']}: wall={timing['wall_seconds']:.3f}s "
                f"cpu={timing['cpu_seconds']:.3f}s "
                f"sim={timing['sim_seconds']:.1f}s"
            )
    dumps = summary.get("flight_dumps", [])
    for dump in dumps:
        print(
            f"flight dump ({dump.get('reason')}): last {dump.get('n_events')} "
            f"events at t_sim={dump.get('t_sim')}"
        )
    print(f"spans: {summary.get('n_spans', len(spans))}")


def cmd_explain(args: argparse.Namespace) -> int:
    """Convergence forensics: root-cause a stored run or trace.

    Walks the trace's happens-before provenance DAG from the symptom (a
    legitimacy probe that never turned green, a flight dump) back to the
    injected corruption or fault, and prints the propagation chain plus
    any secondary anomalies.  With no KEY, picks the most recent *failed*
    run in the store (falling back to the newest trace); a run without a
    persisted trace is replayed deterministically from its
    content-addressed identity.  Exit status: 0 when the run converged,
    1 when the forensics confirm a failure.
    """
    from repro.obs.explain import explain_run

    store = RunStore(args.store)
    try:
        explanation = explain_run(store, key=args.key)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2, sort_keys=True))
    else:
        if explanation.source:
            print(f"explaining {explanation.source} "
                  f"({explanation.n_events} causal events)")
        print(explanation.render())
    return 0 if explanation.ok else 1


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect or repair a run store: ls / verify / reindex / gc."""
    store = RunStore(args.store)
    if args.action == "gc":
        from repro.fabric import WorkQueue

        pruned = WorkQueue(store).gc(grace=args.grace)
        tmp_removed = store.prune_tmp(max_age=args.tmp_age)
        print(
            f"store {args.store}: gc removed {pruned['leases']} expired "
            f"lease(s), {pruned['orphans']} orphaned fabric file(s), "
            f"{tmp_removed} stale tmp file(s)"
        )
        return 0
    if args.action == "ls":
        summary = store_summary(store)
        print(f"store {args.store}: {summary['records']} record(s)")
        for kind, count in summary["by_kind"].items():
            print(f"  {kind}: {count}")
        for series, count in summary["by_series"].items():
            print(f"    {series}: {count}")
        return 0
    if args.action == "verify":
        problems = store.verify()
        if not problems:
            print(f"store {args.store}: ok ({len(store.keys())} object(s))")
            return 0
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    # reindex
    count = store.reindex()
    print(f"store {args.store}: manifest rebuilt ({count} record(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Renaissance reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list networks and figures").set_defaults(fn=cmd_list)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="base seed; repetition i derives its randomness from (seed, i)",
    )

    # The single-run commands take the same --controllers/--task-delay
    # the campaign specs declare.
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    _add_param_flags(common, [CONTROLLERS_PARAM, TASK_DELAY_PARAM])
    common.add_argument(
        "--network",
        default="B4",
        type=_network_spec,
        metavar="SPEC",
        help="a Table-8 name or a generated-topology spec: "
        + ", ".join(topology_spec_syntaxes()),
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--json", action="store_true",
        help="print the serialized run record instead of human rows",
    )
    output.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the serialized run record to FILE",
    )

    # What every spec-running command (sweep and the campaign commands)
    # takes besides its spec's own params.
    running = argparse.ArgumentParser(add_help=False, parents=[seeded])
    running.add_argument(
        "--store", metavar="DIR", default=None,
        help="persist completed repetitions to (and resume from) this "
        "content-addressed run store",
    )
    running.add_argument(
        "--no-cache", action="store_true",
        help="recompute every repetition (still writes through to --store)",
    )
    running.add_argument("--workers", type=int, default=1)
    running.add_argument(
        "--profile", action="store_true",
        help="cProfile the run in-process (forces --reps 1 --workers 1) "
             "and print the top cumulative-time functions to stderr",
    )

    boot = sub.add_parser(
        "bootstrap", parents=[common, output], help="measure bootstrap time"
    )
    boot.add_argument("--reps", type=int, default=3)
    boot.add_argument("--out-of-band", action="store_true")
    boot.set_defaults(fn=cmd_bootstrap)

    rec = sub.add_parser(
        "recover", parents=[common, output], help="measure failure recovery"
    )
    rec.add_argument("--fault", default="link", choices=["controller", "link", "switch"])
    rec.set_defaults(fn=cmd_recover)

    iperf = sub.add_parser(
        "iperf", help="single-pair throughput under a link failure"
    )
    iperf.add_argument("--network", default="Telstra", choices=sorted(TOPOLOGY_BUILDERS))
    iperf.add_argument("--no-recovery", action="store_true")
    iperf.set_defaults(fn=cmd_iperf)

    # Which slice of a figure spec `sweep` runs and `report` rebuilds.
    selecting = argparse.ArgumentParser(add_help=False)
    selecting.add_argument(
        "--network",
        action="append",
        choices=sorted(TOPOLOGY_BUILDERS),
        help="restrict to one network (repeatable); default: the spec's own list",
    )
    selecting.add_argument("--reps", type=int, default=None,
                           help="repetitions per data point (default: the spec's)")

    sweep = sub.add_parser(
        "sweep",
        parents=[output, running, selecting],
        help="run an experiment spec via the parallel repetition runner",
    )
    sweep.add_argument("--figure", required=True, choices=list_specs())
    sweep.add_argument("--fabric", metavar="DIR", default=None,
                       help="submit the sweep's work units to the fabric "
                            "queue at DIR and block as the aggregator "
                            "(workers: repro fabric start --store DIR)")
    sweep.add_argument("--fabric-timeout", type=_positive_float, default=None,
                       metavar="S",
                       help="give up aggregating after S seconds (default: "
                            "block until the fleet finishes)")
    sweep.set_defaults(fn=cmd_sweep)

    fab = sub.add_parser(
        "fabric",
        parents=[output],
        help="distributed sweep fabric: persistent workers coordinated "
             "through a shared run store",
    )
    fab.add_argument("action", choices=["start", "status", "top", "stop", "run"])
    fab.add_argument("--watch", type=_positive_float, default=None, metavar="S",
                     help="top: refresh the dashboard every S seconds "
                          "(default: render once and exit)")
    fab.add_argument("--store", metavar="DIR", required=True,
                     help="the shared run store coordinating the fleet")
    fab.add_argument("--workers", type=int, default=2,
                     help="worker processes (start/run); --workers 1 runs "
                          "the worker in this very process")
    fab.add_argument("--ttl", type=_positive_float, default=30.0,
                     help="lease time-to-live in seconds; a crashed "
                          "worker's unit is re-claimed after this")
    fab.add_argument("--poll", type=_positive_float, default=0.2,
                     help="idle poll interval in seconds")
    fab.add_argument("--max-attempts", type=int, default=3,
                     help="quarantine a task after this many failed attempts")
    fab.add_argument("--backoff", type=_positive_float, default=0.5,
                     help="base retry backoff in seconds (doubles per attempt)")
    fab.add_argument("--drain", action="store_true",
                     help="exit workers once no pending work remains "
                          "instead of polling for new campaigns")
    fab.add_argument("--preload", action="append", metavar="MODULE",
                     help="import MODULE in each worker before draining "
                          "(extra experiment-spec registrations); repeatable")
    fab.add_argument("--figure", choices=list_specs(), default="fig5",
                     help="the spec to run (action: run)")
    fab.add_argument("--network", action="append",
                     choices=sorted(TOPOLOGY_BUILDERS),
                     help="restrict to one network (repeatable; action: run)")
    fab.add_argument("--reps", type=int, default=None,
                     help="repetitions per data point (action: run)")
    fab.add_argument("--seed", type=int, default=0,
                     help="base seed (action: run)")
    fab.add_argument("--fabric-timeout", type=_positive_float, default=None,
                     metavar="S",
                     help="give up after S seconds (action: run)")
    fab.add_argument("--trace", action="store_true",
                     help="record per-worker TRACE records (and, for "
                          "action run, an aggregator trace) into the "
                          "store — merge with: repro trace stitch")
    fab.set_defaults(fn=cmd_fabric)

    # Each campaign command's flags are its spec's declared params;
    # `report` takes the union, so stored records and report lookups are
    # addressed under params built from one definition.
    campaign_specs = [get_spec(name) for name in CAMPAIGN_COMMANDS]
    for spec in campaign_specs:
        command = sub.add_parser(
            spec.name, parents=[output, running], help=CAMPAIGN_COMMANDS[spec.name][0]
        )
        params = _cli_params(spec)
        if spec.name == "traffic":
            # Inert here (traffic's control-plane depth is --control-plane
            # and it consumes no Θ), but `traffic` has always accepted them.
            params += [CONTROLLERS_PARAM, THETA_PARAM]
        _add_param_flags(command, params)
        command.add_argument("--reps", type=int, default=spec.default_reps)
        command.set_defaults(fn=cmd_campaign)

    report = sub.add_parser(
        "report",
        parents=[output, seeded, selecting],
        help="rebuild a figure/table from a run store, with zero simulation",
    )
    _add_param_flags(report, _cli_params(*campaign_specs))
    report.add_argument("--figure", default=None, choices=list_specs(),
                        help="the spec to rebuild (required unless --timings)")
    report.add_argument("--store", metavar="DIR", required=True,
                        help="the run store a sweep/scenario wrote with --store")
    report.add_argument("--timings", action="store_true",
                        help="instead of a figure, print the per-phase "
                             "wall/CPU breakdown aggregated over every "
                             "telemetry-timed run record in the store")
    report.set_defaults(fn=cmd_report)

    trace = sub.add_parser(
        "trace",
        parents=[common],
        help="record, export, and summarize telemetry traces "
             "(Chrome trace-event JSON, Perfetto-loadable)",
    )
    trace.add_argument("action", choices=["record", "export", "summary",
                                          "stitch"])
    trace.add_argument("--theta", type=_theta_value, default=None,
                       help="discovery-probe rounds Θ (default: derived "
                            "from the topology)")
    trace.add_argument("--timeout", type=_positive_float, default=None,
                       help="bootstrap timeout in simulated seconds "
                            "(default: the network's)")
    trace.add_argument("--flight", type=int, default=256, metavar="N",
                       help="flight-recorder depth: keep the last N "
                            "simulator events (record)")
    trace.add_argument("--label", default="",
                       help="free-form label stored in the TRACE record's "
                            "identity (record)")
    trace.add_argument("--store", metavar="DIR", default=None,
                       help="run store holding TRACE records (required for "
                            "export/summary; optional for record)")
    trace.add_argument("--key", default=None,
                       help="TRACE record key (default: the most recent "
                            "trace in the store)")
    trace.add_argument("--out", metavar="FILE", default=None,
                       help="write the Chrome trace-event JSON here")
    trace.add_argument("--json", action="store_true",
                       help="summary: print a machine-readable digest "
                            "instead of human rows")
    trace.set_defaults(fn=cmd_trace, no_cache=False)

    explain = sub.add_parser(
        "explain",
        help="convergence forensics: walk a stored run's provenance DAG "
             "from the failure symptom back to the injected "
             "corruption/fault",
    )
    explain.add_argument("key", nargs="?", default=None,
                         help="run or TRACE record key (default: the most "
                              "recent failed run, else the newest trace)")
    explain.add_argument("--store", metavar="DIR", required=True,
                         help="the run store holding the run/trace records")
    explain.add_argument("--json", action="store_true",
                         help="print the report as JSON for scripting")
    explain.set_defaults(fn=cmd_explain)

    store = sub.add_parser("store", help="inspect or repair a run store")
    store.add_argument("action", choices=["ls", "verify", "reindex", "gc"])
    store.add_argument("--store", metavar="DIR", required=True)
    store.add_argument("--grace", type=float, default=0.0,
                       help="gc: only remove leases expired at least this "
                            "many seconds ago (default 0: any expired lease)")
    store.add_argument("--tmp-age", type=_positive_float, default=3600.0,
                       help="gc: remove orphaned .tmp files older than this "
                            "many seconds")
    store.set_defaults(fn=cmd_store)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
