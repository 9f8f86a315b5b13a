#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, one ledger.

    python bench/run.py [--seed N] [--workloads a,b] [--samples K]
                        [--out DIR] [--record] [--smoke]
    python bench/run.py --compare A.json B.json
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form is the one people run: every workload K times untraced
(interleaved round-robin, so slow drift of the host hits all workloads
alike), then once traced; it prints every metric by name with its unit,
checks the outputs and exits non-zero if any operation failed.  The second
compares two result files.  The third is the single-run form of the
benchmark contract in ``BENCHMARK.json``: one workload, measured for about
``--seconds`` seconds, one JSON object on the last line of stdout.

Every sample runs in a fresh child process (``--child``, internal) so
that peak memory and import cost are per sample; this parent process
stays small on purpose — a child's ``ru_maxrss`` starts at its parent's
resident size, so the parent imports neither ``repro`` nor numpy.

See ``bench/README.md`` for what the metrics mean and how to use them.
"""

from __future__ import annotations

import time

ENTERED = time.perf_counter()  # a child's set-up clock starts here

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out")
BASELINE = os.path.join(BENCH_DIR, "BASELINE.json")

#: How many set-ups the single-run form takes the ``setup_s`` median over.
SETUP_REPEATS = 3

#: Per-layer metrics that are not host times yet still vary between runs
#: of one seed (ratios of wall times, retries caused by host scheduling).
#: Everything else that is not a host time must repeat exactly — simulated
#: seconds included, which is why they carry a unit of their own (``sim_s``).
APPROXIMATE = frozenset(
    {
        "sim.events_per_wall_s",
        "exp.runner.pool_efficiency",
        "fabric.efficiency",
        "fabric.overhead_per_unit_ms",
        "fabric.retries",
        "trace.overhead_ratio",
    }
)
HOST_TIME_UNITS = frozenset({"s", "ms"})


def load_definitions() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def is_exact(metric: Dict[str, str]) -> bool:
    """Whether a per-layer metric must repeat exactly for a given seed."""
    return metric["unit"] not in HOST_TIME_UNITS and metric["name"] not in APPROXIMATE


# ---------------------------------------------------------------------------
# child: one sample
# ---------------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one sample of one workload and print its report as JSON."""
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    sample = workloads.Sample(
        seed=args.seed,
        sizes=workloads.SIZES["smoke" if args.smoke else "full"],
        entered=ENTERED,
        out_dir=args.out,
        tracer=tracer,
        setup_only=args.setup_only,
    )
    try:
        workloads.WORKLOADS[args.child](sample)
    except workloads.SetupOnly:
        pass
    except Exception as exc:  # the operation failed; the parent reports why
        sample.fail(f"{type(exc).__name__}: {exc}")
    report = sample.report()
    if tracer is not None and report["ok"]:
        counters = report["counters"]
        counters.update(tracer.layer_metrics())
        counters["trace.wall_s"] = sample.wall_s
        lookups = counters["core.rules.lookups"]
        if lookups and "core.rules.computations" in counters:
            counters["core.rules.hit_ratio"] = (
                1.0 - counters["core.rules.computations"] / lookups
            )
        os.makedirs(args.out, exist_ok=True)
        tracer.dump(os.path.join(args.out, f"spans-{args.child}-seed{args.seed}.json"))
    print(json.dumps(report))
    return 0


def run_child(
    workload: str,
    seed: int,
    out: str,
    trace: bool = False,
    smoke: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """One operation.  A child that dies or prints no report is a failed
    operation with the reason attached, never an exception here."""
    command = [sys.executable, os.path.abspath(__file__), "--child", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--out", out]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError
        return json.loads(lines[-1])
    except ValueError:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "reasons": [f"child exited {proc.returncode}: {tail}"]}


# ---------------------------------------------------------------------------
# the single-run form (the BENCHMARK.json contract)
# ---------------------------------------------------------------------------


def single_run(args: argparse.Namespace, definitions: Dict[str, Any]) -> int:
    names = [w["name"] for w in definitions["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2
    budget = args.seconds if args.seconds is not None else definitions["run_seconds"]
    reports: List[Dict[str, Any]] = []
    if args.trace:
        reports.append(run_child(args.workload, args.seed, args.out, trace=True))
        wanted = definitions["per_layer"]
    else:
        # Timed samples while another one fits in the budget, then as many
        # set-up-only passes as it takes to reach SETUP_REPEATS set-ups.
        spent = 0.0
        while True:
            report = run_child(args.workload, args.seed, args.out)
            reports.append(report)
            if not report["ok"]:
                break
            spent += report["wall_s"]
            if spent + report["wall_s"] > budget:
                break
        while all(r["ok"] for r in reports) and len(reports) < SETUP_REPEATS:
            reports.append(run_child(args.workload, args.seed, args.out, setup_only=True))
        wanted = definitions["end_to_end"]

    good = [r for r in reports if r["ok"]]
    timed = [r for r in good if r["wall_s"] > 0.0]
    failed = len(reports) - len(good)
    if len({r["sim_digest"] for r in timed}) > 1:
        failed += 1  # same seed, different simulated results
    for report in reports:
        for reason in report["reasons"]:
            print(f"FAILED {args.workload}: {reason}", file=sys.stderr)
    if not timed:
        return 1

    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in wanted:
        name = metric["name"]
        if args.trace:
            value = timed[0]["counters"].get(name, 0.0)
        elif name == "setup_s":
            value = statistics.median(r["setup_s"] for r in good)
        else:
            value = statistics.median(r[name] for r in timed)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(reports),
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# the full pass
# ---------------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    from importlib import metadata

    def quiet(fn):
        try:
            return fn()
        except Exception:
            return None

    commit = quiet(lambda: subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        check=True).stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": quiet(lambda: metadata.version("numpy")),
        "commit": commit,
    }


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    return {"unit": unit, "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": list(values)}


def workload_entry(
    untraced: List[Dict[str, Any]], traced: Dict[str, Any], definitions: Dict[str, Any]
) -> Dict[str, Any]:
    """One workload's ledger entry: end-to-end summaries of the untraced
    samples, the traced sample's per-layer table, and the verdicts."""
    reports = untraced + [traced]
    good = [r for r in untraced if r["ok"]]
    failures = [reason for r in reports for reason in r["reasons"]]
    digests = sorted({r["sim_digest"] for r in reports if r["ok"]})
    if len(digests) > 1:
        failures.append(f"same seed, {len(digests)} different sim_digests")
    entry: Dict[str, Any] = {
        "ops_attempted": len(reports),
        "ops_failed": len(reports) - sum(r["ok"] for r in reports) + (len(digests) > 1),
        "failures": failures,
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "end_to_end": {},
        "per_layer": {},
    }
    if good:
        for metric in definitions["end_to_end"]:
            entry["end_to_end"][metric["name"]] = summarize(
                [r[metric["name"]] for r in good], metric["unit"])
    if traced["ok"]:
        layers = dict(traced["counters"])
        if good:
            layers["trace.overhead_ratio"] = (
                layers["trace.wall_s"] / entry["end_to_end"]["wall_s"]["median"])
        entry["per_layer"] = layers
        # An exact counter the untraced samples also carry must agree.
        for metric in definitions["per_layer"]:
            name = metric["name"]
            seen = {r["counters"][name] for r in good if name in r["counters"]}
            if is_exact(metric) and seen - {layers.get(name)}:
                failures.append(f"{name} differs between samples of one seed: "
                                f"{sorted(seen | {layers.get(name)})}")
                entry["ops_failed"] += 1
    return entry


def full_pass(args: argparse.Namespace, definitions: Dict[str, Any]) -> int:
    known = [w["name"] for w in definitions["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in chosen if w not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    untraced: Dict[str, List[Dict[str, Any]]] = {w: [] for w in chosen}
    for round_index in range(args.samples):
        for workload in chosen:
            print(f"[{workload}] sample {round_index + 1}/{args.samples}",
                  file=sys.stderr, flush=True)
            untraced[workload].append(
                run_child(workload, args.seed, args.out, smoke=args.smoke))
    traced: Dict[str, Dict[str, Any]] = {}
    for workload in chosen:
        print(f"[{workload}] traced", file=sys.stderr, flush=True)
        traced[workload] = run_child(workload, args.seed, args.out, trace=True,
                                     smoke=args.smoke)

    results: Dict[str, Any] = {
        "profile": "smoke" if args.smoke else "full",
        "seed": args.seed,
        "samples": args.samples,
        "environment": environment(),
        "definitions": definitions,
        "workloads": {
            w: workload_entry(untraced[w], traced[w], definitions) for w in chosen
        },
    }
    any_failed = any(e["ops_failed"] for e in results["workloads"].values())

    print_results(results)
    os.makedirs(args.out, exist_ok=True)
    targets = [os.path.join(args.out, "results.json")] + ([BASELINE] if args.record else [])
    for path in targets:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path)}", file=sys.stderr)
    return 1 if any_failed else 0


def print_results(results: Dict[str, Any]) -> None:
    definitions = results["definitions"]
    env = results["environment"]
    print(f"# profile={results['profile']} seed={results['seed']} "
          f"samples={results['samples']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['commit']}")
    for workload, entry in results["workloads"].items():
        ok = entry["ops_attempted"] - entry["ops_failed"]
        print(f"\n== {workload}: ops {ok}/{entry['ops_attempted']} ok, "
              f"sim_digest {(entry['sim_digest'] or 'MISMATCH')[:16]}")
        for reason in entry["failures"]:
            print(f"   FAILED: {reason}")
        print("   -- end to end (untraced samples: median [min .. max] n) --")
        for name, s in entry["end_to_end"].items():
            print(f"   {name:<42} {s['median']:>14.4f} {s['unit']:<6} "
                  f"[{s['min']:.4f} .. {s['max']:.4f}] n={s['n']}")
        print("   -- per layer (traced run; ~ = varies between runs of one seed) --")
        extras = [{"name": "trace.overhead_ratio", "unit": "ratio"}]
        for metric in definitions["per_layer"] + extras:
            value = entry["per_layer"].get(metric["name"])
            if value is None:
                continue
            mark = " " if is_exact(metric) else "~"
            print(f"  {mark}{metric['name']:<42} {value:>14.4f} {metric['unit']}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """B against A, one row per (workload, end-to-end metric).

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: the run-to-run spread (max − min over the median, the
    wider side) exceeds the bound, so a difference of the bound's size
    cannot be seen — unless every sample of one side beats every sample of
    the other, which decides it anyway.  Exact counters must be equal.
    """
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    definitions = a["definitions"]
    bad = False
    print(f"{'workload':<18} {'metric':<12} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for metric in definitions["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sa, sb = wa["end_to_end"].get(name), wb["end_to_end"].get(name)
            if not sa or not sb:
                continue
            change = (sb["median"] - sa["median"]) / sa["median"]
            spread = max((s["max"] - s["min"]) / s["median"] for s in (sa, sb))
            if sb["min"] > sa["max"] and change > bound:
                verdict = "worse"
            elif sb["max"] < sa["min"] or (spread <= bound and change <= bound):
                verdict = "ok"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "worse"
            bad = bad or verdict == "worse"
            print(f"{workload:<18} {name:<12} {sa['median']:>12.4f} {sb['median']:>12.4f} "
                  f"{change:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}")
        share_a = wa["ops_failed"] / wa["ops_attempted"]
        share_b = wb["ops_failed"] / wb["ops_attempted"]
        if share_b > share_a:
            bad = True
            print(f"{workload:<18} failed share rose {share_a:.2f} -> {share_b:.2f}  worse")
        if wa["sim_digest"] != wb["sim_digest"]:
            print(f"{workload:<18} sim_digest differs: simulated results changed")
        for metric in definitions["per_layer"]:
            name = metric["name"]
            va, vb = wa["per_layer"].get(name), wb["per_layer"].get(name)
            if is_exact(metric) and va != vb:
                print(f"{workload:<18} {name}: {va} -> {vb}  (exact counter changed)")
    return 1 if bad else 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", help="comma-separated subset (full pass)")
    parser.add_argument("--samples", type=int, default=3, help="untraced samples per workload")
    parser.add_argument("--out", default=DEFAULT_OUT, help="untracked output directory")
    parser.add_argument("--record", action="store_true",
                        help="also write the results to bench/BASELINE.json")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", help="single-run form: the workload to measure")
    parser.add_argument("--seconds", type=float,
                        help="single-run form: measuring budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    definitions = load_definitions()
    if args.workload:
        return single_run(args, definitions)
    return full_pass(args, definitions)


if __name__ == "__main__":
    sys.exit(main())
