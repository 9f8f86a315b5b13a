"""Tier-1 smoke test of the benchmark harness (``bench/run.py --smoke``).

Runs the tiny profile twice — end to end, children and traced pass
included — and checks the contract the ledger rests on: every metric of
``BENCHMARK.json`` is printed by name with its unit, the exact counters
repeat bit for bit, and running the benchmark touches no tracked file.
The numbers themselves mean nothing at smoke sizes.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"

sys.path.insert(0, str(RUN.parent))
import run as bench_run  # noqa: E402  (bench/ is a script directory, not a package)


def _git_status():
    proc = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout if proc.returncode == 0 else None


def test_smoke_pass_prints_every_metric_and_repeats_exactly(tmp_path):
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    status_before = _git_status()

    # Two passes side by side: timing is irrelevant at smoke sizes.
    procs = [
        subprocess.Popen(
            [sys.executable, str(RUN), "--smoke", "--samples", "1",
             "--out", str(tmp_path / name)],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in ("first", "second")
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stdout + stderr

    # Every workload and every metric by name, each metric with its unit.
    stdout = outputs[0][0]
    for workload in definitions["workloads"]:
        assert f"== {workload['name']}:" in stdout
    metrics = definitions["end_to_end"] + definitions["per_layer"]
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"]), metric["name"]
        pattern = rf"^\s*~?{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}(?:\s|$)"
        assert re.search(pattern, stdout, re.MULTILINE), f"{metric['name']} not printed"

    first, second = (
        json.loads((tmp_path / name / "results.json").read_text())["workloads"]
        for name in ("first", "second")
    )
    assert set(first) == {w["name"] for w in definitions["workloads"]}
    for workload, entry in first.items():
        assert entry["ops_failed"] == 0, entry["failures"]
        assert entry["ops_attempted"] == 2
        assert entry["sim_digest"] == second[workload]["sim_digest"]
        for metric in definitions["per_layer"]:
            if bench_run.is_exact(metric):
                name = metric["name"]
                assert entry["per_layer"].get(name) == second[workload]["per_layer"].get(name), (
                    f"{workload}: {name} differs between two runs of one seed")

    assert _git_status() == status_before, "running the benchmark changed the work tree"


def test_compare_flags_a_regression(tmp_path):
    """``--compare`` on a doctored copy: +50 % wall is ``worse``."""
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())

    def summary(values):
        return bench_run.summarize(values, "s")

    def results(wall):
        entry = {"ops_attempted": 4, "ops_failed": 0, "failures": [], "sim_digest": "d",
                 "per_layer": {"sim.events": 10},
                 "end_to_end": {m["name"]: summary([1.0, 1.01, 1.02])
                                for m in definitions["end_to_end"]}}
        entry["end_to_end"]["wall_s"] = summary(wall)
        return {"definitions": definitions, "workloads": {"steady_jf100": entry}}

    paths = {}
    for name, wall in (("a", [1.0, 1.01, 1.02]), ("b", [1.5, 1.51, 1.52])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(results(wall)))
    assert bench_run.compare(str(paths["a"]), str(paths["a"])) == 0
    assert bench_run.compare(str(paths["a"]), str(paths["b"])) == 1
