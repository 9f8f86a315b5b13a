"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "B4" in out and "fig5" in out


def test_bootstrap_command(capsys):
    assert main(["bootstrap", "--network", "Clos", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "bootstrapped" in out
    assert "median" in out


def test_recover_command(capsys):
    assert main(["recover", "--network", "B4", "--fault", "link"]) == 0
    out = capsys.readouterr().out
    assert "recovered in" in out


def test_recover_switch_fault_victim_follows_the_seed(capsys):
    """``recover --fault switch`` shares Figure 12's builder: the removed
    switch is drawn from the run's fault stream, not fixed per topology."""
    from repro.obs import ProvenanceDAG, Telemetry, use_telemetry
    from repro.obs.export import trace_payload

    victims = set()
    for seed in ("0", "1"):
        with use_telemetry(Telemetry()) as telemetry:
            assert main(["recover", "--network", "B4", "--fault", "switch",
                         "--seed", seed]) == 0
        dag = ProvenanceDAG.from_payload(trace_payload(telemetry))
        (fault,) = dag.find(fault_id=...)
        victims.add(tuple(fault.tags["target"]))
    assert len(victims) == 2


def test_iperf_command(capsys):
    assert main(["iperf", "--network", "B4"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out


TRAFFIC_FAST = ["--topology", "jellyfish:12", "--flows", "2000",
                "--pairs", "16", "--duration", "6"]

from repro.traffic import HAVE_NUMPY

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="traffic engine needs numpy"
)


@requires_numpy
def test_traffic_command(capsys):
    assert main(["traffic", *TRAFFIC_FAST, "--reps", "1"]) == 0
    out = capsys.readouterr().out
    for metric in ("goodput", "disrupted", "fct-p99"):
        assert f"jellyfish:12 churn {metric}" in out


@requires_numpy
def test_traffic_serial_and_parallel_rows_match(capsys):
    base = ["traffic", *TRAFFIC_FAST, "--reps", "2", "--seed", "0"]
    assert main(base + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out.splitlines()
    assert main(base + ["--workers", "3"]) == 0
    parallel = capsys.readouterr().out.splitlines()
    strip = lambda lines: [l for l in lines if not l.startswith("-- traffic")]
    assert strip(serial) == strip(parallel)


@requires_numpy
def test_traffic_store_cold_then_warm(tmp_path, capsys):
    """One simulation serves all three metrics (DERIVED), and a second
    invocation resumes entirely from the store (HIT) with byte-identical
    stdout."""
    store = str(tmp_path / "runs")
    base = ["traffic", *TRAFFIC_FAST, "--reps", "1", "--store", store]
    assert main(base) == 0
    cold = capsys.readouterr()
    assert "store: hits=0 derived=2 simulated=1" in cold.err
    assert main(base) == 0
    warm = capsys.readouterr()
    assert "store: hits=3 derived=0 simulated=0" in warm.err
    strip = lambda text: [l for l in text.splitlines()
                          if not l.startswith("-- traffic")]
    assert strip(cold.out) == strip(warm.out)


@requires_numpy
def test_traffic_json_output(capsys):
    assert main(["traffic", *TRAFFIC_FAST, "--reps", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "jellyfish:12 churn goodput" in doc["series"]


def test_sweep_command_table8(capsys):
    assert main(["sweep", "--figure", "table8"]) == 0
    out = capsys.readouterr().out
    assert "Table 8" in out


def test_all_figures_registered():
    from repro.exp.spec import SECTION6

    expected = {
        "table8", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "table17",
        "fig18", "fig19", "fig20",
    }
    assert {spec.name for spec in SECTION6} == expected


def test_parser_rejects_unknown_network():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bootstrap", "--network", "nope"])


def test_sweep_command(capsys):
    assert main([
        "sweep", "--figure", "fig5", "--network", "B4", "--reps", "2", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "workers=2" in out


def test_sweep_serial_and_parallel_rows_match(capsys):
    main(["sweep", "--figure", "fig5", "--network", "Clos", "--reps", "2", "--workers", "1"])
    serial = capsys.readouterr().out.splitlines()
    main(["sweep", "--figure", "fig5", "--network", "Clos", "--reps", "2", "--workers", "3"])
    parallel = capsys.readouterr().out.splitlines()
    strip = lambda lines: [l for l in lines if not l.startswith("-- sweep")]
    assert strip(serial) == strip(parallel)


def test_sweep_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--figure", "fig99"])


SCENARIO_FAST = ["--task-delay", "0.1", "--theta", "4", "--controllers", "2"]


def test_scenario_command(capsys):
    assert main([
        "scenario", "--topology", "ring:8", "--campaign", "flapping",
        "--reps", "2", "--workers", "2", "--seed", "0", *SCENARIO_FAST,
    ]) == 0
    out = capsys.readouterr().out
    assert "ring:8 flapping" in out
    assert "workers=2" in out


def test_scenario_serial_and_parallel_rows_match(capsys):
    base = ["scenario", "--topology", "jellyfish:8", "--campaign", "churn",
            "--reps", "2", "--seed", "0", *SCENARIO_FAST]
    main(base + ["--workers", "1"])
    serial = capsys.readouterr().out.splitlines()
    main(base + ["--workers", "3"])
    parallel = capsys.readouterr().out.splitlines()
    strip = lambda lines: [l for l in lines if not l.startswith("-- scenario")]
    assert strip(serial) == strip(parallel)


def test_scenario_rejects_unknown_campaign():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scenario", "--campaign", "tsunami"])


def test_scenario_reports_non_convergent_repetitions(capsys):
    """Repetitions the runner drops (None measurements) must be counted
    and fail the command, not silently vanish from the series."""
    assert main([
        "scenario", "--topology", "ring:6", "--campaign", "churn",
        "--reps", "2", "--timeout", "0.4", *SCENARIO_FAST,
    ]) == 1
    out = capsys.readouterr().out
    assert "2/2 repetitions never reached a legitimate configuration" in out


def test_scenario_rejects_malformed_topology_before_running(capsys):
    assert main(["scenario", "--topology", "gird:3x3", "--campaign", "churn"]) == 2
    err = capsys.readouterr().err
    assert "unknown topology" in err


def test_list_shows_scenario_families_and_campaigns(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "jellyfish" in out and "churn" in out


def test_bootstrap_accepts_generated_topology_spec(capsys):
    """The unified spec syntax: generator specs work on every command."""
    assert main(["bootstrap", "--network", "ring:6", "--controllers", "2",
                 "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "bootstrapped" in out


def test_bootstrap_json_output_parses(capsys):
    assert main(["bootstrap", "--network", "fattree:4", "--reps", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "bootstrap"
    assert doc["network"] == "fattree:4"
    run = doc["runs"][0]
    assert run["summary"]["ok"] is True
    assert run["summary"]["bootstrap_time"] > 0
    assert run["phases"][0]["phase"] == "bootstrap"


def test_recover_json_round_trips_to_run_result(capsys):
    from repro.api import RunResult

    assert main(["recover", "--network", "B4", "--fault", "link", "--json"]) == 0
    result = RunResult.from_json(capsys.readouterr().out)
    assert result.ok
    assert result.recovery_time is not None
    assert [p.phase for p in result.phases] == [
        "bootstrap", "inject_faults", "await_legitimacy",
    ]


def test_sweep_json_and_out_file(tmp_path, capsys):
    from repro.exp.spec import ExperimentResult

    artifact = tmp_path / "sweep.json"
    assert main(["sweep", "--figure", "fig5", "--network", "B4", "--reps", "2",
                 "--json", "--out", str(artifact)]) == 0
    stdout_doc = json.loads(capsys.readouterr().out)
    file_doc = json.loads(artifact.read_text())
    assert stdout_doc == file_doc
    result = ExperimentResult.from_dict(file_doc)
    assert result.series["B4"] == [5.0, 4.5]


def test_scenario_json_output(capsys):
    assert main([
        "scenario", "--topology", "ring:8", "--campaign", "flapping",
        "--reps", "1", "--seed", "0", "--json", *SCENARIO_FAST,
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "ring:8 flapping" in doc["series"]


def test_out_file_without_json_keeps_human_rows(tmp_path, capsys):
    artifact = tmp_path / "boot.json"
    assert main(["bootstrap", "--network", "Clos", "--reps", "1",
                 "--out", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "bootstrapped" in out  # human rows still printed
    doc = json.loads(artifact.read_text())
    assert doc["runs"][0]["summary"]["ok"] is True


# -- stabilize ---------------------------------------------------------------


def test_stabilize_command(capsys):
    assert main([
        "stabilize", "--topology", "ring:8", "--corruption", "mixed",
        "--reps", "2", "--workers", "2", "--seed", "0", *SCENARIO_FAST,
    ]) == 0
    out = capsys.readouterr().out
    assert "ring:8 mixed none" in out
    assert "workers=2" in out


def test_stabilize_serial_and_parallel_rows_match(capsys):
    base = ["stabilize", "--topology", "ring:6", "--corruption", "mixed",
            "--scheduler", "reorder", "--reps", "2", "--seed", "0",
            *SCENARIO_FAST]
    # == 0, not just output equality: two identically *failing* runs would
    # also print matching rows, masking a stabilization regression.
    assert main(base + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out.splitlines()
    assert main(base + ["--workers", "3"]) == 0
    parallel = capsys.readouterr().out.splitlines()
    strip = lambda lines: [l for l in lines if not l.startswith("-- stabilize")]
    assert strip(serial) == strip(parallel)


def test_stabilize_json_output(capsys):
    assert main([
        "stabilize", "--topology", "ring:6", "--corruption", "desync-views",
        "--reps", "1", "--json", *SCENARIO_FAST,
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "ring:6 desync-views none" in doc["series"]


def test_stabilize_rejects_unknown_corruption_and_scheduler():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stabilize", "--corruption", "gremlins"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stabilize", "--scheduler", "chaotic"])


def test_stabilize_rejects_malformed_topology_before_running(capsys):
    assert main(["stabilize", "--topology", "gird:3x3"]) == 2
    assert "unknown topology" in capsys.readouterr().err


def test_list_shows_corruptions_and_schedulers(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "corruptions:" in out and "clogged-memory" in out
    assert "schedulers:" in out and "max-delay" in out


# -- parse-time knob validation (shared parent parsers) ----------------------


@pytest.mark.parametrize("argv", [
    ["scenario", "--theta", "0"],
    ["stabilize", "--theta", "-3"],
    ["report", "--figure", "scenario", "--store", "x", "--theta", "0"],
    ["scenario", "--timeout", "0"],
    ["stabilize", "--timeout", "-1"],
    ["scenario", "--task-delay", "0"],
    ["bootstrap", "--task-delay", "-0.5"],
])
def test_bad_knobs_rejected_at_parse_time(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_shared_knob_defaults_are_consistent():
    """The dedup contract: every command carrying the shared knobs parses
    the same defaults (previously `common` and `scenario_knobs` each
    defined their own copies)."""
    parser = build_parser()
    boot = parser.parse_args(["bootstrap"])
    scen = parser.parse_args(["scenario"])
    stab = parser.parse_args(["stabilize"])
    rep = parser.parse_args(["report", "--figure", "scenario", "--store", "x"])
    for args in (boot, scen, stab, rep):
        assert args.controllers == 3
        assert args.seed == 0
        assert args.task_delay == 0.5
    for args in (scen, stab, rep):
        assert args.theta == 10
        assert args.timeout == 240.0
        assert args.topology == "jellyfish:20"


# -- run commands and `report` address the same records ----------------------


@pytest.mark.parametrize("argv", [
    ["scenario", "--campaign", "flapping"],
    ["stabilize", "--corruption", "desync-views", "--scheduler", "reorder"],
    ["traffic", "--campaign", "mixed", "--flows", "2000", "--pairs", "16",
     "--duration", "6", "--ecmp", "2", "--control-plane", "1"],
])
def test_report_hashes_the_params_the_run_command_hashes(argv, monkeypatch):
    """Every flag a campaign command turns into a spec param, ``repro
    report`` turns into the same param for the same argv — so a report
    addresses exactly the records the run wrote."""
    import repro.cli as cli
    from repro.exp.spec import ExperimentResult, get_spec

    name = argv[0]
    flags = argv[1:] + ["--topology", "ring:8", "--timeout", "60", *SCENARIO_FAST]
    hashed = {}

    def fake_run_spec(spec_name, params=None, **_):
        hashed["run"] = (spec_name, params)
        return ExperimentResult(name="stub", series={"stub": [0.0]})

    def fake_aggregate(_store, spec_name, params=None, **_):
        hashed["report"] = (spec_name, params)
        return ExperimentResult(name="stub"), []

    monkeypatch.setattr(cli, "run_spec", fake_run_spec)
    monkeypatch.setattr(cli, "aggregate", fake_aggregate)
    assert main([name, "--reps", "1", *flags]) == 0
    assert main(["report", "--figure", name, "--store", "unused", *flags]) == 0
    assert hashed["run"] == hashed["report"]
    spec_name, params = hashed["run"]
    assert spec_name == name
    # The parsed values arrived (not defaults), and only declared names.
    assert params["topology"] == "ring:8" and params["timeout"] == 60.0
    assert params["n_controllers"] == (1 if name == "traffic" else 2)
    get_spec(name).resolve(params)
