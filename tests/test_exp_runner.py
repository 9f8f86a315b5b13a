"""Tests for the experiment orchestration subsystem (repro.exp)."""

import pytest

from repro.exp.runner import RepetitionTask, _execute_task, default_workers, run_spec
from repro.exp.seeding import derive_seed, fault_rng, rep_rng
from repro.exp.spec import ExperimentSpec, get_spec, list_specs, register


# -- seeding ----------------------------------------------------------------


def test_derive_seed_matches_legacy_serial_seeds():
    assert [derive_seed(0, i) for i in range(5)] == [0, 1, 2, 3, 4]


def test_derive_seed_base_streams_disjoint():
    a = {derive_seed(0, i) for i in range(100)}
    b = {derive_seed(1, i) for i in range(100)}
    assert not a & b


def test_derive_seed_rejects_negative_rep():
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_rep_rng_reproducible():
    assert rep_rng(3, 7).random() == rep_rng(3, 7).random()


def test_fault_rng_matches_historical_stream():
    import random

    assert fault_rng(5).random() == random.Random(5 * 7919 + 13).random()


# -- registry ----------------------------------------------------------------


def test_registry_contains_every_figure():
    expected = {
        "table8", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "fig15", "fig16", "table17",
        "fig18", "fig19", "fig20",
    }
    assert expected <= set(list_specs())


def test_get_spec_unknown_name():
    with pytest.raises(KeyError):
        get_spec("fig99")


def test_register_rejects_duplicates():
    spec = get_spec("fig5")
    with pytest.raises(ValueError):
        register(spec)


def test_spec_case_filtering_by_network():
    cases = get_spec("fig5").cases(networks=("Telstra",))
    assert [c.label for c in cases] == ["Telstra"]


def test_spec_params_forwarded():
    cases = get_spec("fig6").cases(networks=("Telstra",), controller_counts=(1, 7))
    assert [c.label for c in cases] == ["Telstra x1", "Telstra x7"]


# -- runner ------------------------------------------------------------------


def test_runner_serial_matches_parallel():
    """Acceptance: same seed ⇒ bit-identical series, serial vs 4 workers."""
    serial = run_spec("fig5", reps=3, networks=("B4",), workers=1)
    parallel = run_spec("fig5", reps=3, networks=("B4",), workers=4)
    assert serial.series == parallel.series
    assert serial.series["B4"], "no repetitions completed"


def test_runner_seed_changes_series():
    base0 = run_spec("fig5", reps=2, networks=("B4",), workers=1, base_seed=0)
    base1 = run_spec("fig5", reps=2, networks=("B4",), workers=1, base_seed=1)
    assert base0.series != base1.series


def test_runner_series_spec_ignores_reps():
    result = run_spec("table8", reps=7, networks=("B4",), workers=1)
    assert result.series["B4 nodes"] == [12.0]
    assert result.series["B4 diameter"] == [5.0]


def test_runner_network_filter():
    result = run_spec("fig5", reps=1, networks=("Clos",), workers=1)
    assert list(result.series) == ["Clos"]


def test_execute_task_is_pure_and_addressable():
    """A repetition task rebuilt from primitives yields the same value as
    the in-process case call — the property pool workers rely on."""
    task = RepetitionTask(
        spec_name="fig5",
        networks=("B4",),
        params=(),
        case_index=0,
        rep_index=0,
        seed=0,
    )
    case_index, rep_index, value, status = _execute_task(task)
    assert (case_index, rep_index) == (0, 0)
    assert status == "simulated"  # no store: the task always executes
    direct = get_spec("fig5").cases(networks=("B4",))[0].measure(0)
    assert value == direct


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "")
    assert default_workers() == 1


def test_sweep_command_delegates_to_runner(capsys):
    """The figure-shaped entry point is ``repro sweep``: same series as
    the library call."""
    import json

    from repro.cli import main

    assert main(["sweep", "--figure", "fig5", "--network", "B4",
                 "--reps", "2", "--json"]) == 0
    wrapped = json.loads(capsys.readouterr().out)
    direct = run_spec("fig5", reps=2, networks=("B4",))
    assert wrapped["series"] == direct.series


@pytest.mark.parametrize("name, typo, known", [
    ("fig6", "controller_count", "controller_counts"),
    ("scenario", "campain", "campaign"),
])
def test_unknown_spec_param_raises_and_names_the_valid_ones(tmp_path, name, typo, known):
    """A misspelled param must not silently run the defaults (and file the
    result under a key containing the typo) — on any entry point."""
    from repro.fabric import WorkQueue, submit_campaign
    from repro.store import RunStore, aggregate

    params = {typo: (1,)}
    store = RunStore(tmp_path)
    for call in (
        lambda: run_spec(name, params=params),
        lambda: aggregate(store, name, params=params),
        lambda: submit_campaign(store, name, params=params),
    ):
        with pytest.raises(ValueError, match=known) as raised:
            call()
        assert typo in str(raised.value)
    assert WorkQueue(store).campaigns() == []  # nothing was published


def test_spec_param_choices_are_validated():
    with pytest.raises(ValueError, match="churn"):
        run_spec("scenario", params={"campaign": "tsunami"})
