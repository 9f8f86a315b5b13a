"""Tests for the experiment-result utilities and the Section-6 protocol
constants (repro.exp.spec)."""

from repro.exp.runner import run_spec
from repro.exp.spec import (
    ALL_NETWORKS,
    TABLE17_NETWORKS,
    THETA,
    TIMEOUT,
    ExperimentResult,
)


def test_theta_matches_paper_settings():
    """Section 6.3: Θ=10 for B4/Clos, Θ=30 for the Rocketfuel networks."""
    assert THETA["B4"] == 10 and THETA["Clos"] == 10
    assert THETA["Telstra"] == 30 and THETA["AT&T"] == 30 and THETA["EBONE"] == 30


def test_every_network_has_timeout():
    for network in ALL_NETWORKS + TABLE17_NETWORKS:
        assert network in TIMEOUT


def test_experiment_result_rows_render():
    result = ExperimentResult(name="Demo", series={"a": [1.0, 2.0, 3.0]}, notes="n")
    rows = result.rows()
    assert rows[0] == "== Demo =="
    assert any("median" in row for row in rows)
    assert rows[-1].strip().startswith("note:")


def test_experiment_result_handles_empty_series():
    result = ExperimentResult(name="Demo", series={"a": []})
    assert "(no data)" in "\n".join(result.rows())
    assert result.summary() == {}


def test_table8_experiment_runs():
    result = run_spec("table8")
    assert "B4 nodes" in result.series
    assert result.series["EBONE diameter"] == [11.0]


def test_fig15_series_are_thirty_seconds():
    result = run_spec("fig15", networks=("B4",))
    assert len(result.series["B4"]) == 30


def test_table17_uses_papers_network_list():
    assert set(TABLE17_NETWORKS) == {"Clos", "B4", "Telstra", "EBONE", "Exodus"}


def test_table17_single_network():
    result = run_spec("table17", networks=("B4",))
    (r,) = result.series["B4"]
    assert -1.0 <= r <= 1.0
