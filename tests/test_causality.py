"""The causal-provenance layer: engine happens-before recording, typed
provenance tags from the network layer, and the two invariants the
forensics design hangs on — the disabled path records nothing and stays
byte-identical, and a seeded run produces the same DAG on every rerun."""

import json

import pytest

from repro.adversary.spec import stabilize_run_plan
from repro.api import Bootstrap, CorruptState, RunPlan
from repro.obs import ProvenanceDAG, Telemetry, use_telemetry
from repro.obs.causality import CausalEvent
from repro.obs.export import trace_payload
from repro.sim.engine import Simulator


# -- engine semantics --------------------------------------------------------


def test_cause_defaults_to_currently_executing_event():
    sim = Simulator()
    sim.enable_causality()

    def outer():
        sim.schedule(1.0, lambda: None, note="inner")

    root_event = sim.schedule(1.0, outer, note="outer")
    sim.run()
    rows = sim.causal_events()
    by_note = {note: (eid, cause) for eid, _t, _k, note, cause, _tags in rows}
    assert by_note["outer"][1] is None  # scheduled outside any event
    assert by_note["inner"][1] == root_event.seq


def test_explicit_cause_wins_over_default():
    sim = Simulator()
    sim.enable_causality()

    def outer():
        sim.schedule(1.0, lambda: None, note="inner", cause=123)

    sim.schedule(1.0, outer)
    sim.run()
    inner = [r for r in sim.causal_events() if r[3] == "inner"]
    assert inner[0][4] == 123


def test_disabled_engine_records_nothing():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.causal_events() is None
    assert event.cause is None and event.tags is None


def test_provenance_roots_are_negative_and_do_not_disturb_seq():
    sim = Simulator()
    sim.enable_causality()
    r1 = sim.provenance_root(note="a")
    r2 = sim.provenance_root(note="b")
    assert (r1, r2) == (-1, -2)
    # The heap's FIFO seq counter is a separate stream: the next real
    # event still gets seq 0.
    event = sim.schedule(1.0, lambda: None)
    assert event.seq == 0


def test_provenance_root_returns_none_when_disabled():
    assert Simulator().provenance_root(note="x") is None


def test_annotate_merges_into_current_event():
    sim = Simulator()
    sim.enable_causality()

    def work():
        sim.annotate(a=1)
        sim.annotate(b=2)

    sim.schedule(1.0, work, note="work")
    sim.annotate(outside=True)  # no current event: must be a no-op
    sim.run()
    row = [r for r in sim.causal_events() if r[3] == "work"][0]
    assert row[5] == {"a": 1, "b": 2}


def test_cause_scope_attributes_and_restores():
    sim = Simulator()
    sim.enable_causality()
    root = sim.provenance_root(note="intervention")
    with sim.cause_scope(root):
        scoped = sim.schedule(1.0, lambda: None, note="scoped")
    after = sim.schedule(1.0, lambda: None, note="after")
    assert scoped.cause == root
    assert after.cause is None


def test_cause_scope_none_suppresses_implicit_edge():
    sim = Simulator()
    sim.enable_causality()

    def outer():
        with sim.cause_scope(None):
            sim.schedule(1.0, lambda: None, note="detached")

    sim.schedule(1.0, outer)
    sim.run()
    detached = [r for r in sim.causal_events() if r[3] == "detached"][0]
    assert detached[4] is None


def test_cause_scope_is_transparent_when_disabled():
    sim = Simulator()
    with sim.cause_scope(5):
        event = sim.schedule(1.0, lambda: None)
    assert event.cause is None


# -- network-layer provenance tags -------------------------------------------


def bootstrap_payload(seed=0):
    plan = (
        RunPlan("jellyfish:8", controllers=2, seed=seed)
        .configure(theta=4, task_delay=0.1)
        .then(Bootstrap(timeout=120.0))
    )
    with use_telemetry(Telemetry()) as telemetry:
        result = plan.session().run()
    assert result.ok
    return trace_payload(telemetry)


def test_bootstrap_trace_carries_typed_provenance():
    dag = ProvenanceDAG.from_payload(bootstrap_payload())
    assert dag is not None and len(dag)
    batches = dag.find(msg="batch")
    assert batches, "control batches must be tagged"
    assert all("src" in e.tags and "dst" in e.tags for e in batches)
    replies = dag.find(msg="reply")
    assert replies, "query replies must be tagged"
    iterations = dag.find(ctrl=...)
    assert iterations, "controller iterations must be annotated"
    sample = iterations[-1].tags
    assert {"round", "new_round", "round_age", "iteration"} <= set(sample)
    probes = dag.find(legitimate=...)
    assert probes and probes[-1].tags["legitimate"] is True


def test_batch_events_link_back_to_controller_iteration():
    dag = ProvenanceDAG.from_payload(bootstrap_payload())
    linked = 0
    for batch in dag.find(msg="batch"):
        ancestry = dag.ancestry(batch.eid)
        if any("ctrl" in a.tags for a in ancestry[1:]):
            linked += 1
    assert linked, "batches must be caused by a controller iteration"


def test_fault_actions_carry_fault_ids():
    from repro.scenarios.spec import campaign_run_plan

    with use_telemetry(Telemetry()) as telemetry:
        recovery = campaign_run_plan(
            "ring:6", "churn", 7, n_controllers=2, task_delay=0.1,
            theta=4, timeout=120.0,
        ).run().recovery_time
    assert recovery is not None
    dag = ProvenanceDAG.from_payload(trace_payload(telemetry))
    faults = dag.find(fault_id=...)
    assert faults
    assert all("target" in f.tags and "fault" in f.tags for f in faults)
    # Ids are unique and name the action kind.
    ids = [f.tags["fault_id"] for f in faults]
    assert len(set(ids)) == len(ids)
    assert all(str(f.tags["fault"]) in str(f.tags["fault_id"]) for f in faults)


def test_corruption_root_causes_adversary_events():
    with use_telemetry(Telemetry()) as telemetry:
        stabilize_run_plan(
            "jellyfish:8", "channel-garbage", 3, n_controllers=2,
            task_delay=0.1, theta=4, timeout=120.0,
        ).run()
    dag = ProvenanceDAG.from_payload(trace_payload(telemetry))
    roots = dag.roots()
    assert len(roots) == 1
    root = roots[0]
    assert root.tags["corruption_id"] == "channel-garbage@seed=3"
    children = dag.children.get(root.eid, [])
    assert children, "garbage deliveries must be caused by the root"
    for eid in children:
        assert dag.by_id[eid].cause == root.eid


# -- DAG queries -------------------------------------------------------------


def toy_dag():
    rows = [
        [-1, 0.0, "provenance_root", "corrupt", None, {"corruption_id": "x"}],
        [0, 1.0, "generic", "a", -1, None],
        [1, 2.0, "generic", "b", 0, None],
        [2, 9.0, "generic", "deep", 0, None],
        [3, 3.0, "generic", "c", 1, None],
    ]
    return ProvenanceDAG.from_rows(rows)


def test_dag_queries():
    dag = toy_dag()
    assert len(dag) == 5
    assert [r.eid for r in dag.roots()] == [-1]
    assert [e.eid for e in dag.find(corruption_id="x")] == [-1]
    assert [e.eid for e in dag.ancestry(3)] == [3, 1, 0, -1]
    assert sorted(e.eid for e in dag.descendants(-1)) == [0, 1, 2, 3]


def test_causal_chain_follows_deepest_reach():
    # From the root, eid 0 has two children: 1 (subtree reach t=3) and
    # 2 (reach t=9) — the chain must take the deeper branch.
    chain = [e.eid for e in toy_dag().causal_chain(-1)]
    assert chain == [-1, 0, 2]


def test_causal_event_label_renders_interesting_tags():
    event = CausalEvent(
        eid=1, t_sim=2.5, kind="packet_delivery", note="x->y",
        tags={"fault_id": "fail_link@1#0", "boring": 1},
    )
    label = event.label()
    assert "t=2.500" in label and "fault_id=fail_link@1#0" in label
    assert "boring" not in label


# -- determinism -------------------------------------------------------------


def stabilize_signature(seed):
    with use_telemetry(Telemetry()) as telemetry:
        stabilize_run_plan(
            "jellyfish:8", "mixed", seed, n_controllers=2,
            task_delay=0.1, theta=4, timeout=120.0,
        ).run()
    dag = ProvenanceDAG.from_payload(trace_payload(telemetry))
    return dag.signature()


def test_causal_dag_is_deterministic_across_reruns():
    assert stabilize_signature(11) == stabilize_signature(11)


def test_causal_dag_depends_on_seed():
    assert stabilize_signature(11) != stabilize_signature(12)


def test_causal_dag_identical_serial_vs_parallel():
    """The DAG is a property of the seeded run, not of where it executes:
    a pool worker produces the same signature as this process."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        parallel = pool.map(stabilize_signature, [11, 12])
    assert parallel == [stabilize_signature(11), stabilize_signature(12)]


def test_causal_log_survives_json_round_trip():
    payload = bootstrap_payload()
    clone = json.loads(json.dumps(payload, sort_keys=True))
    original = ProvenanceDAG.from_payload(payload)
    restored = ProvenanceDAG.from_payload(clone)
    assert original.signature() == restored.signature()


def test_telemetry_off_run_is_byte_identical_and_causality_free():
    """With causality merged into the engine, the untraced path still
    serializes byte-for-byte identically across runs and records no
    causal rows."""

    def run():
        plan = (
            RunPlan("jellyfish:8", controllers=2, seed=5)
            .configure(theta=4, task_delay=0.1)
            .then(Bootstrap(timeout=120.0))
        )
        session = plan.session()
        result = session.run()
        assert session.sim.sim.causal_events() is None
        return json.dumps(result.to_dict(), sort_keys=True)

    assert run() == run()


def test_traced_and_untraced_runs_measure_identically():
    plan_args = dict(controllers=2, seed=9)

    def run(traced):
        plan = (
            RunPlan("jellyfish:8", **plan_args)
            .configure(theta=4, task_delay=0.1)
            .then(Bootstrap(timeout=120.0), CorruptState("desync-views"))
        )
        if traced:
            with use_telemetry(Telemetry()):
                doc = plan.session().run().to_dict()
        else:
            doc = plan.session().run().to_dict()
        doc.pop("timings", None)  # wall-clock, present only when traced
        return doc

    assert run(True) == run(False)
