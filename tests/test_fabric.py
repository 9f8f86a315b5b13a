"""Tests for the distributed sweep fabric (ISSUE 8).

Three layers:

- **Lease protocol units** — atomic claim exclusivity, heartbeat renewal,
  expiry-based reclamation with carried attempt counts, exponential
  cooldown after failures, and poison-task quarantine.
- **Worker/campaign integration** — an in-process drain worker fills a
  store whose aggregate is bit-identical to a serial ``run_spec``; a
  2-worker local fleet matches the serial golden; poison tasks quarantine
  and fail the aggregator loudly.
- **Crash recovery** — a real worker process is SIGKILLed mid-task and
  the campaign still completes: the orphaned unit is re-claimed exactly
  once after lease expiry, and every repetition is present exactly once.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exp.runner import expand_tasks, measurement_identity, run_spec
from repro.exp.spec import CaseSpec, ExperimentSpec, Param, SPECS, register
from repro.fabric import (
    CampaignRequest,
    FabricError,
    FabricWorker,
    LeaseLost,
    WorkQueue,
    run_fabric_campaign,
    run_local_campaign,
    submit_campaign,
    wait_for_campaign,
)
from repro.fabric.campaign import aggregate_campaign
from repro.store import RunStore, aggregate, fingerprint

SRC = str(Path(__file__).resolve().parent.parent / "src")


# -- test-only specs ---------------------------------------------------------

if "fabric-selftest" not in SPECS:
    register(
        ExperimentSpec(
            name="fabric-selftest",
            title="fabric selftest",
            build_cases=lambda networks=None, **_: [
                CaseSpec(
                    label="selftest",
                    network=None,
                    measure=lambda seed: float(seed % 97),
                    trim=False,
                )
            ],
            default_reps=4,
            # Inert: only here so a campaign request can carry params.
            params=(Param("knob", 0.0),),
        )
    )

if "fabric-poison" not in SPECS:
    def _poison_cases(networks=None, **_):
        def explode(seed):
            raise ValueError(f"poison task (seed {seed})")

        return [CaseSpec(label="poison", network=None, measure=explode,
                         trim=False)]

    register(
        ExperimentSpec(
            name="fabric-poison",
            title="fabric poison selftest",
            build_cases=_poison_cases,
            default_reps=1,
        )
    )


def make_queue(tmp_path, **kwargs):
    return WorkQueue(RunStore(tmp_path / "store"), **kwargs)


def one_unit(queue, reps=1):
    request = submit_campaign(queue.store, "fabric-selftest", reps=reps,
                              queue=queue)
    return request, queue.units_of(request)


# -- lease protocol ----------------------------------------------------------


def test_unit_keys_match_runner_addressing(tmp_path):
    """The queue's unit keys are exactly the measurement keys the serial
    runner and ``repro report`` address — the property that makes the
    store the coordination substrate."""
    queue = make_queue(tmp_path)
    request, units = one_unit(queue, reps=3)
    _spec, cases, _reps, tasks = expand_tasks(
        "fabric-selftest", reps=3, store_dir=str(queue.store.root)
    )
    expected = {
        fingerprint(measurement_identity(t, cases[t.case_index].label))
        for t in tasks
    }
    assert {u.key for u in units} == expected
    assert len(units) == 3


def test_submit_is_idempotent(tmp_path):
    queue = make_queue(tmp_path)
    request, _units = one_unit(queue)
    again = submit_campaign(queue.store, "fabric-selftest", reps=1,
                            queue=queue)
    assert again.campaign_id == request.campaign_id
    assert len(queue.campaigns()) == 1
    assert sum(1 for e in queue.events() if e["kind"] == "submit") == 1


def test_campaign_request_round_trips_through_disk(tmp_path):
    queue = make_queue(tmp_path)
    request = submit_campaign(
        queue.store, "fabric-selftest", reps=2, base_seed=7,
        params={"knob": 1.5}, queue=queue,
    )
    loaded = queue.campaigns()[0]
    assert loaded == request
    assert loaded.campaign_id == request.campaign_id


def test_claim_is_exclusive(tmp_path):
    queue = make_queue(tmp_path)
    _request, units = one_unit(queue)
    lease = queue.claim(units[0], "worker-a")
    assert lease is not None and lease.attempts == 1
    assert queue.claim(units[0], "worker-b") is None


def test_concurrent_claims_single_winner(tmp_path):
    """N threads racing on one unit: exactly one acquisition succeeds
    (the O_CREAT|O_EXCL-equivalent link arbitration)."""
    queue = make_queue(tmp_path)
    _request, units = one_unit(queue)
    barrier = threading.Barrier(8)
    wins = []

    def contender(name):
        barrier.wait()
        lease = queue.claim(units[0], name)
        if lease is not None:
            wins.append(lease)

    threads = [threading.Thread(target=contender, args=(f"w{i}",))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1


def test_done_unit_is_not_claimable_or_pending(tmp_path):
    queue = make_queue(tmp_path)
    request, units = one_unit(queue)
    worker = FabricWorker(queue.store.root, drain=True, poll=0.01)
    worker.run()
    assert queue.is_done(units[0].key)
    assert queue.claim(units[0], "late-worker") is None
    assert queue.pending_units([request]) == []


def test_renew_extends_expiry(tmp_path):
    queue = make_queue(tmp_path, ttl=5.0)
    _request, units = one_unit(queue)
    lease = queue.claim(units[0], "worker-a")
    before = lease.expires_at
    time.sleep(0.05)
    queue.renew(lease)
    assert lease.expires_at > before
    on_disk = queue._read_lease(queue._lease_path(lease.key))
    assert on_disk.expires_at == pytest.approx(lease.expires_at)


def test_expired_lease_is_reclaimed_with_attempts_carried(tmp_path):
    queue = make_queue(tmp_path, ttl=0.05)
    _request, units = one_unit(queue)
    first = queue.claim(units[0], "doomed")
    assert first.attempts == 1
    time.sleep(0.1)  # let the lease expire (no heartbeat)
    second = queue.claim(units[0], "rescuer")
    assert second is not None
    assert second.attempts == 2
    assert any(e["kind"] == "reclaim" and e["prior_worker"] == "doomed"
               for e in queue.events())


def test_renew_after_reclaim_raises_lease_lost(tmp_path):
    queue = make_queue(tmp_path, ttl=0.05)
    _request, units = one_unit(queue)
    stale = queue.claim(units[0], "doomed")
    time.sleep(0.1)
    assert queue.claim(units[0], "rescuer") is not None
    with pytest.raises(LeaseLost):
        queue.renew(stale)


def test_concurrent_reclaims_single_winner(tmp_path):
    """Racing reclaimers of one expired lease: the atomic rename-aside
    arbitration lets exactly one of them carry the claim forward.

    The victim lease is force-expired by rewriting its ``expires_at``
    rather than by waiting out a tiny TTL — with a tiny TTL the *winner's*
    lease can legitimately expire while slower racer threads are still
    scheduled, turning a second reclaim into a correct (but test-breaking)
    outcome."""
    queue = make_queue(tmp_path, ttl=60.0)
    _request, units = one_unit(queue)
    doomed = queue.claim(units[0], "doomed")
    doomed.expires_at = time.time() - 1.0
    queue._replace(queue._lease_path(doomed.key), doomed.to_dict())
    barrier = threading.Barrier(6)
    wins = []

    def reclaimer(name):
        barrier.wait()
        lease = queue.claim(units[0], name)
        if lease is not None:
            wins.append(lease)

    threads = [threading.Thread(target=reclaimer, args=(f"r{i}",))
               for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    assert wins[0].attempts == 2


def test_failed_unit_cools_down_then_retries(tmp_path):
    queue = make_queue(tmp_path, ttl=5.0, max_attempts=3, backoff=0.1)
    _request, units = one_unit(queue)
    lease = queue.claim(units[0], "worker-a")
    assert queue.fail(lease, "transient") is False
    # During the cooldown nobody can claim it, after it anyone can —
    # that is the exponential backoff.
    assert queue.claim(units[0], "worker-b") is None
    time.sleep(0.15)
    retry = queue.claim(units[0], "worker-b")
    assert retry is not None and retry.attempts == 2


def test_poison_task_quarantines_after_max_attempts(tmp_path):
    queue = make_queue(tmp_path, ttl=5.0, max_attempts=2, backoff=0.01)
    request, units = one_unit(queue)
    lease = queue.claim(units[0], "worker-a")
    assert queue.fail(lease, "boom 1") is False
    time.sleep(0.05)
    lease = queue.claim(units[0], "worker-a")
    assert lease.attempts == 2
    assert queue.fail(lease, "boom 2") is True
    assert queue.is_quarantined(units[0].key)
    assert queue.pending_units([request]) == []
    with pytest.raises(FabricError, match="quarantined"):
        wait_for_campaign(queue, request, poll=0.01)


def test_gc_prunes_expired_leases_only(tmp_path):
    queue = make_queue(tmp_path, ttl=0.05)
    _request, units = one_unit(queue, reps=2)
    queue.claim(units[0], "doomed")
    time.sleep(0.1)
    live_queue = WorkQueue(queue.store, ttl=60.0)
    live = live_queue.claim(units[1], "alive")
    assert live is not None
    removed = queue.gc()
    assert removed["leases"] == 1
    remaining = queue.leases()
    assert len(remaining) == 1 and remaining[0].worker == "alive"


def test_store_prune_tmp_is_age_gated(tmp_path):
    store = RunStore(tmp_path / "store")
    store.objects_dir.mkdir(parents=True)
    (store.objects_dir / "ab").mkdir()
    old = store.objects_dir / "ab" / ".deadbeef.123.0.tmp"
    old.write_text("{}")
    os.utime(old, (time.time() - 7200, time.time() - 7200))
    fresh = store.root / ".manifest.123.0.tmp"
    fresh.write_text("{}")
    assert store.prune_tmp(max_age=3600) == 1
    assert not old.exists() and fresh.exists()


# -- worker / campaign integration ------------------------------------------


def test_drain_worker_fills_store_to_serial_golden(tmp_path):
    """One in-process drain worker executes a fig5 campaign whose
    aggregate is bit-identical to a serial storeless ``run_spec``."""
    store = RunStore(tmp_path / "store")
    request = submit_campaign(store, "fig5", reps=3, networks=("B4",))
    worker = FabricWorker(store.root, drain=True, poll=0.01)
    stats = worker.run()
    assert stats.get("simulated") == 3
    fabric_result = aggregate_campaign(store, request)
    serial = run_spec("fig5", reps=3, networks=("B4",), base_seed=0)
    assert fabric_result.to_dict() == serial.to_dict()


def test_two_worker_fleet_matches_serial_golden(tmp_path):
    """The acceptance golden: >=2 independent worker processes sharing
    one store produce output byte-identical to a serial sweep."""
    result = run_local_campaign(
        tmp_path / "store", "fig5", reps=3, networks=("B4",),
        workers=2, poll=0.02, ttl=10.0,
    )
    serial = run_spec("fig5", reps=3, networks=("B4",), base_seed=0)
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        serial.to_dict(), sort_keys=True
    )


def test_fabric_campaign_resumes_warm_store(tmp_path):
    """Re-running a completed campaign needs no workers at all: every
    unit is already done, the aggregator returns immediately."""
    store = RunStore(tmp_path / "store")
    request = submit_campaign(store, "fabric-selftest", reps=4)
    FabricWorker(store.root, drain=True, poll=0.01).run()
    result = run_fabric_campaign(store, "fabric-selftest", reps=4,
                                 timeout=5.0)
    assert result.series["selftest"] == [
        float(task.seed % 97)
        for task in expand_tasks("fabric-selftest", reps=4)[3]
    ]
    assert request.campaign_id in {
        r.campaign_id for r in WorkQueue(store).campaigns()
    }


def test_worker_quarantines_poison_and_aggregator_fails(tmp_path):
    store = RunStore(tmp_path / "store")
    request = submit_campaign(store, "fabric-poison", reps=1)
    worker = FabricWorker(store.root, drain=True, poll=0.01,
                          max_attempts=2, backoff=0.01)
    stats = worker.run()
    assert stats == {"failed": 1, "quarantined": 1}
    queue = WorkQueue(store)
    entries = queue.quarantine_entries()
    assert len(entries) == 1 and "poison task" in entries[0]["error"]
    with pytest.raises(FabricError, match="poison task"):
        wait_for_campaign(queue, request, poll=0.01)


def test_wait_for_campaign_times_out_without_workers(tmp_path):
    store = RunStore(tmp_path / "store")
    queue = WorkQueue(store)
    request = submit_campaign(store, "fabric-selftest", reps=1, queue=queue)
    with pytest.raises(FabricError, match="timed out"):
        wait_for_campaign(queue, request, poll=0.01, timeout=0.1)


def test_fabric_status_and_gc_cli(tmp_path, capsys):
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    store = RunStore(store_dir)
    submit_campaign(store, "fabric-selftest", reps=2)
    FabricWorker(store_dir, drain=True, poll=0.01).run()
    assert main(["fabric", "status", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "spec=fabric-selftest" in out
    assert "done=2/2" in out
    assert main(["store", "gc", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "gc removed" in out


def test_dashboard_digests_the_journal(tmp_path):
    """`repro fabric top` state is a pure function of the journal: a
    drained campaign shows its worker as inactive with its claim and
    completion counts, and the rendered screen carries the campaign."""
    from repro.obs.dashboard import completion_rate, render_fabric_top, worker_stats

    store_dir = str(tmp_path / "store")
    store = RunStore(store_dir)
    submit_campaign(store, "fabric-selftest", reps=2)
    FabricWorker(store_dir, worker_id="digger", drain=True, poll=0.01).run()

    queue = WorkQueue(store)
    now = time.time()
    stats = worker_stats(queue.events(), now=now)
    assert "digger" in stats
    digger = stats["digger"]
    assert digger["claims"] == 2 and digger["completes"] == 2
    assert digger["failures"] == 0
    assert not digger["active"], "drained worker still marked active"
    assert digger["heartbeat_age"] >= 0
    assert completion_rate(queue.events(), now=now) > 0

    screen = render_fabric_top(queue, now=now)
    assert "fabric-selftest" in screen
    assert "2/2" in screen
    assert "digger" in screen


# -- crash recovery ----------------------------------------------------------

SLOW_SPEC_MODULE = """\
import time

from repro.exp.spec import CaseSpec, ExperimentSpec, Param, SPECS, register


def _cases(networks, sleep):
    def measure(seed, _sleep=float(sleep)):
        time.sleep(_sleep)
        return float(seed % 97)

    return [CaseSpec(label="slow", network=None, measure=measure,
                     trim=False)]


if "fabric-slow" not in SPECS:
    register(ExperimentSpec(name="fabric-slow", title="fabric slow selftest",
                            build_cases=_cases, default_reps=2,
                            params=(Param("sleep", 1.5),)))
"""


def _start_worker(store_dir, extra_path, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [extra_path, SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fabric", "start",
         "--store", store_dir, "--workers", "1", "--preload", "fabric_slow",
         "--poll", "0.05", *flags],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for(predicate, timeout, message):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(message)


def test_sigkill_mid_task_unit_reclaimed_exactly_once(tmp_path):
    """The crash-recovery acceptance property: SIGKILL a worker while it
    holds a lease mid-task; the campaign still completes, the orphaned
    unit is re-claimed exactly once after lease expiry, and every
    repetition is present exactly once — no losses, no duplicates."""
    module_dir = tmp_path / "modules"
    module_dir.mkdir()
    (module_dir / "fabric_slow.py").write_text(SLOW_SPEC_MODULE)
    sys.path.insert(0, str(module_dir))
    try:
        import fabric_slow  # noqa: F401  — registers the spec here too
    finally:
        sys.path.remove(str(module_dir))

    store_dir = str(tmp_path / "store")
    store = RunStore(store_dir)
    queue = WorkQueue(store, ttl=1.0)
    request = submit_campaign(store, "fabric-slow", reps=2,
                              params={"sleep": 1.5}, queue=queue)
    units = queue.units_of(request)
    assert len(units) == 2

    victim = _start_worker(store_dir, str(module_dir), "--ttl", "1.0")
    try:
        _wait_for(
            lambda: any(e["kind"] == "claim" for e in queue.events()),
            timeout=30.0,
            message="worker never claimed a unit",
        )
        first_claim = next(e for e in queue.events() if e["kind"] == "claim")
        time.sleep(0.3)  # well inside the 1.5 s task, lease held
        victim.kill()  # SIGKILL: no release, no further heartbeats
        victim.wait(timeout=10.0)
        assert not queue.is_done(first_claim["key"])

        rescuer = _start_worker(store_dir, str(module_dir),
                                "--ttl", "1.0", "--drain")
        assert rescuer.wait(timeout=60.0) == 0
    finally:
        if victim.poll() is None:
            victim.kill()

    # Every repetition present exactly once, values correct.
    result, missing = aggregate(store, "fabric-slow", reps=2,
                                params={"sleep": 1.5})
    assert not missing
    expected = [
        float(task.seed % 97)
        for task in expand_tasks("fabric-slow", reps=2,
                                 params={"sleep": 1.5})[3]
    ]
    assert result.series["slow"] == expected

    events = queue.events()
    killed_key = first_claim["key"]
    claims = [e for e in events
              if e["kind"] == "claim" and e["key"] == killed_key]
    reclaims = [e for e in events
                if e["kind"] == "reclaim" and e["key"] == killed_key]
    completes = [e for e in events
                 if e["kind"] == "complete" and e["key"] == killed_key]
    assert len(reclaims) == 1, "orphaned unit must be re-claimed exactly once"
    assert len(claims) == 2, "one claim by the victim, one by the rescuer"
    assert len(completes) == 1, "re-claimed unit completes exactly once"
    assert completes[0]["attempts"] == 2
    # The untouched unit went through the ordinary single-claim path.
    for unit in units:
        done_events = [e for e in events
                       if e["kind"] == "complete" and e["key"] == unit.key]
        assert len(done_events) == 1
