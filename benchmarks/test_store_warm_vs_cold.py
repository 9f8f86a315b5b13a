"""Run store: warm-store sweep vs cold sweep timing.

A cold ``fig5`` sweep simulates every bootstrap; the identical warm sweep
must perform zero simulations and complete in O(load) — the time to read
and validate a handful of JSON records.  The printed ratio is the
benchmark's deliverable; the assertions pin the properties that make the
ratio meaningful (byte-identical output, all-hit cache accounting) plus a
generous floor on the speedup itself.
"""

import time

from conftest import emit_text
from repro.exp.runner import run_spec


def test_store_warm_vs_cold(tmp_path, benchmark):
    store = tmp_path / "store"
    kwargs = dict(reps=3, networks=("B4", "Clos"), base_seed=0, store=store)

    t0 = time.perf_counter()
    cold = run_spec("fig5", **kwargs)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_spec("fig5", **kwargs), rounds=1, iterations=1
    )
    warm_s = time.perf_counter() - t0

    lines = [
        "== Run store: warm vs cold fig5 sweep (B4+Clos, 3 reps) ==",
        f"cold sweep: {cold_s:8.3f} s  ({cold.cache_stats['simulated']} simulated)",
        f"warm sweep: {warm_s:8.3f} s  ({warm.cache_stats['hit']} loaded)",
        f"speedup:    {cold_s / max(warm_s, 1e-9):8.1f}x",
    ]
    emit_text("store-warm-vs-cold.txt", "\n".join(lines))

    assert cold.cache_stats == {"hit": 0, "derived": 0, "simulated": 6}
    assert warm.cache_stats == {"hit": 6, "derived": 0, "simulated": 0}
    assert warm.to_json() == cold.to_json()
    # O(load): reading six records must beat six simulated bootstraps by a
    # wide margin; 5x is far below the observed two orders of magnitude.
    assert warm_s * 5 < cold_s
