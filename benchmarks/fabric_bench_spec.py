"""Benchmark-only experiment spec for the fabric scaling benchmark.

One unit is a fixed blocking wait plus a deterministic measurement —
the latency-dominated regime the fabric exists for (multi-host fleets
where each worker spends its unit blocked on its own simulation or I/O,
not contending for the aggregator's CPU).  A CPU-bound unit would make
the benchmark measure the host's core count instead of the fabric:
single-core CI containers cannot run two Python processes faster than
one, no matter how cheap the lease protocol is.  CPU-path correctness is
covered separately by the serial-vs-fabric golden tests, which run the
real ``scenario`` campaign through the fabric and demand bit-identical
aggregates.

Workers import this module via ``preload`` (the benchmarks directory is
on ``sys.path`` under pytest), so spawn-start fleets can resolve the
spec too.
"""

from __future__ import annotations

import time

from repro.exp.spec import CaseSpec, ExperimentSpec, SPECS, register

#: Per-unit blocking time in seconds.  Large against the lease protocol's
#: filesystem traffic (a few ms per unit), small enough that the full
#: 1/2/4-worker matrix stays under a minute.
UNIT_LATENCY = 0.5


def _bench_cases(networks=None):
    def measure(seed: int) -> float:
        time.sleep(UNIT_LATENCY)
        return float(seed % 97)

    return [
        CaseSpec(label="fabric-bench", network=None, measure=measure,
                 trim=False)
    ]


if "fabric-bench" not in SPECS:
    register(
        ExperimentSpec(
            name="fabric-bench",
            title="Fabric scaling benchmark unit",
            build_cases=_bench_cases,
            notes="fixed-latency unit for fabric scheduler throughput",
            default_reps=8,
        )
    )
