"""CI gate for the large-n kernel path: throughput, memory, shm hygiene.

Three assertions, sized for CI hardware:

1. **Throughput floor.**  A reduced version of the committed
   ``smis-dense-100k`` benchmark row (same n, fewer rounds) must clear a
   minimum rounds/sec.  The committed baseline on the benchmark host is
   the ``smis-dense-100k`` row's ``kernel_rps`` in
   ``benchmarks/results/BENCH_kernel.json``; the gate here is
   2.0 r/s — loose enough for shared CI runners, tight enough that a
   return to the pre-kernel-tightening ~1.6 r/s fails the build.
2. **Memory ceiling.**  The run executes under ``trace_retention="stats"``
   and peak RSS (``resource.getrusage``) must stay under a cap that a
   full-retention trace of the same workload would blow through.
3. **shm lifecycle.**  A pooled batch that publishes shared-memory
   topology segments must leave ``/dev/shm`` clean when it returns, and
   ``repro audit``'s stale-segment scan must agree.

Usage::

    PYTHONPATH=src python benchmarks/kernel_scale_smoke.py
"""

from __future__ import annotations

import os
import resource
import sys
import time

import numpy as np

from repro.dynamics import generators
from repro.dynamics.adversaries.random_churn import ChurnAdversary
from repro.dynamics.churn import MarkovEdgeChurn
from repro.runtime.simulator import Simulator, delivery_mode
from repro.algorithms.mis.smis import SMis

#: the reduced smis-dense-100k row: same n and churn as the committed
#: benchmark, fewer rounds (CI measures a floor, not a baseline).
N, ROUNDS, CHURN, SEED = 100_000, 10, 0.2, 1

MIN_ROUNDS_PER_SEC = 2.0

#: peak-RSS cap in MiB.  The stats-retention run peaks around 550 MiB
#: (dominated by the adversary's edge bookkeeping and the CSR arrays), so
#: a trace-memory regression trips this long before the gate gets flaky.
MAX_PEAK_RSS_MIB = 2048


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024.0 if sys.platform != "darwin" else rss / (1024.0 * 1024.0)


def _shm_segments() -> list:
    try:
        return sorted(x for x in os.listdir("/dev/shm") if x.startswith("repro-shm-"))
    except OSError:
        return []


def gate_throughput_and_rss() -> None:
    base = generators.gnp(N, 12.0 / (N - 1), np.random.default_rng(SEED))
    adversary = ChurnAdversary(
        N, MarkovEdgeChurn(base, p_off=CHURN, p_on=CHURN), np.random.default_rng(SEED + 1)
    )
    with delivery_mode("kernel"):
        sim = Simulator(
            n=N, algorithm=SMis(), adversary=adversary, seed=SEED, trace_retention="stats"
        )
    start = time.perf_counter()
    sim.run(ROUNDS)
    elapsed = time.perf_counter() - start
    rps = ROUNDS / elapsed
    peak = _peak_rss_mib()
    print(f"kernel-scale: n={N} rounds={ROUNDS} -> {rps:.2f} r/s, peak RSS {peak:.0f} MiB")
    assert sim.trace.num_rounds == ROUNDS, "scale run stopped early"
    assert rps >= MIN_ROUNDS_PER_SEC, (
        f"kernel throughput floor broken: {rps:.2f} r/s < {MIN_ROUNDS_PER_SEC} r/s"
    )
    assert peak <= MAX_PEAK_RSS_MIB, (
        f"peak RSS {peak:.0f} MiB exceeds {MAX_PEAK_RSS_MIB} MiB "
        "(stats retention no longer bounding trace memory?)"
    )


def gate_shm_lifecycle() -> None:
    from repro.exec.policy import ExecutionPolicy
    from repro.exec.runner import run_units
    from repro.exec.shm import stale_segments
    from repro.scenarios.spec import ScenarioSpec, component

    def spec(algorithm):
        return ScenarioSpec(
            n=64,
            algorithm=component(algorithm),
            adversary=component("markov-churn", p_off=0.1, p_on=0.1),
            topology=component("gnp", p=0.1),
            rounds=6,
            seeds=(1, 2),
            metrics=(),
            name=f"scale-smoke-{algorithm}",
        )

    from repro.exec.units import units_for_spec

    units = units_for_spec(spec("smis")) + units_for_spec(spec("dmis"))
    serial = run_units(units, ExecutionPolicy(backend="serial", progress=False))
    pooled = run_units(units, ExecutionPolicy(backend="process", max_workers=2, progress=False))
    assert serial == pooled, "pooled rows diverged from serial rows"
    leaked = _shm_segments()
    assert not leaked, f"shm segments leaked after pooled batch: {leaked}"
    assert not stale_segments(), "audit scan reports stale shm segments"
    print(f"kernel-scale: shm lifecycle clean ({len(units)} units, pooled == serial)")


def main() -> int:
    gate_throughput_and_rss()
    gate_shm_lifecycle()
    print("kernel-scale smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
