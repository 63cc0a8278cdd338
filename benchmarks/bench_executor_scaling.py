"""Executor scaling: chunked backend dispatch vs the PR-1 per-unit executor.

The workload class that motivated the ``repro.exec`` subsystem is the
*many-tiny-unit sweep*: adversary × algorithm × seed grids and
tail-statistics replication studies explode into hundreds or thousands of
``(spec, seed)`` work units that each run for milliseconds.  There, per-unit
dispatch cost — one IPC round-trip, one payload pickle (including the full
spec dict, seeds list and all) and one ``ScenarioSpec.from_dict`` re-parse
per unit — rivals the simulation itself.

This benchmark times four executors over the same unit batches:

* ``serial`` — the in-process reference loop (and byte-identity yardstick);
* ``pr1-unchunked`` — a faithful re-implementation of the PR-1 batch engine:
  ``ProcessPoolExecutor.map`` at chunksize 1, one ``(spec-dict, seed)``
  payload and one spec re-parse per unit;
* ``process`` — the new chunked process backend (spec sent once per chunk,
  parsed once per worker via the spec cache);
* ``remote`` — the other registered backend, for coverage: loopback
  workers speaking the JSON wire form, with the dispatcher's heartbeats,
  deadlines and adaptive sizing included in its number.

Workloads:

* ``replication-tail`` — one tiny scenario (ring, n=8, 1 round), 1000 seed
  replications: the pattern of estimating convergence-time tails.
* ``grid-matrix`` — a registered-adversary × seed grid on n=32: the pattern
  of the ROADMAP's scenario-matrix expansion.

Every path's rows are asserted byte-identical to ``serial`` before any
timing is reported.  Worker pools are started and warmed before the clock
runs, so the numbers measure steady-state dispatch throughput, not process
start-up.

Usage::

    PYTHONPATH=src python benchmarks/bench_executor_scaling.py            # full
    PYTHONPATH=src python benchmarks/bench_executor_scaling.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_executor_scaling.py --json out.json

Full mode writes ``benchmarks/results/BENCH_exec.json`` and *asserts* the
acceptance bar: chunked ``process`` dispatch at least 2x the rows/sec of
``pr1-unchunked`` on the many-tiny-unit workload.  ``--smoke`` runs a small
batch and asserts byte-identity plus chunked >= unchunked (with tolerance
for CI scheduler noise).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import build_chunks, make_backend, units_for_spec
from repro.exec.units import WorkUnit, auto_chunk_size
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import run_scenario_seed
from repro.scenarios.store import canonical_json

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_exec.json"

#: Worker count for every pooled path (identical across paths for fairness).
WORKERS = 2

#: The acceptance bar of the full run (chunked process vs pr1-unchunked).
TARGET_SPEEDUP = 2.0

#: Adversaries of the grid workload (registered names, default parameters).
GRID_ADVERSARIES = (
    "static",
    "flip-churn",
    "markov-churn",
    "burst-churn",
    "edge-insertion",
    "locally-static",
)


def _replication_spec(n_seeds: int) -> ScenarioSpec:
    """The many-tiny-unit workload: 1-round ring scenarios, one per seed."""
    return ScenarioSpec(
        n=8,
        topology="ring",
        algorithm="ghaffari-mis",
        adversary="static",
        rounds=1,
        seeds=tuple(range(n_seeds)),
        metrics=(component("trace-summary"),),
        name="replication-tail",
    )


def _grid_units(seeds_per_point: int) -> List[WorkUnit]:
    """The adversary-matrix workload: one spec per registered adversary."""
    base = ScenarioSpec(
        n=32,
        topology="gnp_degree",
        algorithm="dynamic-coloring",
        rounds="T1",
        seeds=tuple(range(seeds_per_point)),
        metrics=(component("validity", problem="coloring"),),
        name="grid-matrix",
    )
    units: List[WorkUnit] = []
    for adversary in GRID_ADVERSARIES:
        units.extend(units_for_spec(base.with_overrides({"adversary.name": adversary})))
    return units


# ---------------------------------------------------------------------------
# the executors under test
# ---------------------------------------------------------------------------


def _pr1_execute_payload(payload: Tuple[Dict, int]) -> Dict[str, float]:
    """The PR-1 work-unit entry point: re-parse the spec for every unit."""
    spec_dict, seed = payload
    return run_scenario_seed(ScenarioSpec.from_dict(spec_dict), seed)


def _run_pr1_unchunked(units: Sequence[WorkUnit]) -> Tuple[List[Dict], float]:
    """The PR-1 batch engine, verbatim: per-unit payloads, map chunksize 1."""
    payloads = [(unit.spec_dict, unit.seed) for unit in units]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(_pr1_execute_payload, payloads[:WORKERS]))  # warm the pool
        started = time.perf_counter()
        rows = list(pool.map(_pr1_execute_payload, payloads))
        elapsed = time.perf_counter() - started
    return rows, elapsed


def _run_backend(
    name: str, units: Sequence[WorkUnit], chunk_size: Optional[int]
) -> Tuple[List[Dict], float]:
    """One registered backend over ``units``, warm, rows in batch order."""
    chunks = build_chunks(units, chunk_size or auto_chunk_size(len(units), WORKERS))
    backend = make_backend(name, WORKERS)
    with backend:
        warm = build_chunks(units[:WORKERS], 1)  # exercise import + spec cache
        for _ in backend.submit_batch(warm):
            pass
        rows: List[Optional[Dict]] = [None] * len(units)
        started = time.perf_counter()
        for index, chunk_rows in backend.submit_batch(chunks):
            chunk = chunks[index]
            rows[chunk.start : chunk.start + len(chunk_rows)] = chunk_rows
        elapsed = time.perf_counter() - started
    return rows, elapsed


def run_workload(
    label: str, units: Sequence[WorkUnit], *, chunk_size: Optional[int] = None
) -> Dict[str, object]:
    """Time every executor on ``units``; returns one result row."""
    serial_started = time.perf_counter()
    serial_rows = [run_scenario_seed(ScenarioSpec.from_dict(u.spec_dict), u.seed) for u in units]
    serial_elapsed = time.perf_counter() - serial_started
    reference = canonical_json(serial_rows)

    timings: Dict[str, float] = {"serial": len(units) / serial_elapsed}
    identical: Dict[str, bool] = {"serial": True}

    pr1_rows, pr1_elapsed = _run_pr1_unchunked(units)
    timings["pr1_unchunked"] = len(units) / pr1_elapsed
    identical["pr1_unchunked"] = canonical_json(pr1_rows) == reference

    for backend in ("process", "remote"):
        rows, elapsed = _run_backend(backend, units, chunk_size)
        timings[backend] = len(units) / elapsed
        identical[backend] = canonical_json(rows) == reference

    row: Dict[str, object] = {
        "workload": label,
        "units": len(units),
        "chunk_size": chunk_size or auto_chunk_size(len(units), WORKERS),
        "workers": WORKERS,
        "rows_per_sec": {k: round(v, 1) for k, v in timings.items()},
        "speedup_chunked_vs_unchunked": round(timings["process"] / timings["pr1_unchunked"], 2),
        "identical_to_serial": identical,
    }
    print(
        f"{label:<18} units={len(units):<5} "
        f"serial={timings['serial']:7.1f} r/s  "
        f"pr1-unchunked={timings['pr1_unchunked']:7.1f} r/s  "
        f"process-chunked={timings['process']:7.1f} r/s  "
        f"remote={timings['remote']:7.1f} r/s  "
        f"speedup={row['speedup_chunked_vs_unchunked']}x"
    )
    mismatched = [name for name, same in identical.items() if not same]
    if mismatched:
        raise AssertionError(f"{label}: rows differ from serial on {mismatched}")
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small batches; assert byte-identity and chunked >= unchunked",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help=f"output path for the result JSON (default: {RESULTS_PATH} in full mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = [
            run_workload("replication-tail", units_for_spec(_replication_spec(160))),
            run_workload("grid-matrix", _grid_units(4)),
        ]
        # CI gate: identity is already asserted inside run_workload; chunked
        # dispatch must additionally not be slower than per-unit dispatch
        # (0.9 tolerance absorbs scheduler noise on small CI batches).
        headline = rows[0]["speedup_chunked_vs_unchunked"]
        if headline < 0.9:
            print(f"FAIL: chunked dispatch slower than unchunked ({headline}x)")
            return 1
        print(f"smoke ok: all backends byte-identical; chunked/unchunked = {headline}x")
        return 0

    rows = [
        run_workload("replication-tail", units_for_spec(_replication_spec(1000))),
        run_workload("grid-matrix", _grid_units(25)),
    ]
    payload = {
        "benchmark": "executor-scaling",
        "unit": "rows/sec",
        "workers": WORKERS,
        "target": f"process chunked >= {TARGET_SPEEDUP}x pr1-unchunked on replication-tail",
        "rows": rows,
    }
    out_path = args.json or RESULTS_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")

    headline = rows[0]["speedup_chunked_vs_unchunked"]
    if headline < TARGET_SPEEDUP:
        print(f"FAIL: replication-tail speedup {headline}x < {TARGET_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(None))
