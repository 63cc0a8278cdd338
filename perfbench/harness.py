"""One measured unit: a scenario spec run to a stored row, and its checks.

:func:`run_unit` takes the path ``repro run`` takes for a scenario config —
``run_scenario`` on the ``serial`` backend, the seed column, then
``ResultsStore.put`` into a throwaway store — and times it from the spec to
the stored row.  Every unit starts cold: the per-process topology and edge
universe caches are emptied first, as they are in a fresh ``repro run``.

A unit runs in one of three modes: ``untraced`` (only the per-round clock),
``spans`` (every layer wrapped in spans, see :mod:`layers`) and ``obs`` (the
program's own NDJSON trace sink active).  All three must store the same row.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import subprocess
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

import networkx
import numpy
from repro.exec.cache import topology_cache_clear
from repro.exec.shm import shm_state_clear
from repro.obs.trace import trace_to
from repro.scenarios import ResultsStore, ScenarioSpec, canonical_json, run_scenario
from repro.scenarios.store import StoreEntry, diff_rows

from layers import install_round_clock, install_spans, layer_metrics
from spans import Patches, Tracer
from workloads import Workload

MODES = ("untraced", "spans", "obs")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Unit:
    mode: str
    rows: List[Dict[str, Any]]
    e2e_s: float
    #: spec to the end of round 1 of the first replication: generation,
    #: construction, engine build, round 1
    setup_s: float
    #: rounds 2..R of every replication, and the wall time from the end of
    #: round 1 to the end of round R, summed over replications
    steady_rounds: int
    steady_s: float
    #: per-layer metrics (``spans`` mode only)
    layers: Optional[Dict[str, float]] = None

    @property
    def steady_rounds_per_s(self) -> float:
        return self.steady_rounds / self.steady_s


@contextmanager
def scratch_dir(root: Path) -> Iterator[Path]:
    """A per-process directory under ``root/.bench_build``, removed afterwards."""
    path = root / ".bench_build" / f"perfbench-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def spec_to_store(spec: ScenarioSpec, store_root: Path, host: Mapping[str, Any]) -> StoreEntry:
    """Run ``spec`` serially and store its rows, as ``repro run`` does."""
    result = run_scenario(spec, execution="serial")
    rows = [{"seed": float(seed), **row} for seed, row in zip(spec.seeds, result.rows)]
    entry, _ = ResultsStore(store_root).put(
        "scenarios",
        spec.label,
        {"kind": "scenario", "spec": spec.to_dict()},
        rows,
        extra_provenance={"host": dict(host)},
    )
    return entry


def run_unit(spec: ScenarioSpec, mode: str, workdir: Path, host: Mapping[str, Any]) -> Unit:
    """Measure one cold run of ``spec`` in ``mode`` and read its row back."""
    store_root = workdir / "store"
    shutil.rmtree(store_root, ignore_errors=True)
    topology_cache_clear()
    shm_state_clear()
    gc.collect()
    stamps: List[float] = []
    tracer = Tracer()
    with Patches() as patches:
        install_round_clock(patches, stamps)
        if mode == "spans":
            install_spans(patches, tracer, spec)
        sink = trace_to(workdir / "obs-trace.ndjson") if mode == "obs" else nullcontext()
        with sink:
            start = time.perf_counter()
            if mode == "spans":
                entry = tracer.call("bench.e2e", spec_to_store, spec, store_root, host)
            else:
                entry = spec_to_store(spec, store_root, host)
            end = time.perf_counter()
    # Replications run one after another, each with the same number of rounds.
    replications = len(spec.seeds)
    rounds = len(stamps) // replications
    if rounds < 2 or rounds * replications != len(stamps):
        raise RuntimeError(
            f"{spec.label}: {len(stamps)} rounds recorded over {replications} replications"
        )
    firsts, lasts = stamps[::rounds], stamps[rounds - 1 :: rounds]
    return Unit(
        mode=mode,
        rows=[dict(row) for row in ResultsStore.load(entry.path).rows],
        e2e_s=end - start,
        setup_s=stamps[0] - start,
        steady_rounds=len(stamps) - replications,
        steady_s=sum(last - first for first, last in zip(firsts, lasts)),
        layers=layer_metrics(tracer.summary()) if mode == "spans" else None,
    )


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def write_reference(workload: str, seed: int, rows: List[Dict[str, Any]]) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(rows) + "\n", encoding="ascii")
    return path


def load_reference(workload: str, seed: int) -> Optional[str]:
    """The committed canonical JSON rows of ``(workload, seed)``, if any."""
    path = reference_path(workload, seed)
    return path.read_text(encoding="ascii").strip() if path.exists() else None


def row_problems(
    workload: Workload, rows: List[Dict[str, Any]], expected: Optional[str]
) -> List[str]:
    """Why ``rows`` are wrong ([] when right).

    ``expected`` is the canonical JSON the rows must equal: the committed
    reference row when the seed has one, else the first unit of this run.
    """
    problems = [problem for row in rows for problem in workload.invariants(row)]
    if expected is not None and canonical_json(rows) != expected:
        problems.extend(diff_rows(json.loads(expected), rows) or ["rows differ"])
    return problems


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def host_fingerprint(root: Path) -> Dict[str, Any]:
    """What a result's absolute numbers depend on: CPU, cores, versions, commit."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_sha": sha,
    }
