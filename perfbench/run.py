"""The repository's benchmark: one workload, one seed, a closed loop of units.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload kernel-100k --seed 1 --seconds 40 --trace 0

Each unit builds the workload's scenario spec from ``--seed`` and runs it
through ``run_scenario`` to a row in a throwaway results store (see
:mod:`harness`).  Units run one after another in this process — a closed
loop with one caller — for about ``--seconds``; at least one unit always
runs.  Every stored row is checked against the committed
reference row of the seed when there is one, else against the run's first
unit, and against the workload's invariants.

``--trace 0`` reports the end-to-end metrics of the untraced units: medians
of ``e2e_s`` and ``setup_s``, steady rounds pooled over units, peak RSS.
``--trace 1`` cycles untraced, span-traced and obs-sink units and reports
the per-layer metrics: medians over the traced units, plus the two tracing
overhead ratios.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit, in print order.
END_TO_END = {
    "e2e_s": "s",
    "setup_s": "s",
    "steady_rounds_per_s": "rounds/s",
    "peak_rss_mib": "MiB",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spread(values: List[float]) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def steady_rate(units: list) -> float:
    """Rounds 2..R summed over ``units``, divided by their summed wall time."""
    return sum(u.steady_rounds for u in units) / sum(u.steady_s for u in units)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import MODES, host_fingerprint, load_reference, row_problems, run_unit, scratch_dir
    from layers import LAYER_METRICS, layer_unit
    from repro.scenarios import ScenarioSpec, canonical_json
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = ScenarioSpec.from_dict(workload.spec_dict(args.seed))
    modes = MODES if args.trace else MODES[:1]
    reference = load_reference(workload.name, args.seed)
    host = host_fingerprint(ROOT)

    units = []
    durations: List[float] = []
    attempted = failed = 0
    expected = reference
    began = time.perf_counter()
    with scratch_dir(ROOT) as workdir:
        # A tiny unit of the same shape first: lazy imports and first-call
        # costs of the path then fall outside the measured units.
        warm_up = ScenarioSpec.from_dict({**workload.spec_dict(args.seed), "n": 64, "rounds": 3})
        run_unit(warm_up, "untraced", workdir, host)
        while True:
            mode = modes[attempted % len(modes)]
            elapsed = time.perf_counter() - began
            # Every mode runs once; after that a unit starts when a typical
            # one would end less than half a unit past the time given, so a
            # run lasts about --seconds on average.
            if attempted >= len(modes) and elapsed + statistics.median(durations) / 2 > args.seconds:
                break
            attempted += 1
            unit_began = time.perf_counter()
            try:
                unit = run_unit(spec, mode, workdir, host)
            except Exception:  # a unit that raises is a failed unit; keep measuring
                traceback.print_exc()
                failed += 1
                durations.append(time.perf_counter() - unit_began)
                continue
            durations.append(time.perf_counter() - unit_began)
            if expected is None:
                expected = canonical_json(unit.rows)
            problems = row_problems(workload, unit.rows, expected)
            if problems:
                failed += 1
                print(f"unit {attempted} ({mode}) stored a wrong row:", file=sys.stderr)
                for problem in problems:
                    print(f"  - {problem}", file=sys.stderr)
                continue
            units.append(unit)
            print(
                f"unit {attempted:<3} {mode:<9} e2e_s {unit.e2e_s:.4f}  setup_s {unit.setup_s:.4f}"
                f"  steady_rounds_per_s {unit.steady_rounds_per_s:.4f}"
            )

    by_mode: Dict[str, list] = {mode: [u for u in units if u.mode == mode] for mode in modes}
    if not all(by_mode.values()):
        print("perfbench: no correct unit in some mode; nothing to report", file=sys.stderr)
        return 1

    untraced = by_mode["untraced"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"why      {workload.why}")
    print(f"host     {json.dumps(host, sort_keys=True)}")
    print(
        "rows     "
        + (f"checked against reference/{workload.name}/seed-{args.seed}.json" if reference
           else "no reference row for this seed; checked for repeatability and invariants")
    )
    samples = {"e2e_s": [u.e2e_s for u in untraced], "setup_s": [u.setup_s for u in untraced]}
    end_to_end = {name: statistics.median(values) for name, values in samples.items()}
    end_to_end["steady_rounds_per_s"] = steady_rate(untraced)
    end_to_end["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {name: _spread(values) for name, values in samples.items()}
    details["steady_rounds_per_s"] = f"rounds 2..R pooled over {len(untraced)} units"
    details["peak_rss_mib"] = "ru_maxrss of this process"
    for name, unit in END_TO_END.items():
        print(f"{name:<24} {end_to_end[name]:>14.6f} {unit:<9} {details[name]}")
    print(f"{'failed_unit_fraction':<24} {failed / attempted:>14.6f} {'ratio':<9} {failed} of {attempted} units")

    metrics: Dict[str, Tuple[float, str]]
    if args.trace:
        traced = by_mode["spans"]
        metrics = {
            name: (statistics.median(u.layers[name] for u in traced), layer_unit(name))
            for name in LAYER_METRICS
        }
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(u.e2e_s for u in traced) / end_to_end["e2e_s"],
            "ratio",
        )
        metrics["obs.trace_overhead_ratio"] = (
            steady_rate(by_mode["obs"]) / end_to_end["steady_rounds_per_s"],
            "ratio",
        )
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:>14.6f} {unit}")
    else:
        metrics = {name: (end_to_end[name], unit) for name, unit in END_TO_END.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
