"""Write the committed reference row of a workload and seed.

Usage, from the root of the repository::

    python3 perfbench/record_reference.py --workload kernel-100k --seed 1

Runs one untraced unit and writes its stored rows, as canonical JSON, to
``perfbench/reference/<workload>/seed-<seed>.json``.  Rerun it only when a
change to the program is meant to change the rows, and say so in the change.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import host_fingerprint, row_problems, run_unit, scratch_dir, write_reference  # noqa: E402
from repro.scenarios import ScenarioSpec  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = ScenarioSpec.from_dict(workload.spec_dict(args.seed))
    with scratch_dir(ROOT) as workdir:
        unit = run_unit(spec, "untraced", workdir, host_fingerprint(ROOT))
    problems = row_problems(workload, unit.rows, None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(write_reference(workload.name, args.seed, unit.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
