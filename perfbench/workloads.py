"""The benchmark's workloads: one scenario spec each, built from a seed.

Every workload is the data form of a ``repro run`` scenario config.  The
seed given on the command line fixes the scenario's replication seeds, so
the same seed always yields the same inputs and the same stored rows.  Each
workload makes one layer dominant and leaves the others bypassed or minor;
``why`` says which, and is mirrored in ``BENCHMARK.json``.

``BENCHMARK.json`` lists every workload but ``kernel-100k``, the batched
control of ``kernel-100k-probed``: a 1e5-node unit takes 8-10 s, and only
three workloads leave room for runs long enough to be steady on a shared
2-core host.  It still runs by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

#: The seed ``run.py`` uses when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: A second seed with a committed reference row, never used while tuning.
HELD_OUT_SEED = 97

Row = Mapping[str, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Dict[str, Any]
    #: Checks any seed's row must pass (reference rows exist for two seeds only).
    invariants: Callable[[Row], List[str]]
    #: Replication seeds per unit.  A small graph's work depends on its seed;
    #: several per unit keep one seed's graph from setting a run's time.
    replications: int = 1

    def spec_dict(self, seed: int) -> Dict[str, Any]:
        """The spec of ``seed``: replication seeds ``k*seed .. k*seed + k-1``."""
        k = self.replications
        return {**self.spec, "name": self.name, "seeds": [k * int(seed) + j for j in range(k)]}


def _expect(row: Row, **expected: float) -> List[str]:
    return [
        f"{key} = {row.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if row.get(key) != value
    ]


_KERNEL_BASE = {
    "n": 100_000,
    "topology": {"name": "gnp_degree", "params": {"degree": 12.0}},
    "adversary": {"name": "markov-churn", "params": {"p_off": 0.2, "p_on": 0.2}},
    "algorithm": {"name": "smis", "params": {}},
    "rounds": 20,
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kernel-100k",
            why=(
                "isolates Gnp generation and array-kernel steady rounds: smis, n=1e5, "
                "markov churn, one batched run call; checker and Python round loop idle"
            ),
            spec={
                **_KERNEL_BASE,
                "metrics": [
                    {"name": "stability", "params": {}},
                    {"name": "trace-summary", "params": {}},
                ],
            },
            invariants=lambda row: _expect(row, rounds=19.0, trace_rounds=20.0),
        ),
        Workload(
            name="kernel-100k-probed",
            why=(
                "isolates Gnp generation, array-kernel rounds and per-round write-back: smis, "
                "n=1e5, markov churn, activity probe so run(1) per round; checker and Python "
                "round loop idle"
            ),
            spec={
                **_KERNEL_BASE,
                "probe": {"name": "activity", "params": {}},
                "metrics": [
                    {"name": "stability", "params": {}},
                    {"name": "trace-summary", "params": {}},
                    {"name": "output-activity", "params": {}},
                ],
            },
            invariants=lambda row: _expect(row, rounds=19.0, trace_rounds=20.0, activity_rounds=20.0),
        ),
        Workload(
            name="verdict-2k",
            why=(
                "isolates the sliding-window T-dynamic checker: smis, n=2000, mis validity "
                "over full T1 windows; window graphs dominate, kernel under 1%"
            ),
            spec={
                **_KERNEL_BASE,
                "n": 2000,
                # Every checked window is a full T1 window: from round T1 on,
                # the window no longer reaches back to the empty round 0, so
                # the verdict is not vacuous.
                "rounds": "T1+2",
                "metrics": [
                    {"name": "validity", "params": {"problem": "mis", "start_round": "T1"}},
                    {"name": "stability", "params": {}},
                ],
            },
            invariants=lambda row: _expect(row, rounds_checked=3.0, constrained_rounds=3.0),
        ),
        Workload(
            name="framework-coloring",
            why=(
                "isolates the Python round loop: the paper's Concat dynamic-coloring on the "
                "full path, n=200, flip churn; deliver and compose dominate, kernel bypassed"
            ),
            spec={
                "n": 200,
                "topology": {"name": "gnp_degree", "params": {"degree": 8.0}},
                "adversary": {"name": "flip-churn", "params": {"flip_prob": 0.01}},
                "algorithm": {"name": "dynamic-coloring", "params": {}},
                # Two windows of four graphs keep a unit near 10 s, so a
                # run holds several units.
                "rounds": "2*T1",
                "metrics": [
                    {"name": "stability", "params": {}},
                    {"name": "trace-summary", "params": {}},
                ],
            },
            invariants=lambda row: _expect(row, rounds=69.0, trace_rounds=70.0),
            replications=4,
        ),
    )
}
