"""The reference-row gate: committed rows pass, a perturbed one fails."""

import json

import pytest

from harness import REFERENCE_DIR, load_reference, row_problems
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

CASES = [(name, seed) for name in sorted(WORKLOADS) for seed in (DEFAULT_SEED, HELD_OUT_SEED)]


@pytest.mark.parametrize("name,seed", CASES)
def test_reference_row_is_committed_and_passes(name, seed):
    expected = load_reference(name, seed)
    assert expected is not None, f"missing {REFERENCE_DIR / name / f'seed-{seed}.json'}"
    rows = json.loads(expected)
    seeds = WORKLOADS[name].spec_dict(seed)["seeds"]
    assert [row["seed"] for row in rows] == [float(s) for s in seeds]
    assert row_problems(WORKLOADS[name], rows, expected) == []


@pytest.mark.parametrize("name,seed", CASES)
def test_gate_fires_when_one_reference_value_is_perturbed(name, seed):
    expected = load_reference(name, seed)
    rows = json.loads(expected)
    key = next(k for k in sorted(rows[0]) if k != "seed")
    rows[0][key] = rows[0][key] + 1.0
    problems = row_problems(WORKLOADS[name], rows, expected)
    assert any(key in problem for problem in problems)


def test_invariants_fire_without_a_reference():
    workload = WORKLOADS["kernel-100k"]
    rows = json.loads(load_reference("kernel-100k", DEFAULT_SEED))
    rows[0]["trace_rounds"] = 19.0
    assert row_problems(workload, rows, None) == ["trace_rounds = 19.0, expected 20.0"]
