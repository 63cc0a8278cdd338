"""A small scenario through every unit mode: same row, sane layer numbers."""

import pytest

from harness import MODES, canonical_json, run_unit
from layers import LAYER_METRICS
from repro.scenarios import METRICS, ScenarioSpec
from repro.runtime.simulator import Simulator
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_modes_store_identical_rows(name, tmp_path):
    spec_dict = {**WORKLOADS[name].spec_dict(3), "n": 60, "rounds": 6}
    spec = ScenarioSpec.from_dict(spec_dict)
    before = (Simulator.__dict__["run"], METRICS.get("stability"))
    units = {mode: run_unit(spec, mode, tmp_path, {"host": "test"}) for mode in MODES}
    assert (Simulator.__dict__["run"], METRICS.get("stability")) == before
    rows = {mode: canonical_json(unit.rows) for mode, unit in units.items()}
    assert len(set(rows.values())) == 1
    for unit in units.values():
        assert unit.steady_rounds == 5 * len(spec.seeds)
        assert 0 < unit.setup_s < unit.e2e_s
    layers = units["spans"].layers
    assert set(layers) == set(LAYER_METRICS)
    assert layers["runtime.run_calls"] >= 1
    assert all(value >= 0 for value in layers.values())
    assert layers["bench.unattributed_s"] < units["spans"].e2e_s
