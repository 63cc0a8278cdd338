"""Where the benchmark hooks into the program's layers.

:func:`install_round_clock` is the only hook of an untraced run: one clock
read as each round is recorded in the execution trace, which both the Python
round loop and the array kernel do exactly once per round.  From it come
the end of round 1 (the end of set-up) and the steady rounds 2..R.

:func:`install_spans` is the traced run: it wraps the public entry point of
every layer — on the concrete class the workload instantiates — in a span,
and :func:`layer_metrics` turns one unit's spans into the per-layer metrics.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Callable, Dict, List, Tuple

import repro.exec
import repro.exec.cache
import repro.scenarios.executor
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.kernel.engine import ArrayKernelEngine
from repro.problems.dynamic_problem import TDynamicSpec
from repro.runtime.simulator import Simulator
from repro.runtime.trace import ExecutionTrace
from repro.scenarios import ADVERSARIES, ALGORITHMS, METRICS, PROBES, ResultsStore, ScenarioSpec

from spans import LayerTotals, Patches, Tracer

#: The three ways a round is appended to the trace (Python loop, array
#: kernel with full retention, array kernel with stats retention).
_RECORD_METHODS = ("record", "record_lazy", "record_stats")


def install_round_clock(patches: Patches, stamps: List[float]) -> None:
    """Append ``perf_counter()`` to ``stamps`` as each round is recorded."""
    for method in _RECORD_METHODS:
        original = getattr(ExecutionTrace, method)

        def stamped(self, *args: Any, _original: Callable = original, **kwargs: Any) -> Any:
            result = _original(self, *args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        patches.replace(ExecutionTrace, method, stamped)


def install_spans(patches: Patches, tracer: Tracer, spec: ScenarioSpec) -> None:
    """Wrap each layer's entry points in spans for runs of ``spec``."""
    wrap = tracer.wrap

    def methods(owner: type, names: Dict[str, str]) -> None:
        for method, span in names.items():
            patches.replace(owner, method, wrap(span, getattr(owner, method)))

    # Classes known only once a factory has built an instance get their
    # methods wrapped on first sight.
    wrapped_classes: set = set()

    def on_first(instance: Any, names: Dict[str, str]) -> None:
        cls = type(instance)
        if cls not in wrapped_classes:
            wrapped_classes.add(cls)
            methods(cls, names)

    def factory(registry: Any, name: str, span: str, names: Dict[str, str]) -> None:
        original = registry.get(name)

        def build(*args: Any, **kwargs: Any) -> Any:
            instance = tracer.call(span, original, *args, **kwargs)
            on_first(instance, names)
            return instance

        patches.register(registry, name, build)

    # exec: the batch runner and the unit it times (the unit is not a layer:
    # its self time is work no layer span covers).
    patches.replace(repro.exec, "run_units", wrap("exec.run_units", repro.exec.run_units))
    patches.replace(
        repro.scenarios.executor,
        "run_scenario_seed",
        wrap("exec.unit", repro.scenarios.executor.run_scenario_seed),
    )
    # dynamics
    patches.replace(
        repro.exec.cache,
        "cached_base_topology",
        wrap("dynamics.generate", repro.exec.cache.cached_base_topology),
    )
    factory(ADVERSARIES, spec.adversary.name, "dynamics.adversary_build", {"step": "dynamics.adversary_step"})
    methods(
        DynamicGraph,
        {"intersection_graph": "dynamics.window_graph", "union_graph": "dynamics.window_graph"},
    )
    # algorithms
    factory(
        ALGORITHMS,
        spec.algorithm.name,
        "algorithms.build",
        {"compose": "algorithms.compose", "deliver": "algorithms.deliver", "output": "algorithms.output"},
    )
    # runtime
    methods(Simulator, {"__init__": "runtime.construct", "run": "runtime.run"})
    activity = Simulator.last_round_activity
    patches.replace(
        Simulator,
        "last_round_activity",
        property(lambda sim: tracer.call("runtime.activity", activity.fget, sim)),
    )
    methods(ExecutionTrace, {method: "runtime.trace_record" for method in _RECORD_METHODS})
    # kernel: the first run_round of each engine is round 1, part of set-up
    methods(ArrayKernelEngine, {"__init__": "kernel.engine_build", "finalize": "kernel.finalize"})
    run_round = ArrayKernelEngine.run_round
    started = weakref.WeakSet()

    def timed_round(engine: ArrayKernelEngine) -> None:
        span = "kernel.round" if engine in started else "kernel.round1"
        started.add(engine)
        return tracer.call(span, run_round, engine)

    patches.replace(ArrayKernelEngine, "run_round", timed_round)
    # problems
    methods(TDynamicSpec, {"check_round": "problems.check_round"})
    # scenarios
    for name in {metric.name for metric in spec.metrics}:
        patches.register(METRICS, name, wrap("scenarios.metrics", METRICS.get(name)))
    if spec.probe is not None:
        factory(PROBES, spec.probe.name, "scenarios.probe", {"observe": "scenarios.probe", "finish": "scenarios.probe"})
    methods(ResultsStore, {"put": "scenarios.store_put"})


#: Spans that are not layers: the benchmark's own root and the work unit.
#: Their self time is the part of ``e2e_s`` no layer accounts for.
UNATTRIBUTED_SPANS = ("bench.e2e", "exec.unit")

#: Per-layer metric -> (spans it sums, which total).  ``seconds`` is time
#: inside the spans, ``self_seconds`` that time minus their child spans.
LAYER_METRICS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "dynamics.generate_s": (("dynamics.generate",), "seconds"),
    "dynamics.adversary_build_s": (("dynamics.adversary_build",), "seconds"),
    "dynamics.adversary_step_s": (("dynamics.adversary_step",), "seconds"),
    "dynamics.adversary_step_calls": (("dynamics.adversary_step",), "calls"),
    "dynamics.window_graph_s": (("dynamics.window_graph",), "seconds"),
    "dynamics.window_graph_calls": (("dynamics.window_graph",), "calls"),
    "problems.check_round_self_s": (("problems.check_round",), "self_seconds"),
    "problems.check_round_calls": (("problems.check_round",), "calls"),
    "runtime.construct_s": (("runtime.construct",), "seconds"),
    "runtime.run_s": (("runtime.run",), "seconds"),
    "runtime.run_calls": (("runtime.run",), "calls"),
    "runtime.round_self_s": (("runtime.run",), "self_seconds"),
    "runtime.trace_record_s": (("runtime.trace_record",), "seconds"),
    "runtime.activity_s": (("runtime.activity",), "seconds"),
    "algorithms.build_s": (("algorithms.build",), "seconds"),
    "algorithms.compose_s": (("algorithms.compose",), "seconds"),
    "algorithms.deliver_s": (("algorithms.deliver",), "seconds"),
    "algorithms.output_s": (("algorithms.output",), "seconds"),
    "algorithms.node_calls": (("algorithms.compose", "algorithms.deliver", "algorithms.output"), "calls"),
    "kernel.engine_build_s": (("kernel.engine_build",), "seconds"),
    "kernel.round1_s": (("kernel.round1",), "seconds"),
    "kernel.round_s": (("kernel.round",), "seconds"),
    "kernel.round_calls": (("kernel.round",), "calls"),
    "kernel.finalize_s": (("kernel.finalize",), "seconds"),
    "kernel.finalize_calls": (("kernel.finalize",), "calls"),
    "scenarios.probe_s": (("scenarios.probe",), "seconds"),
    "scenarios.metrics_s": (("scenarios.metrics",), "seconds"),
    "scenarios.store_put_s": (("scenarios.store_put",), "seconds"),
    "exec.overhead_s": (("exec.run_units",), "self_seconds"),
    "bench.unattributed_s": (UNATTRIBUTED_SPANS, "self_seconds"),
}


def layer_unit(metric: str) -> str:
    return "count" if LAYER_METRICS[metric][1] == "calls" else "s"


def layer_metrics(summary: Dict[str, LayerTotals]) -> Dict[str, float]:
    """The per-layer metrics of one traced unit, from its span totals."""
    empty = LayerTotals()
    return {
        metric: float(sum(getattr(summary.get(span, empty), total) for span in spans))
        for metric, (spans, total) in LAYER_METRICS.items()
    }
