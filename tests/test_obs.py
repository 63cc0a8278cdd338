"""Observability layer: structured tracing, metrics registry, reporting.

Covers the trace sink and its schema, the ambient metrics registry, the
instrumented simulator/runner/dispatcher paths, the worker-timings
aggregation under re-dispatch, and the consumer verbs (``repro trace``,
``repro report``) — including the house invariant that tracing on/off
leaves store rows byte-identical.
"""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy, run_units, units_for_spec
from repro.exec.remote import RemoteBackend
from repro.exec.remote.worker import WORKER_INTERRUPT_ENV
from repro.exec.runner import INTERRUPT_ENV
from repro.exec.stats import UNIT_ROUNDS, StatsCollector, collect_stats
from repro.exec.units import build_chunks
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    collect_metrics,
    metric_gauge,
    metric_inc,
    metric_observe,
)
from repro.obs.trace import (
    TRACE_ENV,
    TraceSink,
    active_sink,
    emit,
    read_trace,
    refresh_from_env,
    telemetry_from_mapping,
    trace_to,
    validate_event,
    validate_trace,
)
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.store import canonical_json


def tiny_spec(**overrides):
    defaults = dict(
        n=16,
        topology="gnp_sparse",
        algorithm="dynamic-coloring",
        adversary=component("flip-churn", flip_prob=0.02),
        rounds=4,
        seeds=(0, 1, 2),
        metrics=(component("validity", problem="coloring"),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _events(path, name=None):
    events = read_trace(path)
    if name is None:
        return events
    return [event for event in events if event["event"] == name]


# ---------------------------------------------------------------------------
# sink mechanics and enablement
# ---------------------------------------------------------------------------


class TestTraceSink:
    def test_emit_writes_valid_ndjson_with_envelope(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = TraceSink(path)
        sink.emit("ping", worker="w0")
        sink.emit("ping", worker="w1")
        sink.close()
        events = read_trace(path)
        assert [event["seq"] for event in events] == [0, 1]
        for event in events:
            assert validate_event(event) == []
            assert isinstance(event["pid"], int)
            assert isinstance(event["t"], float)

    def test_emit_is_a_noop_without_a_sink(self, tmp_path):
        assert active_sink() is None
        emit("ping", worker="nowhere")  # must not raise or create files
        assert list(tmp_path.iterdir()) == []

    def test_trace_to_nests_and_restores(self, tmp_path):
        outer, inner = tmp_path / "outer.ndjson", tmp_path / "inner.ndjson"
        with trace_to(outer):
            emit("ping", worker="outer")
            with trace_to(inner):
                emit("ping", worker="inner")
            emit("ping", worker="outer-again")
        assert active_sink() is None
        assert [event["worker"] for event in _events(outer, "ping")] == [
            "outer",
            "outer-again",
        ]
        assert [event["worker"] for event in _events(inner, "ping")] == ["inner"]

    def test_env_enablement_appends(self, tmp_path, monkeypatch):
        path = tmp_path / "env.ndjson"
        path.write_text("", encoding="utf-8")
        monkeypatch.setenv(TRACE_ENV, str(path))
        refresh_from_env()
        try:
            emit("ping", worker="from-env")
            emit("ping", worker="again")
        finally:
            monkeypatch.delenv(TRACE_ENV)
            refresh_from_env()
        assert [event["worker"] for event in _events(path, "ping")] == [
            "from-env",
            "again",
        ]
        emit("ping", worker="after-refresh")  # env gone: back to a no-op
        assert len(_events(path, "ping")) == 2

    def test_numpy_scalars_are_coerced(self, tmp_path):
        numpy = pytest.importorskip("numpy")
        path = tmp_path / "np.ndjson"
        with trace_to(path):
            emit("chunk_done", chunk=numpy.int64(3), units=numpy.int32(2))
        (event,) = _events(path, "chunk_done")
        assert event["chunk"] == 3 and event["units"] == 2
        assert validate_event(event) == []


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


class TestValidation:
    def _record(self, **overrides):
        record = {
            "event": "chunk_done",
            "seq": 0,
            "pid": 1,
            "t": 1.0,
            "chunk": 0,
            "units": 3,
        }
        record.update(overrides)
        return record

    def test_valid_record_passes(self):
        assert validate_event(self._record()) == []

    def test_extra_fields_are_allowed(self):
        assert validate_event(self._record(note="extra")) == []

    def test_unknown_event_is_rejected(self):
        problems = validate_event(self._record(event="warp"))
        assert any("unknown event" in problem for problem in problems)

    def test_missing_field_is_rejected(self):
        record = self._record()
        del record["units"]
        assert any("missing field 'units'" in p for p in validate_event(record))

    def test_wrong_type_is_rejected(self):
        problems = validate_event(self._record(units="three"))
        assert any("'units' is not int" in problem for problem in problems)

    def test_bool_is_not_an_int(self):
        problems = validate_event(self._record(units=True))
        assert any("'units' is not int" in problem for problem in problems)

    def test_int_satisfies_float_fields(self):
        record = {
            "event": "batch_end",
            "seq": 0,
            "pid": 1,
            "t": 2,  # int where float is expected: fine
            "label": "x",
            "units": 3,
            "seconds": 4,
        }
        assert validate_event(record) == []

    def test_validate_trace_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        good = json.dumps(self._record())
        path.write_text(
            good + "\n" + "{torn\n" + '{"event":"warp","seq":1,"pid":1,"t":1.0}\n',
            encoding="utf-8",
        )
        problems = validate_trace(path)
        assert any(problem.startswith("line 2: invalid JSON") for problem in problems)
        assert any("line 3: unknown event" in problem for problem in problems)

    def test_read_trace_is_strict(self, tmp_path):
        path = tmp_path / "torn.ndjson"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid trace line"):
            read_trace(path)

    def test_telemetry_block_parsing(self):
        assert telemetry_from_mapping({}).trace is None
        assert telemetry_from_mapping({"trace": "runs/t.ndjson"}).trace == "runs/t.ndjson"
        with pytest.raises(ConfigurationError, match="unknown keys: tarce"):
            telemetry_from_mapping({"tarce": "x"})
        with pytest.raises(ConfigurationError, match="non-empty string"):
            telemetry_from_mapping({"trace": 5})


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 1.25)
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        assert registry.counter("a") == 5
        assert registry.gauge("g") == 1.25
        assert registry.histogram("h") == {
            "count": 3,
            "total": 6.0,
            "min": 1.0,
            "max": 3.0,
        }
        block = registry.as_provenance()
        assert block["counters"] == {"a": 5}
        assert block["gauges"] == {"g": 1.25}
        assert block["histograms"]["h"]["mean"] == 2.0
        assert "phases" not in block

    def test_empty_registry_yields_empty_block(self):
        assert MetricsRegistry().as_provenance() == {}

    def test_as_provenance_folds_in_stats(self):
        stats = StatsCollector()
        stats.add(UNIT_ROUNDS, 0.5)
        block = MetricsRegistry().as_provenance(stats)
        assert block["phases"][UNIT_ROUNDS] == {"seconds": 0.5, "events": 1}

    def test_ambient_helpers_are_noops_when_off(self):
        assert active_registry() is None
        metric_inc("x")
        metric_gauge("y", 1.0)
        metric_observe("z", 2.0)

    def test_collect_metrics_installs_and_restores(self):
        with collect_metrics() as registry:
            assert active_registry() is registry
            metric_inc("exec.units", 2)
            metric_gauge("rate", 4.0)
            metric_observe("chunk", 3.0)
        assert active_registry() is None
        assert registry.counter("exec.units") == 2


# ---------------------------------------------------------------------------
# instrumented pipeline: rounds, units, batches, byte-identity
# ---------------------------------------------------------------------------


class TestPipelineEvents:
    def test_run_units_emits_lifecycle_and_rows_match_untraced(self, tmp_path):
        units = units_for_spec(tiny_spec())
        baseline = run_units(units, ExecutionPolicy(backend="serial"))
        path = tmp_path / "run.ndjson"
        with trace_to(path):
            traced = run_units(units, ExecutionPolicy(backend="serial"))
        assert canonical_json(traced) == canonical_json(baseline)

        events = read_trace(path)
        assert validate_trace(path) == []
        counts = {}
        for event in events:
            counts[event["event"]] = counts.get(event["event"], 0) + 1
        assert counts["batch_begin"] == 1 and counts["batch_end"] == 1
        assert counts["unit_begin"] == 3 and counts["unit_end"] == 3
        assert counts["chunk_done"] >= 1
        assert counts["round"] > 0

        (begin,) = _events(path, "batch_begin")
        assert begin["units"] == 3 and begin["backend"] == "serial"
        rounds = _events(path, "round")
        assert all(event["mode"] in ("full", "delta", "kernel") for event in rounds)
        for unit in _events(path, "unit_begin"):
            assert unit["algorithm"] == "dynamic-coloring"
            assert unit["adversary"] == "flip-churn"

    def test_kernel_engine_emits_round_events(self, tmp_path):
        spec = tiny_spec(
            algorithm="scolor",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            delivery="kernel",
            seeds=(0,),
        )
        units = units_for_spec(spec)
        path = tmp_path / "kernel.ndjson"
        with trace_to(path):
            run_units(units, ExecutionPolicy(backend="serial"))
        assert validate_trace(path) == []
        rounds = _events(path, "round")
        assert rounds and all(event["mode"] == "kernel" for event in rounds)
        for event in rounds:
            assert isinstance(event["frontier"], int)
            assert isinstance(event["quiescent"], bool)

    def test_interrupted_resume_emits_journal_restore(self, tmp_path, monkeypatch):
        units = units_for_spec(tiny_spec())
        journal_dir = tmp_path / "journals"
        policy = ExecutionPolicy(
            backend="serial", chunk_size=1, journal_dir=str(journal_dir)
        )
        monkeypatch.setenv(INTERRUPT_ENV, "1")
        with pytest.raises(KeyboardInterrupt):
            run_units(units, policy)
        monkeypatch.delenv(INTERRUPT_ENV)

        path = tmp_path / "resume.ndjson"
        resume = ExecutionPolicy(
            backend="serial", chunk_size=1, journal_dir=str(journal_dir), resume=True
        )
        with trace_to(path):
            rows = run_units(units, resume)
        assert len(rows) == 3
        (restore,) = _events(path, "journal_restore")
        assert restore["restored"] >= 1
        (begin,) = _events(path, "batch_begin")
        assert begin["restored"] == restore["restored"]

    def test_metrics_registry_captures_runner_counters(self):
        units = units_for_spec(tiny_spec())
        with collect_metrics() as registry:
            run_units(units, ExecutionPolicy(backend="serial"))
        assert registry.counter("exec.units") == 3
        assert registry.counter("exec.chunks") >= 1
        block = registry.as_provenance()
        assert block["histograms"]["exec.chunk_units"]["count"] >= 1


# ---------------------------------------------------------------------------
# remote fabric: dispatch decisions and worker-timings aggregation
# ---------------------------------------------------------------------------


class TestRemoteTimings:
    def test_redispatch_after_worker_death_does_not_double_count(
        self, tmp_path, monkeypatch, ready_fleet
    ):
        """Worker 0 dies mid-chunk; its chunk is re-dispatched.  The dead
        attempt must contribute neither rows, nor a chunk_result event, nor
        worker-reported phase seconds — only absorbed results count."""
        units = units_for_spec(tiny_spec(seeds=tuple(range(12))))
        expected = canonical_json(run_units(units, ExecutionPolicy(backend="serial")))

        path = tmp_path / "remote.ndjson"
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "2")
        backend = RemoteBackend(2, adaptive=False)
        with trace_to(path), collect_stats() as stats, backend:
            ready_fleet(backend)
            got = dict(backend.submit_batch(build_chunks(units, 3)))
        monkeypatch.delenv(WORKER_INTERRUPT_ENV)

        rows = [row for index in sorted(got) for row in got[index]]
        assert canonical_json(rows) == expected
        assert backend.stats["workers_lost"] >= 1
        assert backend.stats["redispatched"] >= 1

        assert validate_trace(path) == []
        assert len(_events(path, "worker_lost")) == backend.stats["workers_lost"]
        assert len(_events(path, "redispatch")) == backend.stats["redispatched"]
        results = _events(path, "chunk_result")
        # Exactly one absorbed result per unit: a duplicate or dead attempt
        # never lands a second chunk_result for the same work.
        assert sum(event["units"] for event in results) == len(units)
        # Worker-side timings arrived and were replayed into ambient stats
        # once per absorbed result.
        assert all(event["timings"] for event in results)
        expected_rounds = sum(
            event["timings"].get(UNIT_ROUNDS, 0.0) for event in results
        )
        assert stats.as_dict()[UNIT_ROUNDS] == pytest.approx(expected_rounds)
        assert stats.events(UNIT_ROUNDS) == len(results)

    def test_duplicate_result_is_dropped_before_timings_replay(self, tmp_path):
        """A slow worker answering for an already re-dispatched task is a
        duplicate: no rows, no timings replay, no chunk_result event."""
        path = tmp_path / "dup.ndjson"
        backend = RemoteBackend(1)
        message = {"index": 99, "rows": [], "timings": {UNIT_ROUNDS: 1.0}}
        with trace_to(path), collect_stats() as stats:
            outcome = backend._absorb_result(None, message, tasks={}, assemblies={})
        assert outcome is None
        assert stats.events(UNIT_ROUNDS) == 0
        assert _events(path, "chunk_result") == []

    def test_fleet_stats_mirror_into_metrics(self, monkeypatch):
        units = units_for_spec(tiny_spec(seeds=tuple(range(8))))
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "2")
        backend = RemoteBackend(2, adaptive=False)
        with collect_metrics() as registry, backend:
            list(backend.submit_batch(build_chunks(units, 2)))
        monkeypatch.delenv(WORKER_INTERRUPT_ENV)
        assert registry.counter("exec.remote.tasks_dispatched") == backend.stats[
            "tasks_dispatched"
        ]
        assert registry.counter("exec.remote.workers_lost") == backend.stats[
            "workers_lost"
        ]
        assert registry.counter("exec.remote.redispatched") == backend.stats[
            "redispatched"
        ]


# ---------------------------------------------------------------------------
# CLI: --trace, the telemetry config block, trace/report/log verbs
# ---------------------------------------------------------------------------


def _scenario_config(tmp_path, telemetry=None):
    config = {
        "kind": "scenario",
        "spec": tiny_spec(name="obs-demo", seeds=(0, 1)).to_dict(),
    }
    if telemetry is not None:
        config["telemetry"] = telemetry
    path = tmp_path / "obs-demo.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _entry(store):
    (path,) = sorted(store.glob("scenarios/*.json"))
    return path, json.loads(path.read_text(encoding="utf-8"))


class TestCli:
    def test_traced_run_keeps_store_rows_byte_identical(self, tmp_path):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        plain_store, traced_store = tmp_path / "plain", tmp_path / "traced"
        trace_path = tmp_path / "run.ndjson"
        assert main(["run", str(config), "--store", str(plain_store)]) == 0
        assert main(
            ["run", str(config), "--store", str(traced_store), "--trace", str(trace_path)]
        ) == 0
        assert validate_trace(trace_path) == []

        name_a, entry_a = _entry(plain_store)
        name_b, entry_b = _entry(traced_store)
        assert name_a.name == name_b.name
        assert canonical_json(entry_a["rows"]) == canonical_json(entry_b["rows"])
        assert entry_a["key_hash"] == entry_b["key_hash"]
        # Telemetry lands in provenance on both runs (metrics are always
        # collected); only the trace file is gated by the flag.
        assert "phases" in entry_b["provenance"]["telemetry"]

    def test_traced_rerun_leaves_existing_entry_untouched(self, tmp_path):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        path, _ = _entry(store)
        before = path.read_bytes()
        assert main(
            ["run", str(config), "--store", str(store), "--trace", str(tmp_path / "t.ndjson")]
        ) == 0
        assert path.read_bytes() == before  # unchanged put: bytes untouched

    def test_config_telemetry_block_enables_tracing(self, tmp_path):
        from repro.scenarios.cli import main

        trace_path = tmp_path / "from-config.ndjson"
        config = _scenario_config(tmp_path, telemetry={"trace": str(trace_path)})
        assert main(["run", str(config), "--store", str(tmp_path / "store")]) == 0
        assert trace_path.is_file()
        assert validate_trace(trace_path) == []
        assert _events(trace_path, "unit_end")

    def test_cli_flag_wins_over_config_telemetry(self, tmp_path):
        from repro.scenarios.cli import main

        config_path_trace = tmp_path / "config-trace.ndjson"
        flag_trace = tmp_path / "flag-trace.ndjson"
        config = _scenario_config(tmp_path, telemetry={"trace": str(config_path_trace)})
        assert main(
            ["run", str(config), "--store", str(tmp_path / "store"),
             "--trace", str(flag_trace)]
        ) == 0
        assert flag_trace.is_file() and not config_path_trace.exists()

    def test_validate_rejects_bad_telemetry_block(self, tmp_path):
        from repro.scenarios.cli import main

        good = _scenario_config(tmp_path, telemetry={"trace": "runs/t.ndjson"})
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        config = json.loads(good.read_text(encoding="utf-8"))
        config["telemetry"] = {"trace": 5}
        bad.write_text(json.dumps(config), encoding="utf-8")
        assert main(["validate", str(bad)]) == 1

    def test_trace_verb_summarises_filters_and_validates(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        trace_path = tmp_path / "run.ndjson"
        assert main(
            ["run", str(config), "--store", str(tmp_path / "store"),
             "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()

        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out and "rounds" in out

        assert main(["trace", str(trace_path), "--validate"]) == 0
        assert "schema-valid" in capsys.readouterr().out

        assert main(["trace", str(trace_path), "--event", "unit_end", "--raw"]) == 0
        raw = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(raw) == 2
        assert all(json.loads(line)["event"] == "unit_end" for line in raw)

        assert main(["trace", str(tmp_path / "missing.ndjson")]) == 1

    def test_trace_validate_fails_on_schema_problems(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        path = tmp_path / "bad.ndjson"
        path.write_text('{"event":"warp","seq":0,"pid":1,"t":1.0}\n', encoding="utf-8")
        assert main(["trace", str(path), "--validate"]) == 1
        assert "unknown event" in capsys.readouterr().err

    def test_report_verb_renders_markdown(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "# Study report" in out
        assert "## Phase-time splits" in out
        assert "## Fleet utilization" in out
        assert "| scenarios/obs-demo |" in out

        out_file = tmp_path / "report.md"
        assert main(["report", "--store", str(store), "--out", str(out_file)]) == 0
        assert "# Study report" in out_file.read_text(encoding="utf-8")

        assert main(["report", "--store", str(tmp_path / "empty")]) == 1

    def test_log_shows_top_phases(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["log", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        # exec_dispatch wraps the whole batch, so it is always a top phase
        assert "phases" in out and "exec_dispatch=" in out

        assert main(["log", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("telemetry" in entry for entry in payload["entries"])
        (entry,) = [entry for entry in payload["entries"] if "telemetry" in entry]
        assert "phases" in entry["telemetry"]


class TestVerifyProgress:
    def test_run_verify_streams_progress(self):
        from repro.verify.harness import run_verify

        stream = io.StringIO()
        verdicts = run_verify(
            suite="smoke",
            contracts=["delta-vs-snapshot"],
            progress=True,
            progress_stream=stream,
        )
        assert verdicts and all(v.status == "pass" for v in verdicts)
        painted = stream.getvalue()
        assert "verify[smoke]" in painted and "1/1" in painted
