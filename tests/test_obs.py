"""Unified telemetry: metrics registry, tracing spans, phase profiling.

Unit tests for :mod:`repro.obs` (instruments, Prometheus rendering, span
nesting, the Chrome trace-event export, the ``REPRO_OBS`` kill switch),
integration tests for ``run_kernel`` phase timing (including the contract
that ``phase_seconds`` never enters ``metrics_hash``), queue/latency
telemetry, and the daemon's ``/v1/metrics`` + ``/v1/sweeps/<id>/trace``
endpoints over a real socket.
"""

import json
import time

import pytest

from repro import obs, run_kernel
from repro.runner import KernelRunResult
from tests.conftest import small_tile
from tests.test_service_server import JOB_WIRE, running_server


@pytest.fixture(autouse=True)
def telemetry_on():
    """Every test here runs with telemetry enabled and restores the
    process-wide toggle afterwards."""
    before = obs.enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(before)


class TestMetrics:
    def test_counter_is_get_or_create_by_name(self):
        a = obs.counter("test_obs_demo_total", "demo counter")
        b = obs.counter("test_obs_demo_total")
        assert a is b
        before = a.value
        b.inc()
        b.inc(2.5)
        assert a.value == pytest.approx(before + 3.5)

    def test_counter_rejects_negative_and_disabled_is_noop(self):
        c = obs.counter("test_obs_neg_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        obs.set_enabled(False)
        before = c.value
        c.inc(5)
        assert c.value == before

    def test_gauge_callback_and_set(self):
        g = obs.gauge("test_obs_gauge", "demo gauge")
        g.set(4.0)
        assert g.value == 4.0
        g.set_function(lambda: 7.0)
        assert g.value == 7.0
        g.set_function(lambda: 1 / 0)  # dead owner must not break scrapes
        assert g.value == 0.0

    def test_histogram_buckets_and_percentiles(self):
        h = obs.histogram("test_obs_seconds", "demo histogram")
        for value in (0.002, 0.002, 0.02, 1.5):
            h.observe(value)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1.524)
        # Quantiles are bucket-resolution: the upper bound of the bucket
        # the q-th observation fell into.
        assert snap["p50"] == 0.0025
        assert snap["p95"] == 2.5
        assert sum(snap["counts"]) == 4

    def test_prometheus_rendering(self):
        obs.counter("test_obs_render_total", "a help line").inc(2)
        obs.histogram("test_obs_render_seconds", "latencies").observe(0.01)
        text = obs.render_prometheus()
        assert "# HELP test_obs_render_total a help line" in text
        assert "# TYPE test_obs_render_total counter" in text
        assert "test_obs_render_total 2" in text
        assert "# TYPE test_obs_render_seconds histogram" in text
        assert 'test_obs_render_seconds_bucket{le="+Inf"} 1' in text
        assert "test_obs_render_seconds_count 1" in text
        # Every non-comment line is "name[{labels}] value".
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2


class TestSpans:
    def test_span_nesting_and_recording(self):
        with obs.span("outer", attr="x") as outer:
            assert outer is not None
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.span_id != outer.span_id
        spans = obs.peek_spans(outer.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"]["attr"] == "x"
        assert by_name["outer"]["dur"] >= by_name["inner"]["dur"]
        obs.take_spans(outer.trace_id)

    def test_explicit_parent_beats_ambient(self):
        parent = obs.TraceContext(obs.new_trace_id(), obs.new_span_id())
        with obs.span("child", parent=parent) as child:
            assert child.trace_id == parent.trace_id
        [record] = obs.take_spans(parent.trace_id)
        assert record["parent"] == parent.span_id

    def test_disabled_span_yields_none_and_records_nothing(self):
        obs.set_enabled(False)
        with obs.span("ghost") as ctx:
            assert ctx is None

    def test_wire_roundtrip_and_malformed(self):
        ctx = obs.TraceContext(obs.new_trace_id(), obs.new_span_id())
        assert obs.TraceContext.from_wire(ctx.to_wire()) == ctx
        for bad in (None, "nope", {}, {"trace": "t"}, {"span": "s"},
                    {"trace": 1, "span": 2}, []):
            assert obs.TraceContext.from_wire(bad) is None

    def test_recorder_take_is_destructive_peek_is_not(self):
        with obs.span("once") as ctx:
            pass
        assert len(obs.peek_spans(ctx.trace_id)) == 1
        assert len(obs.peek_spans(ctx.trace_id)) == 1
        assert len(obs.take_spans(ctx.trace_id)) == 1
        assert obs.take_spans(ctx.trace_id) == []

    def test_recorder_eviction_is_bounded(self):
        recorder = obs.SpanRecorder(limit=10)
        for i in range(30):
            recorder.record({"trace": f"t{i}", "span": f"s{i}",
                             "name": "n", "ts": float(i), "dur": 0.0})
        assert len(recorder) <= 10
        assert recorder.peek("t29")  # newest survives

    def test_chrome_trace_export(self):
        spans = [
            {"name": "sweep", "trace": "t", "span": "a", "parent": None,
             "ts": 100.0, "dur": 2.0, "proc": "coordinator", "tid": 1,
             "attrs": {}},
            {"name": "attempt", "trace": "t", "span": "b", "parent": "a",
             "ts": 100.5, "dur": 1.0, "proc": "w1", "tid": 2,
             "attrs": {"job": "x"}},
        ]
        document = obs.chrome_trace(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"coordinator", "w1"}
        assert len(slices) == 2
        assert slices[0]["ts"] <= slices[1]["ts"]
        attempt = next(e for e in slices if e["name"] == "attempt")
        assert attempt["dur"] == pytest.approx(1.0e6)
        assert attempt["args"]["parent"] == "a"
        assert attempt["pid"] != slices[0]["pid"] or \
            slices[0]["name"] == "attempt"
        json.dumps(document)  # must be serializable as-is


class TestPhases:
    def test_phase_accumulates_into_active_accumulator(self):
        with obs.phase_accumulator() as phases:
            with obs.phase("alpha"):
                time.sleep(0.002)
            with obs.phase("alpha"):
                pass
            with obs.phase("beta.sub"):
                pass
        assert phases["alpha"] >= 0.002
        assert "beta.sub" in phases

    def test_phase_without_accumulator_is_noop(self):
        with obs.phase("orphan"):
            pass  # must not raise

    def test_disabled_accumulator_is_empty(self):
        obs.set_enabled(False)
        with obs.phase_accumulator() as phases:
            with obs.phase("alpha"):
                pass
        assert phases == {}


class TestRunnerPhaseProfile:
    def test_run_kernel_phase_seconds_shape_and_sum(self):
        start = time.perf_counter()
        result = run_kernel("jacobi_2d", variant="base",
                            tile_shape=small_tile("jacobi_2d"))
        wall = time.perf_counter() - start
        phases = result.phase_seconds
        assert {"codegen", "setup", "simulate", "verify",
                "other"} <= set(phases)
        top = sum(v for k, v in phases.items() if "." not in k)
        # The top-level phases partition run_kernel's own wall time.
        assert top == pytest.approx(wall, rel=0.10, abs=0.05)
        assert all(v >= 0.0 for v in phases.values())
        if result.engine == "native":
            # The C call is timed on its own, inside "simulate".
            assert phases["simulate.native"] <= phases["simulate"]

    def test_phase_seconds_never_enters_metrics_hash(self):
        tile = small_tile("jacobi_2d")
        with_obs = run_kernel("jacobi_2d", variant="base", tile_shape=tile)
        obs.set_enabled(False)
        without = run_kernel("jacobi_2d", variant="base", tile_shape=tile)
        obs.set_enabled(True)
        assert with_obs.phase_seconds and not without.phase_seconds
        assert with_obs.metrics_hash() == without.metrics_hash()

    def test_phase_seconds_serialization_roundtrip(self):
        result = run_kernel("jacobi_2d", variant="base",
                            tile_shape=small_tile("jacobi_2d"))
        payload = result.to_json_dict()
        assert payload["phase_seconds"] == result.phase_seconds
        back = KernelRunResult.from_json_dict(payload)
        assert back.phase_seconds == result.phase_seconds
        assert back.metrics_hash() == result.metrics_hash()

    def test_disabled_run_omits_phase_seconds_from_json(self):
        obs.set_enabled(False)
        result = run_kernel("jacobi_2d", variant="base",
                            tile_shape=small_tile("jacobi_2d"))
        assert result.phase_seconds == {}
        assert "phase_seconds" not in result.to_json_dict()


class TestServiceTelemetry:
    def test_metrics_endpoint_and_latency_percentiles(self):
        with running_server() as (service, client):
            before = client.metrics()
            assert "# TYPE repro_queue_submitted_total counter" in before
            receipt = client.submit({"jobs": [JOB_WIRE]})
            final = client.wait(receipt["sweep"])
            assert final["counts"]["done"] == 1
            text = client.metrics()
            assert "repro_queue_executed_total" in text
            assert 'repro_queue_wait_seconds_bucket{le="+Inf"}' in text
            stats = client.stats()
            assert "metrics" in stats
            latency = stats["queue"]["latency"]
            assert latency["queue"]["count"] >= 1
            assert latency["exec"]["p50"] is not None
            assert latency["exec"]["p95"] >= latency["exec"]["p50"]
            # Sweep status carries its own trace id and latency summary.
            sweep = client.sweep(receipt["sweep"])
            assert sweep["trace"]
            assert sweep["latency"]["exec"]["count"] == 1

    def test_events_carry_wall_and_monotonic_timestamps(self):
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            events = list(client.events(receipt["sweep"]))
            assert events
            for event in events:
                assert event["ts"] > 0
                assert event["ts_mono"] > 0
            monos = [e["ts_mono"] for e in events]
            assert monos == sorted(monos)

    def test_trace_endpoint_returns_parented_spans(self):
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            client.wait(receipt["sweep"])
            payload = client.trace(receipt["sweep"])
            assert payload["sweep"] == receipt["sweep"]
            assert payload["trace"] == client.sweep(receipt["sweep"])["trace"]
            spans = payload["spans"]
            assert spans and all(s["trace"] == payload["trace"]
                                 for s in spans)
            by_name = {}
            for span in spans:
                by_name.setdefault(span["name"], []).append(span)
            [root] = by_name["sweep"]
            assert root["parent"] is None
            [submit] = by_name["submit"]
            assert submit["parent"] == root["span"]
            [attempt] = by_name["attempt"]
            assert attempt["parent"] == submit["span"]

    def test_trace_endpoint_404_on_unknown_sweep(self):
        with running_server() as (service, client):
            with pytest.raises(Exception) as err:
                client.trace("s9999-nope")
            assert getattr(err.value, "status", None) == 404

    def test_disabled_telemetry_sweeps_have_no_trace(self):
        obs.set_enabled(False)
        with running_server() as (service, client):
            receipt = client.submit({"jobs": [JOB_WIRE]})
            final = client.wait(receipt["sweep"])
            assert final["state"] == "done"
            assert final["trace"] is None
            assert client.trace(receipt["sweep"])["spans"] == []
