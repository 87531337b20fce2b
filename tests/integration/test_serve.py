"""Integration tests for the live status plane.

The tentpole guarantees: a ticking churn run exposes real metrics and a
crash-aware status document over HTTP; an induced probe-rate spike
produces an ``slo.breach`` the report renders with its cause chain; and
the streaming trace backend is byte-identical to the buffered one on a
real experiment.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.experiments.catalog import EXPERIMENTS
from repro.obs.report import render_report
from repro.obs.serve import LiveRun, attach_status_plane, start_server
from repro.obs.slo import SloRule
from repro.obs.stream import StreamingSink
from repro.obs.trace import Tracer, read_trace, set_default_tracer

REPO_ROOT = Path(__file__).resolve().parents[2]


def _get(server, path):
    host, port = server.server_address[:2]
    with urlopen(f"http://{host}:{port}{path}", timeout=10) as response:
        return response.status, response.headers, response.read().decode()


def _live_churn(tmp_path, tracer, **plane_kwargs):
    row = EXPERIMENTS["churn"]
    capsule = row.capsule_for(quick=True, **row.serve)
    plane = attach_status_plane(
        capsule.control_plane,
        tracer,
        status_path=tmp_path / "status.json",
        every_k_epochs=2,
        **plane_kwargs,
    )
    return LiveRun(capsule, plane)


@pytest.fixture()
def live_churn(tmp_path):
    """A served quick churn run, stepped under test control."""
    tracer = Tracer.with_instruments()
    previous = set_default_tracer(tracer)
    server = None
    try:
        live = _live_churn(tmp_path, tracer)
        server = start_server(live, port=0)
        live.start()
        yield live, server, live.plane
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        set_default_tracer(previous)


class TestLiveEndpoints:
    def test_metrics_and_status_track_the_run(self, live_churn):
        live, server, plane = live_churn

        # Before the crash: probes and rolling gauges are live.
        live.step(45.0)
        status, headers, body = _get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "bass_probes_total" in body
        assert 'bass_rolling_probe_rate_per_second{scope="fleet"}' in body
        # The emulator's tick profile rides along as transient gauges.
        assert "bass_tick_count 4" in body  # 45 ticks so far
        assert 'bass_tick_phase_seconds{phase="solve"}' in body
        assert "bass_solver_full_solves" in body
        assert body.endswith("# EOF\n")

        code, _, epoch_body = _get(server, "/v1/epoch")
        epoch_doc = json.loads(epoch_body)
        assert code == 200
        assert epoch_doc["epoch"] >= 1
        assert epoch_doc["done"] is False

        # Crash at t=60; run to the horizon so detection + recovery and
        # at least one publish boundary have passed.
        live.step(live.capsule.duration_s)
        assert live.done
        code, headers, status_body = _get(server, "/v1/status")
        assert code == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(status_body)
        assert document["version"] == 1
        (region,) = document["regions"]
        assert region["health"] == "degraded"
        assert "node2" in region["down_nodes"]
        assert document["recovery"]["recovered"] >= 1
        # The crash-evicted sink was re-placed off the dead node.
        for tenant in document["tenants"]:
            assert "node2" not in tenant["placements"].values()

        # Detection latency flowed into the rolling windows + /metrics.
        _, _, body = _get(server, "/metrics")
        assert "bass_node_failures_detected_total 1" in body
        assert "bass_rolling_detection_latency_p95_seconds" in body

        live.finish()
        on_disk = json.loads(plane.publisher.path.read_text())
        assert on_disk["revision"] == plane.publisher.revision

    def test_crash_reflected_within_k_epochs_of_detection(self, live_churn):
        live, server, plane = live_churn
        # Step epoch-by-epoch past the crash until the detector confirms.
        detected_at = None
        while not live.done:
            live.step(30.0)
            _, _, body = _get(server, "/metrics")
            if "bass_node_failures_detected_total 1" in body:
                detected_at = live.engine.now
                break
        assert detected_at is not None
        # Within k=2 further epochs the published document must show it.
        live.step(2 * 30.0)
        _, _, status_body = _get(server, "/v1/status")
        document = json.loads(status_body)
        assert "node2" in document["regions"][0]["down_nodes"]
        assert document["recovery"] is not None

    def test_unknown_path_is_404_and_health_is_200(self, live_churn):
        _, server, _ = live_churn
        code, _, body = _get(server, "/health")
        assert code == 200 and json.loads(body) == {"ok": True}
        with pytest.raises(HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404


class TestServeProcess:
    def test_serve_fig13_answers_until_sigterm(self, tmp_path):
        """``bass-repro serve fig13 --quick --port 0`` end to end: the
        process announces its port, ticks to the horizon, serves the
        OpenMetrics exposition and the status document, and exits 0 on
        SIGTERM."""
        status_path = tmp_path / "status.json"
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "fig13",
             "--quick", "--port", "0", "--status-path", str(status_path)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"serving \S+ on http://([^:]+):(\d+) ", banner)
            assert match, banner
            base = f"http://{match.group(1)}:{match.group(2)}"

            def get(path):
                with urlopen(base + path, timeout=10) as response:
                    return response.read().decode()

            deadline = time.monotonic() + 120.0
            while not json.loads(get("/v1/epoch"))["done"]:
                assert time.monotonic() < deadline, "horizon never reached"
                time.sleep(0.2)
            metrics = get("/metrics").splitlines()
            assert any(
                line.startswith("# HELP bass_probes_total") for line in metrics
            )
            assert "# TYPE bass_probes_total counter" in metrics
            assert metrics[-1] == "# EOF"
            assert any(
                "bass_rolling_probe_rate_per_second" in line
                for line in metrics
            )
            assert json.loads(get("/v1/status"))["version"] == 1
            assert json.loads(status_path.read_text())["version"] == 1
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


class TestSloBreachPipeline:
    def test_probe_spike_breaches_and_report_renders_cause(self, tmp_path):
        tracer = Tracer.with_instruments()
        previous = set_default_tracer(tracer)
        try:
            live = _live_churn(
                tmp_path,
                tracer,
                # An absurdly low ceiling: the first epoch's ordinary
                # probe activity is the "spike" that must trip it.
                rules=(
                    SloRule(
                        "probe-rate-ceiling",
                        "probe_rate",
                        max_value=1e-6,
                        description="test ceiling",
                    ),
                ),
            )
            live.start()
            live.step(65.0)  # two epochs: breach evaluated at each end
            breaches = tracer.events_of_kind("slo.breach")
            assert len(breaches) == 1  # edge-triggered, not re-emitted
            breach = breaches[0]
            assert breach.data["rule"] == "probe-rate-ceiling"
            assert breach.cause is not None
            # The cited cause is real probe activity from the run.
            by_id = {event.id: event for event in tracer.events}
            assert by_id[breach.cause].kind in (
                "probe.headroom", "probe.max_capacity"
            )
            # And the watchdog's state reaches status.json.
            live.finish()
            document = json.loads((tmp_path / "status.json").read_text())
            assert document["slo"]["breach_count"] == 1
            (active,) = document["slo"]["active_breaches"]
            assert active["rule"] == "probe-rate-ceiling"

            report = render_report(tracer.events)
            assert "slo breaches: 1" in report
            assert "SLO probe-rate-ceiling breached" in report
            assert "caused-by" in report
        finally:
            set_default_tracer(previous)


class TestStreamingGoldenEquivalence:
    def test_fig13_shards_concatenate_to_legacy_trace(self, tmp_path):
        # One real traced run (trace events embed wall-clock scheduler
        # timings, so byte-identity only holds for one event stream fed
        # through both backends, not across two runs).
        legacy = tmp_path / "fig13.jsonl"
        shards = tmp_path / "shards"
        assert main(
            ["run", "fig13", "--quick", "--trace", str(legacy)]
        ) == 0
        events = read_trace(legacy)
        assert len(events) > 100  # a real decision stream, not a stub
        sink = StreamingSink(shards, window=64, shard_events=50)
        for event in events:
            sink.append(event)
        sink.close()
        assert sink.published_shards >= 3  # rotation actually exercised
        concatenated = b"".join(
            shard.read_bytes()
            for shard in sorted(shards.glob("trace-*.jsonl"))
        )
        assert concatenated == legacy.read_bytes()
        # And the report path accepts the shard directory directly.
        assert read_trace(shards) == events

    def test_trace_stream_cli_writes_readable_shards(self, tmp_path):
        shards = tmp_path / "shards"
        assert main(
            ["run", "fig13", "--quick", "--trace-stream", str(shards)]
        ) == 0
        events = read_trace(shards)
        kinds = {event.kind for event in events}
        assert {"probe.headroom", "migration.selected", "restart"} <= kinds
        # The report renders straight off the shard directory.
        assert main(["report", str(shards)]) == 0

    def test_trace_and_trace_stream_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "fig13", "--quick",
                    "--trace", str(tmp_path / "t.jsonl"),
                    "--trace-stream", str(tmp_path / "shards"),
                ]
            )
