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
from types import SimpleNamespace
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.experiments.catalog import EXPERIMENTS
from repro.obs.report import render_report
from repro.obs.serve import start_server
from repro.obs.slo import SloRule, SloWatchdog
from repro.obs.status import StatusPublisher
from repro.obs.stream import StreamingSink
from repro.obs.trace import Tracer, read_trace, set_default_tracer

REPO_ROOT = Path(__file__).resolve().parents[2]


def _get(server, path):
    host, port = server.server_address[:2]
    with urlopen(f"http://{host}:{port}{path}", timeout=10) as response:
        return response.status, response.headers, response.read().decode()


def _live_churn(tmp_path, tracer):
    """A quick churn capsule with a status publisher attached, as
    ``bass-repro serve churn`` builds it."""
    row = EXPERIMENTS["churn"]
    capsule = row.capsule_for(quick=True, **row.serve)
    capsule.control_plane.attach_status(
        StatusPublisher(
            capsule.control_plane,
            tmp_path / "status.json",
            every_k_epochs=2,
            tracer=tracer,
        )
    )
    return capsule


def _finish(live):
    """What ``serve_run`` does at the horizon: publish, then seal."""
    live.control_plane.status.publish(
        live.engine.now, live.control_plane.epoch_count
    )
    live.env.tracer.close()


@pytest.fixture()
def live_churn(tmp_path):
    """A served quick churn run, stepped under test control: the
    capsule, its server, and its publisher."""
    tracer = Tracer.with_instruments()
    previous = set_default_tracer(tracer)
    server = None
    try:
        live = _live_churn(tmp_path, tracer)
        server = start_server(live, port=0)
        live.start()
        yield live, server, SimpleNamespace(publisher=live.control_plane.status)
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        set_default_tracer(previous)


class TestLiveEndpoints:
    def test_metrics_and_status_track_the_run(self, live_churn):
        live, server, plane = live_churn

        # Before the crash: probes and rolling gauges are live.
        server.step(45.0)
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
        server.step(live.duration_s)
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

        _finish(live)
        on_disk = json.loads(plane.publisher.path.read_text())
        assert on_disk["revision"] == plane.publisher.revision

    def test_crash_reflected_within_k_epochs_of_detection(self, live_churn):
        live, server, plane = live_churn
        # Step epoch-by-epoch past the crash until the detector confirms.
        detected_at = None
        while not live.done:
            server.step(30.0)
            _, _, body = _get(server, "/metrics")
            if "bass_node_failures_detected_total 1" in body:
                detected_at = live.engine.now
                break
        assert detected_at is not None
        # Within k=2 further epochs the published document must show it.
        server.step(2 * 30.0)
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


def _serve_churn(tmp_path, name):
    """``bass-repro serve churn`` with checkpoints, a shard stream and a
    status file under ``tmp_path/name``, as a live process."""
    run_dir = tmp_path / name
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "churn",
         "--quick", "--port", "0", "--pace", "25", "--no-linger",
         "--checkpoint-dir", str(run_dir / "ckpt"),
         "--stream-dir", str(run_dir / "shards"),
         "--status-path", str(run_dir / "status.json")],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _decisions(shards):
    """The served run's decision stream: what happened, when, to whom.
    Status publishes (a kill adds one) and wall-clock ``*_ms`` fields
    are dropped; ids and causes shift with the extra publish."""
    return [
        (
            event.kind,
            event.time,
            event.app,
            event.epoch,
            {k: v for k, v in event.data.items() if not k.endswith("_ms")},
        )
        for event in read_trace(shards)
        if event.kind != "status.published"
    ]


class TestServeKillResume:
    def test_sigterm_then_same_command_resumes_the_run(self, tmp_path):
        """Kill a served churn run mid-run, re-run the same command: it
        resumes from the final snapshot, keeps the status revision
        monotonic, reaches the horizon, and its decisions are an
        uninterrupted served run's."""
        process = _serve_churn(tmp_path, "killed")
        try:
            banner = process.stdout.readline()
            match = re.search(r"serving churn on (http://\S+) ", banner)
            assert match, banner
            deadline = time.monotonic() + 120.0
            while True:
                with urlopen(match.group(1) + "/v1/epoch", timeout=10) as r:
                    epoch = json.loads(r.read())
                assert not epoch["done"], "horizon reached before the kill"
                if epoch["epoch"] >= 2:
                    break
                assert time.monotonic() < deadline, "epoch 2 never reached"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            first = process.stdout.read()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        assert "interrupted at t=" in first, first
        assert "bass-repro serve churn --checkpoint-dir" in first
        status_path = tmp_path / "killed" / "status.json"
        revision_at_kill = json.loads(status_path.read_text())["revision"]

        # The resume and an uninterrupted reference, side by side.
        processes = {
            name: _serve_churn(tmp_path, name)
            for name in ("killed", "reference")
        }
        outputs = {}
        try:
            for name, process in processes.items():
                outputs[name], _ = process.communicate(timeout=300)
                assert process.returncode == 0, outputs[name]
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                    process.communicate()
        assert "resuming churn" in outputs["killed"]
        assert "run complete at t=" in outputs["killed"]
        final = json.loads(status_path.read_text())
        assert final["revision"] > revision_at_kill
        horizon = EXPERIMENTS["churn"].capsule_for(quick=True).duration_s
        assert final["sim_time_s"] == horizon
        resumed = _decisions(tmp_path / "killed" / "shards")
        assert resumed and resumed == _decisions(
            tmp_path / "reference" / "shards"
        )


class TestSloBreachPipeline:
    def test_probe_spike_breaches_and_report_renders_cause(self, tmp_path):
        tracer = Tracer.with_instruments()
        previous = set_default_tracer(tracer)
        try:
            live = _live_churn(tmp_path, tracer)
            publisher = live.control_plane.status
            publisher.watchdog = SloWatchdog(
                # An absurdly low ceiling: the first epoch's ordinary
                # probe activity is the "spike" that must trip it.
                (
                    SloRule(
                        "probe-rate-ceiling",
                        "probe_rate",
                        max_value=1e-6,
                        description="test ceiling",
                    ),
                ),
                publisher.windows,
                tracer,
            )
            live.start()
            live.run_until(65.0)  # two epochs: breach evaluated at each end
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
            _finish(live)
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
