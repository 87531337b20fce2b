"""Live status plane: ``/metrics``, ``/v1/status``, ``/v1/epoch`` over
a ticking run.

``bass-repro serve`` turns a batch scenario into a service in the style
of the mesh-controller architecture (SNIPPETS.md snippet 1): a stdlib
:class:`http.server.ThreadingHTTPServer` answers scrapes on a
background thread while the simulation ticks on the main thread, the
two serialized by one lock.  The endpoints:

=============  ===========================================================
``/metrics``   Prometheus/OpenMetrics text: every instrument plus the
               rolling-window and tick-profile gauges
               (:mod:`repro.obs.exposition`).
``/v1/status`` The status publisher's latest ``status.json`` document
               (:mod:`repro.obs.status`), fresh-rendered before the
               first publish.
``/v1/epoch``  Controller epoch, simulation time, status revision.
``/health``    Liveness probe.
=============  ===========================================================

A served run is the :class:`~repro.experiments.common.RunCapsule` of a
servable catalogue row's checkpoint cell
(:mod:`repro.experiments.catalog`) — one of the cells its batch grids
run, so it makes the same decisions a batch run would — plus the
:class:`~repro.obs.status.StatusPublisher` on its control plane, which
owns the rolling windows and the SLO watchdog.  The whole plane lives
inside the capsule, so a snapshot carries it and a restored capsule
serves on where the killed process stopped.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from .exposition import CONTENT_TYPE, render_openmetrics, tick_profile_samples
from .status import StatusPublisher

#: Simulated seconds the stepping loop advances per iteration.
STEP_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "bass-repro-serve"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes stay off the experiment's stdout

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        server: LiveStatusServer = self.server  # type: ignore[assignment]
        env = server.capsule.env
        publisher = env.control_plane.status
        path = self.path.split("?", 1)[0]
        with server.lock:
            now = env.engine.now
            if path == "/metrics":
                # Tick-phase/solver numbers ride along as transient
                # gauges read off the emulator at scrape time — they
                # never touch pickled registry state, so checkpoint
                # payloads stay independent of scrape timing.
                body = render_openmetrics(
                    env.tracer.instruments.registry,
                    publisher.windows,
                    now=now,
                    extra_samples=tick_profile_samples(
                        env.netem.tick_phase_stats(),
                        env.netem.solver_stats(),
                    ),
                ).encode()
                content_type = CONTENT_TYPE
            elif path == "/v1/status":
                document = publisher.last_snapshot
                if document is None:
                    document = publisher.snapshot(
                        now, env.control_plane.epoch_count
                    )
                body = (
                    json.dumps(document, indent=2, sort_keys=True) + "\n"
                ).encode()
                content_type = "application/json"
            elif path == "/v1/epoch":
                body = (
                    json.dumps(
                        {
                            "epoch": env.control_plane.epoch_count,
                            "sim_time_s": now,
                            "revision": publisher.revision,
                            "done": server.capsule.done,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                ).encode()
                content_type = "application/json"
            elif path == "/health":
                body = b'{"ok": true}\n'
                content_type = "application/json"
            else:
                self.send_error(404, "unknown endpoint")
                return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class LiveStatusServer(ThreadingHTTPServer):
    """HTTP server over one served capsule (with a status publisher
    attached to its control plane and an instrumented tracer).

    The HTTP threads and the stepping thread share :attr:`lock`: every
    endpoint renders under it, and :meth:`step` advances the clock
    under it, so scrapes always observe a consistent simulation state.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], capsule) -> None:
        super().__init__(address, _Handler)
        self.capsule = capsule
        self.lock = threading.Lock()

    def step(self, sim_seconds: float) -> float:
        """Advance the clock by up to ``sim_seconds``; returns now."""
        with self.lock:
            return self.capsule.run_until(
                self.capsule.engine.now + sim_seconds
            )


def start_server(
    capsule, *, host: str = "127.0.0.1", port: int = 0
) -> LiveStatusServer:
    """Serve the capsule's endpoints on a daemon thread (port 0:
    ephemeral)."""
    server = LiveStatusServer((host, port), capsule)
    threading.Thread(
        target=server.serve_forever, name="bass-status-http", daemon=True
    ).start()
    return server


def serve_run(
    capsule,
    *,
    host: str,
    port: int,
    pace: float,
    status_path: str | Path,
    status_every: int,
    linger: bool,
    policy,
) -> int:
    """The ``bass-repro serve`` entry point: tick ``capsule`` to its
    horizon while serving the status plane; afterwards keep serving
    (``linger``) until SIGINT/SIGTERM, then shut down cleanly.

    ``capsule`` is fresh — built under an instrumented tracer — and
    gets a :class:`StatusPublisher` publishing every ``status_every``
    epochs, or restored from a served run's snapshot and keeps its own
    (cadence, revision, windows, watchdog), re-pointed at
    ``status_path``.  ``pace`` is simulated seconds per wall second
    (0: unpaced).  With a checkpoint ``policy`` (a
    :class:`~repro.snap.policy.CheckpointPolicy` bound to the capsule),
    a signal before the horizon publishes status, writes a final
    snapshot and seals the trace shard, so re-running the same command
    resumes the killed run with the same revision counter, trace shard
    and decisions as if never interrupted.
    """
    cp = capsule.control_plane
    publisher = cp.status
    if publisher is None:
        publisher = StatusPublisher(
            cp,
            status_path,
            every_k_epochs=status_every,
            tracer=capsule.env.tracer,
        )
        cp.attach_status(publisher)
    else:
        publisher.path = Path(status_path)

    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ANN001 - signal signature
        stop.set()

    original_handlers = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server: Optional[LiveStatusServer] = None
    try:
        server = start_server(capsule, host=host, port=port)
        bound_host, bound_port = server.server_address[:2]
        print(
            f"serving {capsule.scenario} on http://{bound_host}:{bound_port} "
            f"(/metrics /v1/status /v1/epoch), horizon "
            f"{capsule.duration_s:.0f}s sim"
        )
        capsule.start()
        while not stop.is_set() and not capsule.done:
            server.step(STEP_S)
            if pace > 0:
                stop.wait(STEP_S / pace)
        interrupted = not capsule.done
        # Publish, then snapshot, then seal: the snapshot captures the
        # bumped revision and the still-open trace shard (a restore
        # resumes appending to it; the seal makes the on-disk trace
        # complete even if nobody ever resumes).
        with server.lock:
            now = capsule.engine.now
            publisher.publish(now, cp.epoch_count)
            final = (
                policy.write(label=f"final-t{int(now):06d}")
                if interrupted and policy is not None
                else None
            )
            capsule.env.tracer.close()
        if final is not None:
            print(
                f"interrupted at t={now:.0f}s; checkpoint -> {final} "
                f"(resume with: bass-repro serve {capsule.scenario} "
                f"--checkpoint-dir {policy.directory})"
            )
        else:
            print(
                f"run complete at t={now:.0f}s ({cp.epoch_count} epochs, "
                f"status revision {publisher.revision})"
            )
        if linger and not interrupted:
            print("serving until SIGINT/SIGTERM ...")
            while not stop.is_set():
                stop.wait(0.2)
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        for sig, handler in original_handlers.items():
            signal.signal(sig, handler)
    return 0
