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

Everything here is opt-in plumbing around unmodified experiments: a
served run is the :class:`~repro.experiments.common.RunCapsule` of a
servable catalogue row's checkpoint cell
(:mod:`repro.experiments.catalog`) — one of the cells its batch grids
run — so it makes the same decisions a batch run would.
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional, Sequence

from .exposition import (
    CONTENT_TYPE,
    RollingWindows,
    render_openmetrics,
    tick_profile_samples,
)
from .instruments import InstrumentRegistry
from .slo import DEFAULT_SLO_RULES, SloRule, SloWatchdog
from .status import StatusPublisher
from .stream import StreamingSink
from .trace import Tracer, set_default_tracer


@dataclass
class StatusPlane:
    """The wired observability bundle behind one served run."""

    tracer: Tracer
    registry: InstrumentRegistry
    windows: RollingWindows
    watchdog: SloWatchdog
    publisher: StatusPublisher


def attach_status_plane(
    control_plane,
    tracer: Tracer,
    *,
    status_path: str | Path = "status.json",
    every_k_epochs: int = 5,
    window_s: float = 300.0,
    rules: Sequence[SloRule] = DEFAULT_SLO_RULES,
) -> StatusPlane:
    """Wire rolling windows, SLO watchdogs, and the status publisher
    onto a control plane (the opt-in that turns batch into live)."""
    windows = RollingWindows(window_s)
    tracer.add_observer(windows)
    watchdog = SloWatchdog(tuple(rules), windows, tracer)
    publisher = StatusPublisher(
        control_plane,
        status_path,
        every_k_epochs=every_k_epochs,
        windows=windows,
        watchdog=watchdog,
        tracer=tracer,
    )
    control_plane.attach_status(publisher)
    registry = (
        tracer.instruments.registry
        if tracer.instruments is not None
        else InstrumentRegistry()
    )
    return StatusPlane(
        tracer=tracer,
        registry=registry,
        windows=windows,
        watchdog=watchdog,
        publisher=publisher,
    )


class LiveRun:
    """One scenario ticking under the status plane.

    The HTTP thread and the stepping thread share :attr:`lock`: every
    endpoint renders under it, and :meth:`step` advances the clock
    under it, so scrapes always observe a consistent simulation state.

    The run itself is a :class:`~repro.experiments.common.RunCapsule` — the
    picklable root object the checkpoint subsystem serializes — freshly
    built or restored mid-run, so a served run can be snapshotted on
    SIGTERM and resumed by a fresh ``bass-repro serve --checkpoint-dir``
    process.
    """

    def __init__(self, capsule, plane: StatusPlane) -> None:
        self.capsule = capsule
        self.plane = plane
        self.lock = threading.Lock()

    @property
    def env(self):
        return self.capsule.env

    @property
    def engine(self):
        return self.capsule.env.engine

    @property
    def control_plane(self):
        return self.capsule.env.control_plane

    @property
    def done(self) -> bool:
        return self.capsule.done

    def start(self) -> None:
        """Arm the emulator, tick observer, and timeline events
        (:meth:`RunCapsule.start <repro.experiments.common.RunCapsule.start>`).
        A no-op on a restored capsule (everything is already armed)."""
        self.capsule.start()

    def step(self, sim_seconds: float) -> float:
        """Advance the clock by up to ``sim_seconds``; returns now."""
        with self.lock:
            return self.capsule.run_until(self.engine.now + sim_seconds)

    def finish(self, *, policy=None, checkpoint: bool = False):
        """Publish one final status snapshot, optionally write a final
        checkpoint, and seal the trace — in that order, so the snapshot
        captures the bumped status revision and the still-open trace
        shard (a restore resumes appending to it; the seal that follows
        makes the on-disk trace complete even if nobody ever resumes).

        Returns the final checkpoint's path, or None."""
        with self.lock:
            self.plane.publisher.publish(
                self.engine.now, self.control_plane.epoch_count
            )
            path = None
            if checkpoint and policy is not None:
                path = policy.write(
                    label=f"final-t{int(self.engine.now):06d}"
                )
            self.plane.tracer.close()
            return path


def resume_status_plane(
    capsule, *, status_path: str | Path
) -> StatusPlane:
    """Rebuild the :class:`StatusPlane` around a restored capsule.

    A serve-written checkpoint pickles the whole plane — publisher
    (with its monotonic revision), rolling windows, watchdog, tracer —
    inside the capsule's object graph; this just re-collects the
    references and re-points the publisher at this process's status
    path.  The revision keeps counting from where the killed process
    left off.
    """
    publisher = capsule.control_plane.status
    if publisher is None:
        raise ValueError(
            "checkpoint has no status plane attached — it was written "
            "by 'bass-repro run', not 'bass-repro serve'; restore it "
            "with 'bass-repro run --restore-from' instead"
        )
    publisher.path = Path(status_path)
    tracer = capsule.env.tracer
    registry = (
        tracer.instruments.registry
        if getattr(tracer, "instruments", None) is not None
        else InstrumentRegistry()
    )
    return StatusPlane(
        tracer=tracer,
        registry=registry,
        windows=publisher.windows,
        watchdog=publisher.watchdog,
        publisher=publisher,
    )


class _Handler(BaseHTTPRequestHandler):
    server_version = "bass-repro-serve"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes stay off the experiment's stdout

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        live: LiveRun = self.server.live  # type: ignore[attr-defined]
        plane = live.plane
        path = self.path.split("?", 1)[0]
        with live.lock:
            now = live.engine.now
            if path == "/metrics":
                # Tick-phase/solver numbers ride along as transient
                # gauges read off the emulator at scrape time — they
                # never touch pickled registry state, so checkpoint
                # payloads stay independent of scrape timing.
                netem = getattr(live.env, "netem", None)
                extra = (
                    tick_profile_samples(
                        netem.tick_phase_stats(), netem.solver_stats()
                    )
                    if netem is not None
                    else None
                )
                body = render_openmetrics(
                    plane.registry,
                    plane.windows,
                    now=now,
                    extra_samples=extra,
                ).encode()
                content_type = CONTENT_TYPE
            elif path == "/v1/status":
                document = plane.publisher.last_snapshot
                if document is None:
                    document = plane.publisher.snapshot(
                        now, live.control_plane.epoch_count
                    )
                body = (
                    json.dumps(document, indent=2, sort_keys=True) + "\n"
                ).encode()
                content_type = "application/json"
            elif path == "/v1/epoch":
                body = (
                    json.dumps(
                        {
                            "epoch": live.control_plane.epoch_count,
                            "sim_time_s": now,
                            "revision": plane.publisher.revision,
                            "done": live.done,
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
    """HTTP server bound to one :class:`LiveRun`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], live: LiveRun) -> None:
        super().__init__(address, _Handler)
        self.live = live
        self.thread: Optional[threading.Thread] = None


def start_server(
    live: LiveRun, *, host: str = "127.0.0.1", port: int = 0
) -> LiveStatusServer:
    """Serve the run's endpoints on a daemon thread (port 0: ephemeral)."""
    server = LiveStatusServer((host, port), live)
    thread = threading.Thread(
        target=server.serve_forever, name="bass-status-http", daemon=True
    )
    thread.start()
    server.thread = thread
    return server


@dataclass
class ServeOptions:
    """Knobs for :func:`serve_run` (mirrors the CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 8791
    quick: bool = False
    duration_s: Optional[float] = None  # None: the scenario default
    pace: float = 0.0  # sim seconds per wall second; 0 = unpaced
    step_s: float = 5.0  # sim seconds per stepping-loop iteration
    status_path: str = "status.json"
    status_every: int = 5  # publish every k controller epochs
    stream_dir: Optional[str] = None  # streaming trace shards
    window_s: float = 300.0
    rules: tuple[SloRule, ...] = field(default=DEFAULT_SLO_RULES)
    linger: bool = True  # keep serving after the run until signalled
    #: Checkpoint directory: periodic snapshots every
    #: ``checkpoint_every`` epochs plus a final one on SIGTERM; if the
    #: directory already holds a checkpoint, the server resumes from it
    #: instead of starting the scenario fresh.
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 5


def serve_run(build: Callable[..., object], options: ServeOptions) -> int:
    """The ``bass-repro serve`` entry point: tick a scenario to its
    horizon while serving the status plane; afterwards keep serving
    until SIGINT/SIGTERM, then shut down cleanly.

    ``build`` builds a servable catalogue row's checkpoint cell with its
    ``serve`` overrides (:mod:`repro.experiments.catalog`): called as
    ``build(quick=...)`` once the run's tracer is the process default,
    it returns the :class:`~repro.experiments.common.RunCapsule` to
    tick.

    With ``checkpoint_dir``, the run writes periodic snapshots and a
    final one on SIGTERM (after publishing status, before sealing the
    trace shard), and a later ``serve --checkpoint-dir`` on the same
    directory resumes the killed run — same status revision counter,
    same trace shard, same decisions as if never interrupted.
    """
    # Imported here, not at module level: repro.snap builds on the
    # experiment harness, which imports repro.obs.
    from ..snap import checkpoint_into, latest_checkpoint, read_snapshot

    resume_from = None
    if options.checkpoint_dir is not None:
        resume_from = latest_checkpoint(options.checkpoint_dir)

    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ANN001 - signal signature
        stop.set()

    original_handlers = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server: Optional[LiveStatusServer] = None
    previous = None
    try:
        if resume_from is not None:
            meta, capsule = read_snapshot(resume_from)
            tracer = capsule.env.tracer
            previous = set_default_tracer(tracer)
            plane = resume_status_plane(
                capsule, status_path=options.status_path
            )
            print(
                f"resuming {capsule.scenario} from {resume_from} at "
                f"t={meta.sim_time_s:.0f}s (epoch "
                f"{capsule.control_plane.epoch_count}, status revision "
                f"{plane.publisher.revision})"
            )
        else:
            sink = (
                StreamingSink(options.stream_dir)
                if options.stream_dir is not None
                else None
            )
            tracer = Tracer.with_instruments(sink=sink)
            previous = set_default_tracer(tracer)
            capsule = build(quick=options.quick)
            if options.duration_s is not None:
                capsule.duration_s = options.duration_s
            plane = attach_status_plane(
                capsule.control_plane,
                tracer,
                status_path=options.status_path,
                every_k_epochs=options.status_every,
                window_s=options.window_s,
                rules=options.rules,
            )
        live = LiveRun(capsule, plane)

        policy = capsule.control_plane.checkpoints
        if options.checkpoint_dir is not None:
            policy = checkpoint_into(
                capsule,
                options.checkpoint_dir,
                every_k_epochs=options.checkpoint_every,
            )

        server = start_server(live, host=options.host, port=options.port)
        host, port = server.server_address[:2]
        print(
            f"serving {capsule.scenario} on http://{host}:{port} "
            f"(/metrics /v1/status /v1/epoch), horizon "
            f"{capsule.duration_s:.0f}s sim"
        )
        live.start()
        while not stop.is_set() and not live.done:
            live.step(options.step_s)
            if options.pace > 0:
                stop.wait(options.step_s / options.pace)
        interrupted = not live.done
        final = live.finish(policy=policy, checkpoint=interrupted)
        if final is not None:
            print(
                f"interrupted at t={live.engine.now:.0f}s; checkpoint "
                f"-> {final} (resume with: bass-repro serve "
                f"--checkpoint-dir {options.checkpoint_dir})"
            )
        else:
            print(
                f"run complete at t={live.engine.now:.0f}s "
                f"({live.control_plane.epoch_count} epochs, "
                f"status revision {plane.publisher.revision})"
            )
        if options.linger and not interrupted:
            print("serving until SIGINT/SIGTERM ...")
            while not stop.is_set():
                stop.wait(0.2)
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if previous is not None:
            set_default_tracer(previous)
        for sig, handler in original_handlers.items():
            signal.signal(sig, handler)
    return 0
