"""Span recording from outside the program: wrap public entry points in place.

``TARGETS`` is a data table of ``(span name, module, attribute path)``.
``Recorder.install`` resolves each row with ``getattr`` and replaces the
attribute with a timing wrapper; a row that no longer resolves is
counted in ``missing`` (reported as ``bench.spans_missing_n``), never an
error, so a refactor of ``src/`` degrades the ledger instead of
breaking it.  A span is ``(name, start, end, parent)``; spans are kept
in memory and reduced to per-name self times (duration minus children)
when the run ends.  Only the traced pass installs any of this.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Prefix of the dynamic spans around engine callbacks (one name per site).
SITE = "site:"

#: (span name, module, dotted attribute).  Several rows may share a name.
TARGETS = (
    ("sim.engine.dispatch", "repro.sim.engine", "Engine.run_until"),
    ("mesh.routing.route", "repro.mesh.routing", "Router.traceroute"),
    ("mesh.topology.graph", "repro.mesh.topology", "MeshTopology.graph"),
    ("mesh.topology.build", "bench.scenarios", "city_mesh"),
    ("mesh.topology.build", "bench.scenarios", "citylab_subset"),
    ("mesh.topology.build", "bench.scenarios", "regional_mesh"),
    ("mesh.tracegen.build", "bench.scenarios", "coarse_trace"),
    ("mesh.tracegen.build", "repro.mesh.topology", "citylab_link_trace"),
    ("net.netem.tick", "repro.net.netem", "NetworkEmulator.tick"),
    ("net.netem.recompute", "repro.net.netem", "NetworkEmulator.recompute"),
    ("net.netem.add_flow", "repro.net.netem", "NetworkEmulator.add_flow"),
    ("net.netem.mutate", "repro.net.netem", "NetworkEmulator.remove_flow"),
    ("net.netem.mutate", "repro.net.netem", "NetworkEmulator.set_demand"),
    ("net.netem.mutate", "repro.net.netem", "NetworkEmulator.reroute_flow"),
    ("net.netem.mutate", "repro.net.netem", "NetworkEmulator.on_topology_change"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.capacity"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.capacities_now"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.available_bandwidth"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.path_available_bandwidth"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.path_capacity"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.path_delay_s"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.queue_delay_s"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.link_allocated"),
    ("net.netem.query", "repro.net.netem", "NetworkEmulator.link_utilization"),
    ("net.fairness.incremental", "repro.net.fairness", "IncrementalMaxMin.solve"),
    ("net.fairness.whatif", "repro.net.netem", "max_min_allocation"),
    ("net.fairness.whatif", "repro.core.migration", "max_min_allocation"),
    ("net.queues.update", "repro.net.queues", "QueueArrays.update_all"),
    ("net.flows.rebuild", "repro.net.flows", "FlowArrays.__init__"),
    ("net.flows.offered", "repro.net.flows", "FlowArrays.offered_mbps"),
    ("net.flows.offered", "repro.net.flows", "FlowArrays.accumulate_offered_by_tag"),
    ("apps.social.sample", "repro.apps.social", "SocialNetworkApp.sample_latencies_s"),
    ("apps.update_demands", "repro.apps.social", "SocialNetworkApp.update_demands"),
    ("core.netmonitor.full_probe", "repro.core.netmonitor", "NetMonitor.full_probe"),
    ("core.netmonitor.headroom_probe", "repro.core.netmonitor", "NetMonitor.headroom_probe"),
    ("core.controller.observe", "repro.core.controller", "BandwidthController.observe"),
    ("core.controller.plan", "repro.core.controller", "BandwidthController.plan"),
    ("core.controller.act", "repro.core.controller", "BandwidthController.act"),
    ("core.controlplane.epoch", "repro.core.controlplane", "ControlPlane.run_epoch"),
    ("core.controlplane.arbiter_resolve", "repro.core.controlplane", "FleetArbiter.resolve"),
    ("core.migration.select_target", "repro.core.migration", "MigrationPlanner.select_target"),
    ("core.binding.sync_flows", "repro.core.binding", "DeploymentBinding.sync_flows"),
    ("core.binding.edge_transfer", "repro.core.binding", "DeploymentBinding.edge_transfer_time_s"),
    ("core.placement.schedule", "repro.core.placement", "PlacementEngine.place"),
    ("cluster.orchestrator.deploy", "repro.cluster.orchestrator", "Orchestrator.deploy"),
    ("cluster.orchestrator.migrate", "repro.cluster.orchestrator", "Orchestrator.migrate"),
    ("faults.detector.beat", "repro.faults.detector", "FailureDetector.beat"),
    ("faults.recovery.recover", "repro.faults.recovery", "RecoveryCoordinator.recover_from"),
    ("obs.trace.emit", "repro.obs.trace", "Tracer.emit"),
    ("obs.trace.read", "bench.workloads", "read_trace"),
    ("obs.stream.append", "repro.obs.stream", "StreamingSink.append"),
    ("obs.instruments.on_event", "repro.obs.instruments", "StandardInstruments.on_event"),
    ("obs.exposition.render", "bench.workloads", "render_openmetrics"),
    ("obs.report.render", "bench.workloads", "render_report"),
    ("runner.sweep.run", "bench.workloads", "run_sweep"),
    ("snap.clone", "bench.protocol", "clone_state"),
    ("bench.calibration", "bench.clock", "spin"),
)

#: The engine profiler's per-callback hook: spans named by callback site,
#: whose self time is program time that no layer span above covers.
SITE_TARGET = ("repro.sim.engine", "EngineProfiler.run")


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` of a dotted attribute."""
    owner = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Recorder:
    """In-memory span log plus the in-place wrappers that feed it."""

    def __init__(self, targets=TARGETS, site_target=SITE_TARGET) -> None:
        self.targets = targets
        self.site_target = site_target
        #: ``(name, start, end, parent index or -1)`` in start order.
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name_of, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_of(args), start, end, parent)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """An explicit span around benchmark code (the per-phase roots)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def reset(self) -> None:
        """Forget recorded spans (wrappers keep feeding the same list)."""
        self.spans.clear()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in self.targets:
            self._patch(module_name, path, lambda args, name=name: name)
        module_name, path = self.site_target
        try:
            site_of = _resolve(module_name, path.rsplit(".", 1)[0] + ".site_of")[2]
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}:{path}")
            return
        # args = (profiler, callback): name the span after the callback's site.
        self._patch(module_name, path, lambda args: SITE + site_of(args[1]))

    def _patch(self, module_name: str, path: str, name_of) -> None:
        try:
            owner, leaf, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}:{path}")
            return
        setattr(owner, leaf, self._timed(name_of, original))
        self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self, root: int = -1) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, span count)}`` over spans under ``root``.

        Self time is a span's duration minus the part its child spans
        cover, so the values sum to the root spans' total duration.
        """
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        inside = [False] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            inside[index] = index == root or root < 0 or (parent >= 0 and inside[parent])
            if not inside[index]:
                continue
            seconds[name] += end - start
            counts[name] += 1
            if parent >= 0 and inside[parent]:
                seconds[self.spans[parent][0]] -= end - start
        return {name: (seconds[name], counts[name]) for name in seconds}
