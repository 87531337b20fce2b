"""Unit tests for the SLO watchdog and the status publisher."""

import json

import pytest

from repro.experiments.common import build_env, deploy_app
from repro.experiments.multi_tenant import StreamPairApp
from repro.obs.exposition import RollingWindows
from repro.obs.slo import DEFAULT_SLO_RULES, SloRule, SloWatchdog
from repro.obs.status import STATUS_VERSION, StatusPublisher
from repro.obs.trace import Tracer


def _env_with_tenant():
    env = build_env(with_traces=False)
    deploy_app(
        env,
        StreamPairApp("tenant00"),
        "bass-longest-path",
        force_assignments={"sink": "node2"},
    )
    return env


def _watchdog(max_value=0.2):
    tracer = Tracer()
    windows = RollingWindows(window_s=10.0, slots=10)
    tracer.add_observer(windows)
    dog = SloWatchdog(
        [SloRule("probe-budget", "probe_rate", max_value=max_value)],
        windows,
        tracer,
    )
    return tracer, windows, dog


class TestSloWatchdog:
    def test_breach_cites_last_contributing_event(self):
        tracer, _, dog = _watchdog()
        last = 0
        for t in (1.0, 1.5, 2.0):
            last = tracer.emit("probe.headroom", t, src="n1", dst="n2")
        assert dog.evaluate(2.0, epoch=3) == 1
        (breach,) = tracer.events_of_kind("slo.breach")
        assert breach.cause == last
        assert breach.epoch == 3
        assert breach.data["rule"] == "probe-budget"
        assert breach.data["observed"] == pytest.approx(0.3)

    def test_edge_triggered_with_rearm_after_clear(self):
        tracer, _, dog = _watchdog()
        for t in (1.0, 1.5, 2.0):
            tracer.emit("probe.headroom", t, src="n1", dst="n2")
        assert dog.evaluate(2.0) == 1
        assert dog.evaluate(2.5) == 0  # still breaching, no re-emit
        assert dog.evaluate(50.0) == 0  # cleared silently
        assert dog.active == {}
        for t in (51.0, 51.5, 52.0):
            tracer.emit("probe.headroom", t, src="n1", dst="n2")
        assert dog.evaluate(52.0) == 1  # re-armed after the clear
        assert dog.breach_count == 2

    def test_nan_metric_never_breaches(self):
        tracer = Tracer()
        windows = RollingWindows(window_s=10.0, slots=10)
        dog = SloWatchdog(
            [SloRule("handoffs", "handoff_latency_p95", max_value=1.0)],
            windows,
            tracer,
        )
        assert dog.evaluate(5.0) == 0  # empty window -> NaN -> no breach

    def test_snapshot_lists_rules_and_active_breaches(self):
        tracer, _, dog = _watchdog()
        for t in (1.0, 1.5, 2.0):
            tracer.emit("probe.headroom", t, src="n1", dst="n2")
        dog.evaluate(2.0)
        snap = dog.snapshot()
        assert snap["rules"][0]["name"] == "probe-budget"
        assert snap["breach_count"] == 1
        (active,) = snap["active_breaches"]
        assert active["metric"] == "probe_rate"
        assert active["since"] == 2.0

    def test_default_rules_cover_the_three_headline_slos(self):
        metrics = {rule.metric for rule in DEFAULT_SLO_RULES}
        assert metrics == {
            "probe_rate", "detection_latency_p95", "handoff_latency_p95",
        }


class TestStatusPublisher:
    def test_rejects_nonpositive_cadence(self, tmp_path):
        env = _env_with_tenant()
        with pytest.raises(ValueError):
            StatusPublisher(
                env.control_plane, tmp_path / "s.json", every_k_epochs=0
            )

    def test_publishes_every_k_epochs(self, tmp_path):
        env = _env_with_tenant()
        path = tmp_path / "status.json"
        publisher = StatusPublisher(
            env.control_plane, path, every_k_epochs=3
        )
        for epoch in range(1, 7):
            publisher.on_epoch(float(epoch), epoch)
        assert publisher.revision == 2  # epochs 3 and 6 published
        assert json.loads(path.read_text())["epoch"] == 6

    def test_document_schema_and_versioning(self, tmp_path):
        env = _env_with_tenant()
        path = tmp_path / "status.json"
        publisher = StatusPublisher(
            env.control_plane, path, every_k_epochs=1
        )
        publisher.on_epoch(30.0, 1)
        document = json.loads(path.read_text())
        assert document["version"] == STATUS_VERSION
        assert document["revision"] == 1
        assert document["sim_time_s"] == 30.0
        (region,) = document["regions"]
        assert region["name"] == "region0"  # one region spans the mesh
        assert region["nodes"] == sorted(env.topology.node_names)
        assert region["health"] == "ok"
        (tenant,) = document["tenants"]
        assert tenant["app"] == "tenant00"
        assert tenant["home_region"] == "region0"
        assert tenant["placements"] == {"sink": "node2", "source": "node1"}
        assert document["arbiter"]["claims"] == 0
        assert document["recovery"] is None

    def test_revision_is_monotonic_and_atomic_on_disk(self, tmp_path):
        env = _env_with_tenant()
        path = tmp_path / "status.json"
        publisher = StatusPublisher(
            env.control_plane, path, every_k_epochs=1
        )
        revisions = []
        for epoch in range(1, 4):
            publisher.on_epoch(float(epoch), epoch)
            revisions.append(json.loads(path.read_text())["revision"])
        assert revisions == [1, 2, 3]
        assert not list(tmp_path.glob("*.tmp"))

    def test_down_node_degrades_health_and_marks_pods(self, tmp_path):
        env = _env_with_tenant()
        env.netem.topology.set_node_up("node2", False)
        publisher = StatusPublisher(
            env.control_plane, tmp_path / "status.json", every_k_epochs=1
        )
        document = publisher.publish(40.0, 1)
        (region,) = document["regions"]
        assert region["health"] == "degraded"
        assert region["down_nodes"] == ["node2"]
        (tenant,) = document["tenants"]
        assert tenant["unavailable"] == ["sink"]

    def test_watchdog_evaluated_every_epoch_not_just_publishes(
        self, tmp_path
    ):
        env = _env_with_tenant()
        tracer, _, dog = _watchdog()
        publisher = StatusPublisher(
            env.control_plane,
            tmp_path / "status.json",
            every_k_epochs=100,  # never publishes in this test
            tracer=tracer,
        )
        publisher.watchdog = dog
        for t in (1.0, 1.5, 2.0):
            tracer.emit("probe.headroom", t, src="n1", dst="n2")
        publisher.on_epoch(2.0, 1)  # 1 % 100 != 0: no file write
        assert len(tracer.events_of_kind("slo.breach")) == 1
        assert not (tmp_path / "status.json").exists()

    def test_publisher_owns_its_windows_and_watchdog(self, tmp_path):
        """A bare publisher on a recording tracer feeds its own rolling
        windows and watches the default SLO rules on them."""
        env = _env_with_tenant()
        tracer = Tracer()
        publisher = StatusPublisher(
            env.control_plane,
            tmp_path / "status.json",
            every_k_epochs=1,
            tracer=tracer,
        )
        tracer.emit("probe.headroom", 1.0, src="n1", dst="n2")
        assert publisher.windows.probe_rate.count(1.0) == 1
        publisher.on_epoch(1.0, 1)
        document = json.loads((tmp_path / "status.json").read_text())
        assert [rule["name"] for rule in document["slo"]["rules"]] == [
            rule.name for rule in DEFAULT_SLO_RULES
        ]
        assert document["slo"]["breach_count"] == 0
        assert document["rolling"]["window_s"] == publisher.windows.window_s
        assert document["rolling"]["probe_rate_per_second"] > 0

    def test_status_published_event_traced(self, tmp_path):
        env = _env_with_tenant()
        tracer = Tracer()
        publisher = StatusPublisher(
            env.control_plane,
            tmp_path / "status.json",
            every_k_epochs=1,
            tracer=tracer,
        )
        publisher.on_epoch(5.0, 1)
        (event,) = tracer.events_of_kind("status.published")
        assert event.data["revision"] == 1


class TestControlPlaneWiring:
    def test_epochs_fire_publisher_through_run(self, tmp_path):
        env = _env_with_tenant()
        cp = env.control_plane
        publisher = StatusPublisher(
            cp, tmp_path / "status.json", every_k_epochs=2
        )
        cp.attach_status(publisher)
        env.netem.start()
        env.engine.run_until(65.0)  # default 30 s cadence -> 2 epochs
        assert cp.epoch_count == 2
        assert publisher.revision == 1
        assert json.loads(
            (tmp_path / "status.json").read_text()
        )["epoch"] == 2

    def test_unattached_plane_only_counts_epochs(self):
        env = _env_with_tenant()
        cp = env.control_plane
        assert cp.status is None
        env.netem.start()
        env.engine.run_until(35.0)
        assert cp.epoch_count == 1
