"""End-to-end integration: schedule → deploy → emulate → migrate."""

import numpy as np
import pytest

from repro.apps.camera import CameraPipelineApp
from repro.apps.social import SocialNetworkApp
from repro.apps.video import Participant, VideoConferenceApp
from repro.config import BassConfig
from repro.experiments.common import (
    build_env,
    deploy_app,
    run_timeline,
    schedule_with,
    set_node_egress_limit,
)
from repro.mesh.topology import citylab_subset, full_mesh_topology


class TestDeployAllApps:
    @pytest.mark.parametrize(
        "scheduler", ["k3s", "bass-bfs", "bass-longest-path"]
    )
    def test_camera_deploys_on_citylab(self, scheduler):
        env = build_env(seed=1, with_traces=False)
        handle = deploy_app(
            env, CameraPipelineApp(), scheduler, start_controller=False
        )
        assert len(handle.deployment) == 5
        assert handle.deployment.nodes_used <= set(env.cluster.node_names)

    @pytest.mark.parametrize(
        "scheduler", ["k3s", "bass-bfs", "bass-longest-path"]
    )
    def test_social_deploys_on_citylab(self, scheduler):
        env = build_env(seed=1, with_traces=False)
        handle = deploy_app(
            env,
            SocialNetworkApp(annotate_rps=50),
            scheduler,
            start_controller=False,
        )
        assert len(handle.deployment) == 27

    def test_video_clients_land_on_their_pins(self):
        env = build_env(seed=1, with_traces=False)
        app = VideoConferenceApp.conference_at_nodes(
            ["node1", "node2", "node3", "node4"], 2
        )
        handle = deploy_app(env, app, "bass-longest-path", start_controller=False)
        for participant in app.participants:
            assert (
                handle.deployment.node_of(participant.pub_component)
                == participant.node
            )

    @pytest.mark.parametrize("seed", (2, 101, 202, 303))
    @pytest.mark.parametrize("scheduler", ("bass-longest-path", "bass-bfs"))
    def test_bass_colocates_more_than_k3s(self, scheduler, seed):
        """The qualitative heart of the paper: bandwidth-aware packing
        leaves less traffic on the wireless links, with either ordering
        heuristic and whatever the seed."""
        def crossing_demand(scheduler):
            env = build_env(seed=seed, with_traces=False)
            handle = deploy_app(
                env,
                SocialNetworkApp(annotate_rps=50),
                scheduler,
                start_controller=False,
            )
            return sum(w for _, _, w in handle.binding.inter_node_edges())

        assert crossing_demand(scheduler) < crossing_demand("k3s")

    def test_force_assignments(self):
        env = build_env(seed=1, with_traces=False)
        handle = deploy_app(
            env,
            CameraPipelineApp(),
            "bass-bfs",
            start_controller=False,
            force_assignments={
                "camera-stream": "node1",
                "frame-sampler": "node2",
                "object-detector": "node3",
                "image-listener": "node4",
                "label-listener": "node4",
            },
        )
        assert handle.deployment.node_of("frame-sampler") == "node2"

    def test_unknown_scheduler_raises(self):
        env = build_env(seed=1)
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            schedule_with("cosmic-ray", CameraPipelineApp().build_dag(), env)


class TestDynamicBehaviour:
    def test_throttle_then_migrate_restores_goodput(self):
        """Full loop: healthy deployment, throttle, detection, migration,
        recovery — the Fig 12 mechanic on a minimal app."""
        topology = full_mesh_topology(3, capacity_mbps=50.0)
        env = build_env(topology, seed=3, restart_seconds=5.0)
        app = VideoConferenceApp(
            [Participant(f"p{i}", "node3", publishes=(i == 0)) for i in range(5)],
            stream_mbps=3.0,
        )
        config = BassConfig().with_migration(cooldown_s=0.0)
        handle = deploy_app(
            env, app, "bass-longest-path", config=config,
            force_assignments={"sfu": "node2"},
        )
        set_node_egress_limit(env, "node2", 2.0)
        run_timeline(env, 120.0)
        assert handle.deployment.migrations
        assert handle.deployment.node_of("sfu") != "node2"
        receiver = app.participants[1]
        assert app.client_bitrate_mbps(receiver, handle.binding) >= 2.9

    def test_no_migration_when_disabled(self):
        topology = full_mesh_topology(3, capacity_mbps=50.0)
        env = build_env(topology, seed=3)
        app = VideoConferenceApp(
            [Participant(f"p{i}", "node3", publishes=(i == 0)) for i in range(5)],
            stream_mbps=3.0,
        )
        handle = deploy_app(
            env,
            app,
            "bass-longest-path",
            config=BassConfig(migrations_enabled=False),
            force_assignments={"sfu": "node2"},
        )
        set_node_egress_limit(env, "node2", 2.0)
        run_timeline(env, 120.0)
        assert handle.deployment.migrations == []

    def test_probe_overhead_stays_small(self):
        env = build_env(seed=4, trace_duration_s=300.0)
        app = SocialNetworkApp(annotate_rps=50.0)
        handle = deploy_app(env, app, "bass-longest-path")
        app.set_rps(50.0)
        app.update_demands(handle.binding, 0.0)
        run_timeline(env, 300.0)
        assert handle.monitor.probe_overhead_fraction() < 0.10
        assert handle.monitor.headroom_probe_count > 0

    def test_migration_respects_capacity_ledger(self):
        """After arbitrary migrations, no node is oversubscribed."""
        env = build_env(seed=5, trace_duration_s=600.0, restart_seconds=4.0)
        app = SocialNetworkApp(annotate_rps=70.0)
        config = BassConfig().with_migration(cooldown_s=0.0)
        handle = deploy_app(env, app, "bass-longest-path", config=config)
        app.set_rps(70.0)
        app.update_demands(handle.binding, 0.0)
        run_timeline(env, 600.0)
        for node in env.cluster.schedulable_nodes():
            assert node.allocated.cpu <= node.capacity.cpu + 1e-6
            assert node.allocated.memory_mb <= node.capacity.memory_mb + 1e-6


class TestDeterminism:
    def test_identical_seeds_identical_outcomes(self):
        def run_once():
            env = build_env(seed=77, trace_duration_s=200.0)
            app = SocialNetworkApp(annotate_rps=60.0)
            config = BassConfig().with_migration(cooldown_s=0.0)
            handle = deploy_app(env, app, "bass-longest-path", config=config)
            app.set_rps(60.0)
            app.update_demands(handle.binding, 0.0)
            rng = env.rng.get("latency")
            samples = []
            run_timeline(
                env,
                200.0,
                on_tick=lambda t: samples.extend(
                    app.sample_latencies_s(handle.binding, 3, rng)
                ),
            )
            return samples, handle.deployment.bindings, [
                (m.time, m.pod_name, m.to_node)
                for m in handle.deployment.migrations
            ]

        first = run_once()
        second = run_once()
        assert first[1] == second[1]
        assert first[2] == second[2]
        assert np.allclose(first[0], second[0])

    def test_different_seeds_differ(self):
        def trace_signature(seed):
            env = build_env(seed=seed, trace_duration_s=100.0)
            return [
                env.topology.capacity("node2", "node3", float(t))
                for t in range(0, 100, 10)
            ]

        assert trace_signature(1) != trace_signature(2)
