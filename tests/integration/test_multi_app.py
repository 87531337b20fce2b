"""Multiple applications sharing one mesh.

Community meshes host many services at once (§1: messaging, video
sharing, web).  The orchestrator keeps per-app deployments; the network
emulator arbitrates all apps' flows on the same links; each app gets
its own controller.  These tests exercise the interplay.
"""

import pytest

from repro.apps.camera import CameraPipelineApp
from repro.apps.social import SocialNetworkApp
from repro.apps.video import Participant, VideoConferenceApp
from repro.config import BassConfig
from repro.core.controlplane import check_cluster_ledger
from repro.errors import SchedulingError
from repro.experiments.common import (
    build_env,
    deploy_app,
    run_timeline,
    set_node_egress_limit,
)
from repro.mesh.topology import full_mesh_topology


def free_cpu(cluster):
    return sum(node.free.cpu for node in cluster.schedulable_nodes())


class TestCoexistence:
    def test_two_apps_share_the_cluster(self):
        env = build_env(seed=31, with_traces=False)
        camera = deploy_app(
            env, CameraPipelineApp(), "bass-longest-path",
            start_controller=False,
        )
        social = deploy_app(
            env, SocialNetworkApp(annotate_rps=30), "bass-longest-path",
            start_controller=False,
        )
        assert set(env.orchestrator.apps) == {"camera", "socialnet"}
        # The resource ledger is shared: no node oversubscribed.
        check_cluster_ledger(env.cluster)
        assert len(camera.deployment) == 5
        assert len(social.deployment) == 27

    def test_same_app_twice_rejected(self):
        env = build_env(seed=31, with_traces=False)
        deploy_app(env, CameraPipelineApp(), "k3s", start_controller=False)
        with pytest.raises(SchedulingError):
            deploy_app(env, CameraPipelineApp(), "k3s", start_controller=False)

    def test_flows_are_namespaced_per_app(self):
        env = build_env(seed=32, with_traces=False)
        deploy_app(env, CameraPipelineApp(), "k3s", start_controller=False)
        deploy_app(
            env, SocialNetworkApp(annotate_rps=30), "k3s",
            start_controller=False,
        )
        flow_ids = [f.flow_id for f in env.netem.flows if f.tag == "app"]
        assert len(flow_ids) == len(set(flow_ids))
        assert any(fid.startswith("camera:") for fid in flow_ids)
        assert any(fid.startswith("socialnet:") for fid in flow_ids)

    def test_one_apps_traffic_squeezes_the_other(self):
        """Fairness across apps: a bandwidth hog on a shared link cuts
        the other app's allocation."""
        topology = full_mesh_topology(2, capacity_mbps=10.0)
        env = build_env(topology, seed=33)
        video = VideoConferenceApp(
            [
                Participant("pub", "node1"),
                Participant("sub", "node2", publishes=False),
            ],
            stream_mbps=8.0,
        )
        handle = deploy_app(
            env, video, "bass-longest-path",
            config=BassConfig(migrations_enabled=False),
            start_controller=False,
            force_assignments={"sfu": "node1"},
        )
        env.netem.recompute()
        alone = video.client_bitrate_mbps(video.participants[1], handle.binding)
        env.netem.add_flow("hog", "node1", "node2", 10.0, tag="app")
        env.netem.recompute()
        squeezed = video.client_bitrate_mbps(
            video.participants[1], handle.binding
        )
        assert squeezed < alone

    def test_teardown_frees_capacity_for_the_next_app(self):
        env = build_env(seed=34, with_traces=False)
        deploy_app(
            env, SocialNetworkApp(annotate_rps=30), "bass-longest-path",
            start_controller=False,
        )
        free_during = free_cpu(env.cluster)
        env.orchestrator.teardown("socialnet")
        assert free_cpu(env.cluster) > free_during
        # The freed room accommodates a fresh deployment.
        deploy_app(
            env, SocialNetworkApp(annotate_rps=30), "bass-longest-path",
            start_controller=False,
        )

    def test_controllers_migrate_independently(self):
        """Two pair apps on a throttled node: each controller fixes its
        own app without touching the other's deployment."""
        from repro.core.dag import Component, ComponentDAG

        class PairApp:
            def __init__(self, name, pin):
                self.name = name
                self.pin = pin

            def build_dag(self):
                dag = ComponentDAG(self.name)
                dag.add_component(
                    Component("src", cpu=1, memory_mb=64,
                              pinned_node=self.pin)
                )
                dag.add_component(Component("dst", cpu=1, memory_mb=64))
                dag.add_dependency("src", "dst", 8.0)
                return dag

            def update_demands(self, binding, t):
                pass

            def on_deployed(self, binding):
                pass

        topology = full_mesh_topology(3, capacity_mbps=25.0, cpu_cores=8.0)
        env = build_env(topology, seed=35, restart_seconds=2.0)
        config = BassConfig().with_migration(cooldown_s=0.0)
        a = deploy_app(env, PairApp("appa", "node2"), "bass-longest-path",
                       config=config, force_assignments={"dst": "node3"})
        b = deploy_app(env, PairApp("appb", "node2"), "bass-longest-path",
                       config=config, force_assignments={"dst": "node3"})
        set_node_egress_limit(env, "node2", 3.0)
        run_timeline(env, 120.0)
        # Both apps' dst components escape; sources stay pinned.
        assert a.deployment.node_of("src") == "node2"
        assert b.deployment.node_of("src") == "node2"
        assert a.deployment.migrations
        assert b.deployment.migrations
