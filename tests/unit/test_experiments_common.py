"""Unit tests for the experiment harness glue."""

import pytest

from repro.apps.camera import CameraPipelineApp
from repro.config import BassConfig
from repro.errors import ConfigError
from repro.core.registry import scheduler_names
from repro.experiments.common import (
    build_env,
    deploy_app,
    run_timeline,
    schedule_with,
    set_node_egress_limit,
)
from repro.mesh.topology import full_mesh_topology


class TestBuildEnv:
    def test_default_is_citylab(self):
        env = build_env(seed=1)
        assert set(env.topology.worker_names) == {
            "node1", "node2", "node3", "node4",
        }
        assert env.netem.engine is env.engine
        assert env.orchestrator.engine is env.engine

    def test_custom_topology(self):
        topology = full_mesh_topology(2)
        env = build_env(topology, seed=1)
        assert env.topology is topology

    def test_seed_controls_traces(self):
        a = build_env(seed=1).topology.capacity("node2", "node3", 100.0)
        b = build_env(seed=1).topology.capacity("node2", "node3", 100.0)
        c = build_env(seed=2).topology.capacity("node2", "node3", 100.0)
        assert a == b
        assert a != c

    def test_restart_seconds_plumbed(self):
        env = build_env(seed=1, restart_seconds=99.0)
        assert env.orchestrator.restart_seconds == 99.0


class TestScheduleWith:
    @pytest.mark.parametrize("name", scheduler_names())
    def test_all_names_work(self, name):
        env = build_env(seed=2, with_traces=False)
        dag = CameraPipelineApp().build_dag()
        assignments = schedule_with(name, dag, env)
        assert set(assignments) == set(dag.component_names)

    def test_unknown_name_raises(self):
        env = build_env(seed=2)
        with pytest.raises(ConfigError):
            schedule_with("chaos", CameraPipelineApp().build_dag(), env)


class TestDeployApp:
    def test_handle_wires_everything(self):
        env = build_env(seed=3, with_traces=False)
        handle = deploy_app(env, CameraPipelineApp(), "bass-bfs")
        assert handle.controller is not None
        assert handle.monitor.netem is env.netem
        assert handle.binding.deployment is handle.deployment
        assert len(handle.assignments) == 5

    def test_start_controller_false(self):
        env = build_env(seed=3, with_traces=False)
        handle = deploy_app(
            env, CameraPipelineApp(), "bass-bfs", start_controller=False
        )
        run_timeline(env, 65.0)
        assert handle.controller.iterations == []

    def test_force_assignments_commit_resources(self):
        env = build_env(seed=3, with_traces=False)
        deploy_app(
            env,
            CameraPipelineApp(),
            "bass-bfs",
            start_controller=False,
            force_assignments={
                "camera-stream": "node1",
                "frame-sampler": "node1",
                "object-detector": "node3",
                "image-listener": "node3",
                "label-listener": "node3",
            },
        )
        assert env.cluster.node("node1").allocated.cpu == pytest.approx(5.0)
        assert env.cluster.node("node3").allocated.cpu == pytest.approx(9.5)

    def test_config_validated(self):
        env = build_env(seed=3, with_traces=False)
        with pytest.raises(ConfigError):
            deploy_app(
                env,
                CameraPipelineApp(),
                "bass-bfs",
                config=BassConfig(heuristic="nope"),
            )


class TestRunTimeline:
    def test_on_tick_called_every_second(self):
        env = build_env(seed=4, with_traces=False)
        ticks = []
        run_timeline(env, 5.0, on_tick=lambda t: ticks.append(t))
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_events_fire_at_their_times(self):
        env = build_env(seed=4, with_traces=False)
        fired = []
        run_timeline(
            env,
            10.0,
            events=[(3.0, lambda: fired.append(env.engine.now))],
        )
        assert fired == [3.0]

    def test_netem_tick_precedes_observer_at_same_instant(self):
        """The emulator's fluid tick is armed first, so observers read
        post-update state."""
        topology = full_mesh_topology(2, capacity_mbps=10.0)
        env = build_env(topology, seed=4)
        env.netem.add_flow("f", "node1", "node2", 20.0)
        delays = []
        run_timeline(
            env,
            3.0,
            on_tick=lambda t: delays.append(
                env.netem.queue_delay_s("node1", "node2")
            ),
        )
        # Overload from t=0: by the first observation a backlog exists.
        assert delays[0] > 0.0


class TestEgressLimit:
    def test_limits_all_outgoing_directions(self):
        env = build_env(seed=5, with_traces=False)
        set_node_egress_limit(env, "node3", 2.0)
        for peer in env.topology.neighbors("node3"):
            assert env.topology.capacity("node3", peer, 0.0) == 2.0
            assert env.topology.capacity(peer, "node3", 0.0) > 2.0

    def test_none_lifts_the_limit(self):
        env = build_env(seed=5, with_traces=False)
        set_node_egress_limit(env, "node3", 2.0)
        set_node_egress_limit(env, "node3", None)
        for peer in env.topology.neighbors("node3"):
            assert env.topology.capacity("node3", peer, 0.0) > 2.0
