"""Unit tests for the social-network model."""

import pickle

import numpy as np
import pytest

from repro.apps.social import (
    DEFAULT_MIX,
    REQUEST_CHAINS,
    SERVICES,
    SocialNetworkApp,
)
from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding
from repro.errors import ConfigError
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator


def deployed(app=None, assignment=None, capacity=1000.0):
    app = app or SocialNetworkApp(annotate_rps=50.0)
    dag = app.build_dag()
    deployment = Deployment(app.name)
    assignment = assignment or {}
    for component in dag.components:
        deployment.bind(component.name, assignment.get(component.name, "node1"))
    netem = NetworkEmulator(full_mesh_topology(3, capacity_mbps=capacity))
    binding = DeploymentBinding(dag, deployment, netem)
    binding.sync_flows()
    return app, binding


class TestInventory:
    def test_27_services(self):
        assert len(SERVICES) == 27
        assert len(SocialNetworkApp().build_dag()) == 27

    def test_unique_service_names(self):
        names = [name for name, _, _ in SERVICES]
        assert len(set(names)) == 27

    def test_chains_reference_known_services(self):
        names = {name for name, _, _ in SERVICES}
        for chain in REQUEST_CHAINS.values():
            for step in chain:
                assert step.src in names
                assert step.dst in names

    def test_total_cpu_fits_four_small_nodes(self):
        total = SocialNetworkApp().build_dag().total_resources()
        assert total.cpu <= 16.0  # four 4-core d710s (§6.2.2)

    def test_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)


class TestConfigValidation:
    def test_bad_mix_sum_raises(self):
        with pytest.raises(ConfigError):
            SocialNetworkApp(mix={"read_home_timeline": 0.5})

    def test_unknown_request_type_raises(self):
        with pytest.raises(ConfigError):
            SocialNetworkApp(mix={"teleport": 1.0})

    def test_nonpositive_rps_raises(self):
        with pytest.raises(ConfigError):
            SocialNetworkApp(annotate_rps=0)

    def test_mix_is_frozen_after_construction(self):
        """Edge demands, DAG weights and the sampling CDF are derived
        from the mix once; a later edit would desynchronise them."""
        given = {"read_home_timeline": 0.5, "compose_post": 0.5}
        app = SocialNetworkApp(mix=given)
        with pytest.raises(TypeError):
            app.mix["compose_post"] = 1.0
        with pytest.raises(TypeError):
            del app.mix["compose_post"]
        with pytest.raises(AttributeError):
            app.mix = dict(DEFAULT_MIX)
        given["compose_post"] = 1.0  # the caller's dict is not aliased
        assert dict(app.mix) == {"read_home_timeline": 0.5, "compose_post": 0.5}

    def test_app_survives_pickle(self):
        """Checkpoints and the bench's rep clones pickle the app."""
        app = SocialNetworkApp(annotate_rps=30.0)
        clone = pickle.loads(pickle.dumps(app))
        assert dict(clone.mix) == dict(app.mix)
        assert clone.hottest_edges() == app.hottest_edges()


class TestTrafficProfile:
    def test_edge_demand_scales_linearly_with_rps(self):
        app = SocialNetworkApp(annotate_rps=50.0)
        src, dst, _ = app.hottest_edges(1)[0]
        assert app.edge_demand_mbps(src, dst, 100.0) == pytest.approx(
            2 * app.edge_demand_mbps(src, dst, 50.0)
        )

    def test_dag_weights_match_annotate_rps(self):
        app = SocialNetworkApp(annotate_rps=50.0)
        dag = app.build_dag()
        src, dst, per_request = app.hottest_edges(1)[0]
        assert dag.weight(src, dst) == pytest.approx(per_request * 50.0)

    def test_hottest_edge_is_timeline_post_storage(self):
        app = SocialNetworkApp()
        hottest = app.hottest_edges(1)[0]
        assert hottest[:2] == ("home-timeline-service", "post-storage-service")

    def test_update_demands_scales_flows(self):
        app, binding = deployed(
            assignment={"post-storage-service": "node2"}
        )
        app.set_rps(100.0)
        app.update_demands(binding, 0.0)
        flow = binding.netem.flow(
            "socialnet:home-timeline-service->post-storage-service"
        )
        expected = app.edge_demand_mbps(
            "home-timeline-service", "post-storage-service", 100.0
        )
        assert flow.demand_mbps == pytest.approx(expected)

    def test_negative_rps_raises(self):
        with pytest.raises(ConfigError):
            SocialNetworkApp().set_rps(-1)


class TestLatency:
    def test_known_request_types_only(self):
        app, binding = deployed()
        with pytest.raises(ConfigError):
            app.request_latency_s("teleport", binding)

    def test_colocated_latency_is_service_time_sum(self):
        app, binding = deployed()
        app.jitter_rel_std = 0.0
        expected = sum(
            step.service_ms for step in REQUEST_CHAINS["read_home_timeline"]
        ) / 1000.0
        assert app.request_latency_s(
            "read_home_timeline", binding
        ) == pytest.approx(expected)

    def test_compose_post_slowest_type(self):
        app, binding = deployed()
        app.jitter_rel_std = 0.0
        compose = app.request_latency_s("compose_post", binding)
        read = app.request_latency_s("read_home_timeline", binding)
        assert compose > read

    def test_spread_placement_adds_latency(self):
        base_app, base = deployed()
        base_app.jitter_rel_std = 0.0
        spread_assignment = {
            name: f"node{1 + i % 3}"
            for i, (name, _, _) in enumerate(SERVICES)
        }
        app, spread = deployed(assignment=spread_assignment)
        app.jitter_rel_std = 0.0
        assert app.request_latency_s(
            "read_home_timeline", spread
        ) > base_app.request_latency_s("read_home_timeline", base)

    def test_restart_stall_counted_once_per_service(self):
        assignment = {"post-storage-service": "node2"}
        app, binding = deployed(assignment=assignment)
        app.jitter_rel_std = 0.0
        healthy = app.request_latency_s("read_home_timeline", binding)
        binding.deployment.rebind(
            "post-storage-service", "node3", time=0.0, restart_seconds=10.0
        )
        binding.sync_flows()
        stalled = app.request_latency_s("read_home_timeline", binding)
        # read_home_timeline touches post-storage in several steps but
        # the 10 s stall is charged once (transfer terms shift slightly
        # because the restart also silences the edge flows).
        assert 9.0 <= stalled - healthy < 20.0

    def test_sample_latencies_mix(self):
        app, binding = deployed()
        rng = np.random.default_rng(1)
        samples = app.sample_latencies_s(binding, 50, rng)
        assert len(samples) == 50
        assert all(s > 0 for s in samples)
