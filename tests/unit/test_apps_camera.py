"""Unit tests for the camera-pipeline model."""

import dataclasses

import numpy as np
import pytest

from repro.apps.camera import (
    CAMERA_STREAM,
    FRAME_SAMPLER,
    IMAGE_LISTENER,
    LABEL_LISTENER,
    OBJECT_DETECTOR,
    CameraPipelineApp,
    CameraProfile,
)
from repro.cluster.deployment import Deployment
from repro.core.binding import DeploymentBinding
from repro.errors import ConfigError
from repro.mesh.topology import full_mesh_topology
from repro.net.netem import NetworkEmulator


def frame_latency_s(app, binding):
    """One frame's end-to-end latency, without jitter."""
    return app.sample_latencies_s(binding, 1)[0]


def deployed(assignment=None, capacity=100.0):
    app = CameraPipelineApp()
    dag = app.build_dag()
    deployment = Deployment(app.name)
    assignment = assignment or {}
    for component in dag.components:
        deployment.bind(component.name, assignment.get(component.name, "node1"))
    netem = NetworkEmulator(full_mesh_topology(3, capacity_mbps=capacity))
    binding = DeploymentBinding(dag, deployment, netem)
    binding.sync_flows()
    return app, binding


class TestDagShape:
    def test_five_components(self):
        dag = CameraPipelineApp().build_dag()
        assert len(dag) == 5

    def test_pipeline_edges(self):
        dag = CameraPipelineApp().build_dag()
        assert dag.weight(CAMERA_STREAM, FRAME_SAMPLER) == 10.0
        assert dag.weight(FRAME_SAMPLER, OBJECT_DETECTOR) == 6.0
        assert IMAGE_LISTENER in dag.dependencies(OBJECT_DETECTOR)
        assert LABEL_LISTENER in dag.dependencies(OBJECT_DETECTOR)

    def test_detector_is_cpu_heavy(self):
        dag = CameraPipelineApp().build_dag()
        detector = dag.component(OBJECT_DETECTOR)
        others = [c for c in dag.components if c.name != OBJECT_DETECTOR]
        assert detector.cpu > max(c.cpu for c in others)

    def test_custom_resources(self):
        dag = CameraPipelineApp(sampler_cpu=2.0, detector_cpu=3.0).build_dag()
        assert dag.component(FRAME_SAMPLER).cpu == 2.0
        assert dag.component(OBJECT_DETECTOR).cpu == 3.0


class TestLatency:
    def test_colocated_latency_is_processing_only(self):
        app, binding = deployed()
        profile = app.profile
        expected = (
            profile.encode_ms
            + profile.sampler_ms
            + profile.detector_ms
            + profile.listener_ms
        ) / 1000.0
        assert frame_latency_s(app, binding) == pytest.approx(expected)

    def test_inter_node_hops_add_latency(self):
        base_app, base = deployed()
        app, spread = deployed(
            {CAMERA_STREAM: "node1", FRAME_SAMPLER: "node2",
             OBJECT_DETECTOR: "node3"}
        )
        assert frame_latency_s(app, spread) > frame_latency_s(base_app, base)

    def test_slow_link_increases_latency_more(self):
        layout = {CAMERA_STREAM: "node1", FRAME_SAMPLER: "node2"}
        app_fast, fast = deployed(layout, capacity=100.0)
        app_slow, slow = deployed(layout, capacity=5.0)
        assert frame_latency_s(app_slow, slow) > frame_latency_s(app_fast, fast)

    def test_restart_stall_included(self):
        app, binding = deployed()
        binding.deployment.rebind(
            OBJECT_DETECTOR, "node2", time=0.0, restart_seconds=15.0
        )
        binding.sync_flows()
        latency = frame_latency_s(app, binding)
        assert latency >= 15.0

    def test_restarting_middle_stage_is_charged_twice(self):
        """Pins a known deviation; does not endorse it.

        The frame chain is walked edge by edge and each edge charges a
        restarting endpoint, so a *middle* stage (``dst`` of edge k and
        ``src`` of edge k+1) stalls a frame twice, although the
        docstring says the frame "stalls until that stage is back" and
        the social model dedups with its ``stalled`` set.  Fixing it
        moves camera numbers sampled inside a restart window (Table 2
        runs with migrations on), so it belongs to the fidelity item —
        see deviation note 6 in EXPERIMENTS.md.
        """
        layout = {OBJECT_DETECTOR: "node2"}
        steady_app, steady = deployed(layout)
        app, binding = deployed()
        binding.deployment.rebind(
            OBJECT_DETECTOR, "node2", time=0.0, restart_seconds=10.0
        )
        binding.sync_flows()
        extra = frame_latency_s(app, binding) - frame_latency_s(steady_app, steady)
        # (Transfer terms shift a little: the restart also silences the
        # stage's flows, so its payloads ride the path's spare rate.)
        assert extra == pytest.approx(2 * 10.0, abs=0.5)

        # An end stage sits on one edge only: one stall.
        steady_app, steady = deployed({CAMERA_STREAM: "node2"})
        app, binding = deployed()
        binding.deployment.rebind(
            CAMERA_STREAM, "node2", time=0.0, restart_seconds=10.0
        )
        binding.sync_flows()
        extra = frame_latency_s(app, binding) - frame_latency_s(steady_app, steady)
        assert extra == pytest.approx(10.0, abs=0.5)

    def test_jitter_varies_samples(self):
        app, binding = deployed()
        rng = np.random.default_rng(0)
        samples = app.sample_latencies_s(binding, 20, rng)
        assert len(set(samples)) > 1

    def test_no_rng_is_deterministic(self):
        app, binding = deployed()
        assert frame_latency_s(app, binding) == frame_latency_s(app, binding)

    def test_label_listener_not_on_critical_path(self):
        # Moving only the label listener off-node must not add transfer
        # latency (it is not on the measured chain).
        app_a, a = deployed()
        app_b, b = deployed({LABEL_LISTENER: "node2"})
        assert frame_latency_s(app_b, b) == pytest.approx(
            frame_latency_s(app_a, a)
        )


class TestProfileValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize(
        "field", [spec.name for spec in dataclasses.fields(CameraProfile)]
    )
    def test_non_finite_or_negative_fields_are_refused(self, field, value):
        """Every field is a rate, payload, time or relative std: a NaN,
        an infinity or a negative value would flow into the DAG or the
        latency samples unchecked."""
        with pytest.raises(ConfigError):
            CameraProfile(**{field: value})

    def test_zero_and_default_profiles_are_accepted(self):
        CameraProfile()
        CameraProfile(jitter_rel_std=0.0, detector_to_label_mbps=0.0)
