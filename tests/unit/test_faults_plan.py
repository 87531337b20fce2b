"""Fault plans: ordering, validation, and seeded generation."""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.faults import (
    FaultPlan,
    LinkDown,
    LinkFlap,
    NodeCrash,
    OrchestratorKill,
    Partition,
    ProbeBlackout,
    seeded_churn,
)
from repro.mesh.topology import full_mesh_topology, line_topology
from repro.sim.rng import RngStreams

NAN = float("nan")


class TestOrdering:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [
                LinkDown(at_s=90.0, a="node1", b="node2"),
                NodeCrash(at_s=30.0, node="node3"),
            ]
        )
        assert [e.at_s for e in plan.events] == [30.0, 90.0]

    def test_add_keeps_order(self):
        plan = FaultPlan([NodeCrash(at_s=50.0, node="node2")])
        plan.add(NodeCrash(at_s=10.0, node="node3"))
        assert [e.node for e in plan.events] == ["node3", "node2"]


class TestValidation:
    def topo(self):
        return line_topology([10.0, 10.0])  # node1 - node2 - node3

    def test_valid_plan_passes(self):
        plan = FaultPlan(
            [
                NodeCrash(at_s=10.0, node="node2", reboot_after_s=30.0),
                LinkDown(at_s=20.0, a="node1", b="node2", restore_after_s=5.0),
                LinkFlap(at_s=30.0, a="node2", b="node3", down_s=2.0, up_s=2.0),
                Partition(at_s=40.0, group=("node1",), heal_after_s=10.0),
                ProbeBlackout(at_s=50.0, node="node3", duration_s=15.0),
            ]
        )
        plan.validate(self.topo())

    def test_unknown_node_rejected(self):
        plan = FaultPlan([NodeCrash(at_s=1.0, node="ghost")])
        with pytest.raises(SimulationError, match="unknown node"):
            plan.validate(self.topo())

    def test_unknown_link_rejected(self):
        plan = FaultPlan([LinkDown(at_s=1.0, a="node1", b="node3")])
        with pytest.raises(TopologyError):
            plan.validate(self.topo())

    def test_negative_time_rejected(self):
        plan = FaultPlan([NodeCrash(at_s=-1.0, node="node1")])
        with pytest.raises(SimulationError, match="negative"):
            plan.validate(self.topo())

    def test_nonpositive_reboot_rejected(self):
        plan = FaultPlan(
            [NodeCrash(at_s=1.0, node="node1", reboot_after_s=0.0)]
        )
        with pytest.raises(SimulationError, match="reboot_after_s"):
            plan.validate(self.topo())

    def test_flap_needs_positive_phases(self):
        plan = FaultPlan(
            [LinkFlap(at_s=1.0, a="node1", b="node2", down_s=0.0, up_s=1.0)]
        )
        with pytest.raises(SimulationError, match="flap"):
            plan.validate(self.topo())

    def test_empty_partition_group_rejected(self):
        plan = FaultPlan([Partition(at_s=1.0, group=())])
        with pytest.raises(SimulationError, match="empty"):
            plan.validate(self.topo())

    def test_total_partition_group_rejected(self):
        plan = FaultPlan(
            [Partition(at_s=1.0, group=("node1", "node2", "node3"))]
        )
        with pytest.raises(SimulationError, match="every node"):
            plan.validate(self.topo())

    def test_nonpositive_blackout_rejected(self):
        plan = FaultPlan(
            [ProbeBlackout(at_s=1.0, node="node1", duration_s=0.0)]
        )
        with pytest.raises(SimulationError, match="blackout"):
            plan.validate(self.topo())

    @pytest.mark.parametrize(
        "event",
        [
            NodeCrash(at_s=NAN, node="node1"),
            NodeCrash(at_s=1.0, node="node1", reboot_after_s=NAN),
            LinkDown(at_s=1.0, a="node1", b="node2", restore_after_s=NAN),
            LinkFlap(at_s=1.0, a="node1", b="node2", down_s=NAN, up_s=1.0),
            LinkFlap(at_s=1.0, a="node1", b="node2", down_s=1.0, up_s=NAN),
            Partition(at_s=1.0, group=("node1",), heal_after_s=NAN),
            ProbeBlackout(at_s=1.0, node="node1", duration_s=NAN),
            OrchestratorKill(at_s=1.0, down_s=NAN),
        ],
        ids=repr,
    )
    def test_nan_time_or_duration_rejected(self, event):
        """A NaN passes ``x < 0`` and ``x <= 0``; refused here, it would
        otherwise fail mid-run when the injector schedules it."""
        with pytest.raises(SimulationError):
            FaultPlan([event]).validate(self.topo())


class TestSeededChurn:
    def test_reproducible_per_seed(self):
        topo = full_mesh_topology(5)
        first = seeded_churn(topo, RngStreams(7), duration_s=300.0)
        second = seeded_churn(topo, RngStreams(7), duration_s=300.0)
        assert first.events == second.events
        third = seeded_churn(topo, RngStreams(8), duration_s=300.0)
        assert third.events != first.events

    def test_times_in_middle_of_run(self):
        for seed in range(20):
            plan = seeded_churn(
                full_mesh_topology(4), RngStreams(seed), duration_s=100.0
            )
            (event,) = plan.events
            assert 10.0 <= event.at_s <= 90.0

    def test_victims_unique_and_valid(self):
        """One crash, on a candidate, that never reboots."""
        topo = full_mesh_topology(5)
        for seed in range(20):
            plan = seeded_churn(
                topo, RngStreams(seed), duration_s=200.0,
                candidates=["node2", "node4"],
            )
            (crash,) = plan.events
            assert isinstance(crash, NodeCrash)
            assert crash.node in {"node2", "node4"}
            assert crash.reboot_after_s is None
            plan.validate(topo)

    def test_draws_one_choice_then_one_uniform_from_the_faults_stream(self):
        """The churn row's bytes rest on this exact draw sequence."""
        topo = full_mesh_topology(5)
        pool = list(topo.worker_names)
        for seed in range(5):
            gen = RngStreams(seed).get("faults")
            (index,) = gen.choice(len(pool), size=1, replace=False)
            at_s = float(gen.uniform(0.1 * 300.0, 0.9 * 300.0))
            plan = seeded_churn(topo, RngStreams(seed), duration_s=300.0)
            assert plan.events == [NodeCrash(at_s=at_s, node=pool[index])]

    def test_too_many_crashes_rejected(self):
        with pytest.raises(SimulationError, match="cannot crash"):
            seeded_churn(
                full_mesh_topology(3), RngStreams(0),
                duration_s=100.0, candidates=[],
            )

    @pytest.mark.parametrize("duration_s", [0.0, NAN])
    def test_nonpositive_or_nan_duration_rejected(self, duration_s):
        with pytest.raises(SimulationError, match="duration_s"):
            seeded_churn(full_mesh_topology(3), RngStreams(0), duration_s=duration_s)
