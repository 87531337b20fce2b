"""Unit tests for the net-monitor: probing and capacity caching."""

import pytest

from repro.config import ProbeConfig
from repro.core.netmonitor import NetMonitor
from repro.errors import TopologyError
from repro.mesh.topology import line_topology
from repro.mesh.traces import BandwidthTrace
from repro.net.netem import NetworkEmulator


def monitor_on(capacities=(10.0,), **probe_kwargs):
    netem = NetworkEmulator(line_topology(list(capacities)))
    return NetMonitor(netem, ProbeConfig(**probe_kwargs)), netem


class TestFullProbe:
    def test_measures_current_capacity(self):
        monitor, _ = monitor_on([10.0])
        result = monitor.full_probe("node1", "node2")
        assert result.capacity_mbps == 10.0
        assert result.kind == "full"

    def test_caches_measurement(self):
        monitor, netem = monitor_on([10.0])
        monitor.full_probe("node1", "node2")
        # Capacity drops, but the cache still serves the old value.
        netem.topology.link("node1", "node2").set_rate_limit(2.0)
        assert monitor.cached_capacity("node1", "node2") == 10.0
        monitor.full_probe("node1", "node2")
        assert monitor.cached_capacity("node1", "node2") == 2.0

    def test_uncached_link_reads_live(self):
        monitor, _ = monitor_on([10.0])
        assert monitor.cached_capacity("node1", "node2") == 10.0

    def test_injects_probe_traffic(self):
        monitor, netem = monitor_on([10.0])
        monitor.full_probe("node1", "node2")
        probes = [f for f in netem.flows if f.tag == "probe"]
        assert len(probes) == 1
        assert probes[0].demand_mbps == 10.0
        # The probe flow is removed after the probe duration.
        netem.engine.run_until(2.0)
        assert not [f for f in netem.flows if f.tag == "probe"]

    def test_probe_all_links_counts(self):
        monitor, _ = monitor_on([10.0, 5.0])
        monitor.probe_all_links()
        assert monitor.full_probe_count == 4  # two links, both directions

    def test_cooldown(self):
        monitor, netem = monitor_on([10.0], full_probe_cooldown_s=60.0)
        monitor.full_probe("node1", "node2")
        assert not monitor.full_probe_allowed("node1", "node2")
        netem.engine.run_until(61.0)
        assert monitor.full_probe_allowed("node1", "node2")

    def test_cache_age(self):
        monitor, netem = monitor_on([10.0])
        assert monitor.cache_age("node1", "node2") == float("inf")
        monitor.full_probe("node1", "node2")
        netem.engine.run_until(30.0)
        assert monitor.cache_age("node1", "node2") == pytest.approx(30.0)


class TestHeadroomProbe:
    def test_ok_when_spare_capacity_exists(self):
        monitor, _ = monitor_on([10.0])
        result = monitor.headroom_probe("node1", "node2", headroom_mbps=2.0)
        assert result.headroom_ok
        assert result.kind == "headroom"

    def test_violated_when_link_busy(self):
        monitor, netem = monitor_on([10.0])
        netem.add_flow("hog", "node1", "node2", 9.5)
        netem.recompute()
        result = monitor.headroom_probe("node1", "node2", headroom_mbps=2.0)
        assert not result.headroom_ok

    def test_probe_rate_bounded_by_fraction_of_cached(self):
        monitor, netem = monitor_on([10.0], headroom_probe_fraction=0.1)
        monitor.headroom_probe("node1", "node2", headroom_mbps=100.0)
        probes = [f for f in netem.flows if f.tag == "probe"]
        assert probes[0].demand_mbps == pytest.approx(1.0)

    def test_counts(self):
        monitor, _ = monitor_on([10.0])
        monitor.headroom_probe("node1", "node2", 1.0)
        monitor.headroom_probe("node1", "node2", 1.0)
        assert monitor.headroom_probe_count == 2

    def test_cached_link_reads_live_capacity_once(self, monkeypatch):
        """The probe is sized from the cached capacity; on a full-probed
        link the only live read is the spare-capacity measurement."""
        monitor, netem = monitor_on([10.0])
        monitor.full_probe("node1", "node2")
        live = netem.capacity
        reads = []

        def counting(src, dst):
            reads.append((src, dst))
            return live(src, dst)

        monkeypatch.setattr(netem, "capacity", counting)
        monitor.headroom_probe("node1", "node2", 1.0)
        assert reads == [("node1", "node2")]


class TestPathViews:
    def test_links_of_path(self):
        monitor, _ = monitor_on([10.0, 4.0])
        assert monitor.links_of_path("node1", "node3") == [
            ("node1", "node2"),
            ("node2", "node3"),
        ]
        assert monitor.links_of_path("node1", "node1") == []

    def test_validate_link(self):
        monitor, _ = monitor_on([10.0])
        monitor.validate_link("node1", "node2")
        with pytest.raises(TopologyError):
            monitor.validate_link("node1", "node3")


class TestPassiveAndOverhead:
    def test_goodput_of_missing_flow_is_one(self):
        monitor, _ = monitor_on([10.0])
        assert monitor.goodput("ghost") == 1.0

    def test_goodput_of_squeezed_flow(self):
        monitor, netem = monitor_on([10.0])
        netem.add_flow("f", "node1", "node2", 20.0)
        netem.recompute()
        assert monitor.goodput("f") == pytest.approx(0.5)

    def test_probe_overhead_fraction(self):
        monitor, netem = monitor_on([10.0])
        netem.add_flow("app", "node1", "node2", 9.0, tag="app")
        netem.start()
        monitor_task = netem.engine.every(
            10.0, lambda: monitor.headroom_probe("node1", "node2", 1.0)
        )
        netem.engine.run_until(100.0)
        fraction = monitor.probe_overhead_fraction()
        assert 0.0 < fraction < 0.2
        monitor_task.stop()

    def test_overhead_zero_without_traffic(self):
        monitor, _ = monitor_on([10.0])
        assert monitor.probe_overhead_fraction() == 0.0
