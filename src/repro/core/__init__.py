"""BASS — the paper's primary contribution.

* :mod:`repro.core.dag` — application component DAGs with bandwidth
  edge weights (§3.1, §5).
* :mod:`repro.core.ordering` — the breadth-first and longest-path
  component-ordering heuristics (Algorithms 1 and 2).
* :mod:`repro.core.placement` — node ranking and greedy packing of the
  ordered components (§3.2.1).
* :mod:`repro.core.migration` — migration-candidate selection
  (Algorithm 3) and target-node choice (§3.2.2).
* :mod:`repro.core.netmonitor` — max-capacity and headroom probing with
  capacity caching and overhead accounting (§4.2).
* :mod:`repro.core.controller` — the bandwidth controller: violation
  detection, cooldown, and migration triggering (§4.3).
* :mod:`repro.core.controlplane` — the multi-tenant control plane:
  shared fleet monitor, epoch loop, and migration arbiter.
* :mod:`repro.core.registry` — the pluggable scheduler registry.
* :mod:`repro.core.scheduler` — the BASS scheduler tying it together.
* :mod:`repro.core.binding` — keeps the network emulator's flows in
  sync with a deployment's inter-node edges.
"""

from .binding import DeploymentBinding
from .controller import BandwidthController, ControllerIteration
from .controlplane import (
    ControlPlane,
    FleetArbiter,
    check_cluster_ledger,
)
from .dag import Component, ComponentDAG
from .explain import EdgeFate, PlacementExplanation, explain_placement
from .migration import MigrationPlanner, Violation
from .netmonitor import NetMonitor, ProbeResult
from .registry import (
    get_scheduler,
    register_scheduler,
    scheduler_names,
    unregister_scheduler,
)
from .ordering import (
    breadth_first_order,
    hybrid_order,
    longest_path_order,
    order_components,
)
from .placement import PlacementEngine, rank_nodes
from .profiling import EdgeProfile, OnlineProfiler
from .scheduler import BassScheduler

__all__ = [
    "BandwidthController",
    "BassScheduler",
    "Component",
    "ComponentDAG",
    "ControlPlane",
    "ControllerIteration",
    "DeploymentBinding",
    "EdgeFate",
    "EdgeProfile",
    "FleetArbiter",
    "MigrationPlanner",
    "NetMonitor",
    "OnlineProfiler",
    "PlacementEngine",
    "PlacementExplanation",
    "ProbeResult",
    "Violation",
    "breadth_first_order",
    "check_cluster_ledger",
    "explain_placement",
    "get_scheduler",
    "hybrid_order",
    "longest_path_order",
    "order_components",
    "rank_nodes",
    "register_scheduler",
    "scheduler_names",
    "unregister_scheduler",
]
