"""Wireless mesh network substrate.

Models the physical layer of a community mesh: heterogeneous compute
nodes, wireless links with time-varying capacity driven by bandwidth
traces, and decentralized shortest-path routing.  The 5-node CityLab
subset used in the paper's emulated-mesh evaluation (§6.3, Fig 15a) is
available from :func:`repro.mesh.topology.citylab_subset`.
"""

from .link import Link, LinkId
from .node import MeshNode
from .routing import Router
from .topology import MeshTopology, citylab_subset, line_topology
from .tracegen import (
    ar1_trace,
    citylab_stable_link_trace,
    citylab_variable_link_trace,
    trace_with_fades,
)
from .traces import BandwidthTrace

__all__ = [
    "BandwidthTrace",
    "Link",
    "LinkId",
    "MeshNode",
    "MeshTopology",
    "Router",
    "ar1_trace",
    "citylab_stable_link_trace",
    "citylab_subset",
    "citylab_variable_link_trace",
    "line_topology",
    "trace_with_fades",
]
