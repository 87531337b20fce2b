"""Flow-level network emulation substrate.

Application traffic is modelled as fluid *flows* between node pairs.
Each simulation tick, every directed link's instantaneous capacity is
read from the mesh topology (trace-driven), and capacity is divided
among competing flows by demand-bounded max-min fairness — the standard
fluid approximation of TCP-fair sharing.  Per-link fluid queues convert
sustained overload into growing queueing delay and, past the buffer
limit, packet loss, which is how a 25 Mbps throttle turns into the
order-of-magnitude latency inflation of Fig 5.
"""

from .fairness import FlowDemand, max_min_allocation
from .flows import Flow
from .netem import NetworkEmulator

__all__ = [
    "Flow",
    "FlowDemand",
    "NetworkEmulator",
    "max_min_allocation",
]
