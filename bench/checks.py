"""Output invariants, one function per workload family.

Correctness is by invariant, never by golden value: a later fidelity
fix may change simulated numbers without touching this package.  Each
function returns a list of human-readable violations (empty = pass).
``selftest`` proves the checks bite by corrupting a passing state.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.core.controlplane import check_cluster_ledger
from repro.errors import SchedulingError

from .oracle import max_min_rates

#: Allocation tolerance against the oracle (the fluid model's own epsilon).
RATE_TOL = 1e-9


def sim_digest(stats) -> str:
    """sha256 of canonical simulated statistics (floats by ``repr``)."""
    text = json.dumps(stats, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def allocation(emu) -> list[str]:
    """Emulator rates equal the oracle's; no link carries more than it has."""
    problems = []
    capacities = emu.capacities_now()
    flows = emu.flows
    want = max_min_rates({f.flow_id: (f.links, f.demand_mbps) for f in flows}, capacities)
    load = dict.fromkeys(capacities, 0.0)
    for flow in flows:
        if abs(flow.allocated_mbps - want[flow.flow_id]) > RATE_TOL:
            problems.append(
                f"flow {flow.flow_id}: allocated {flow.allocated_mbps!r}, "
                f"oracle {want[flow.flow_id]!r}"
            )
        for link in flow.links:
            load[link] += flow.allocated_mbps
    for link, carried in load.items():
        if carried > capacities[link] + 1e-6:
            problems.append(f"link {link}: carries {carried} > capacity {capacities[link]}")
    return problems[:5]


def ledger(cluster) -> list[str]:
    try:
        check_cluster_ledger(cluster)
    except SchedulingError as error:
        return [str(error)]
    return []


def placed_on_live_nodes(handles, topology) -> list[str]:
    """Every component of every tenant is bound to exactly one live node."""
    problems = []
    for handle in handles:
        bound = handle.deployment.bindings
        for pod in handle.dag.to_pods():
            node = bound.get(pod.name)
            if node is None:
                problems.append(f"{handle.app.name}:{pod.name} is not placed")
            elif not topology.is_node_up(node):
                problems.append(f"{handle.app.name}:{pod.name} sits on dead node {node}")
    return problems[:5]


def social(runs, *, services: int) -> list[str]:
    """All services placed, ledger clean, latencies finite, Fig 14b ordering."""
    problems = []
    p99 = {}
    for run in runs:
        if len(run.handle.deployment.bindings) != services:
            problems.append(f"{run.label}: {len(run.handle.deployment.bindings)} services placed")
        problems += placed_on_live_nodes([run.handle], run.env.topology)
        problems += ledger(run.env.cluster)
        if not run.latencies or not all(math.isfinite(x) for x in run.latencies):
            problems.append(f"{run.label}: missing or non-finite latencies")
            continue
        p99[run.label] = float(np.percentile(run.latencies, 99))
    if len(p99) == len(runs) and not p99["longest-path+mig"] < p99["k3s"]:
        problems.append(
            f"Fig 14b ordering lost: longest-path+mig p99 {p99['longest-path+mig']:.2f}s "
            f">= k3s p99 {p99['k3s']:.2f}s"
        )
    return problems


def fleet(built) -> list[str]:
    """Ledger, placement, crash re-placement and handoff accounting."""
    env = built.env
    plane = env.control_plane
    problems = ledger(env.cluster) + placed_on_live_nodes(built.handles, env.topology)
    if plane.recovery.failed_count:
        problems.append(f"{plane.recovery.failed_count} lost pods were never re-placed")
    # A pod that sat on a node when it crashed must have left before the reboot.
    for crash in built.crashes:
        if crash.at_s > env.engine.now:
            continue
        back_at = crash.at_s + crash.reboot_after_s
        for handle in built.handles:
            for pod, start in handle.assignments.items():
                node, left_at = start, None
                for move in handle.deployment.migrations:
                    if move.pod_name != pod:
                        continue
                    if move.time <= crash.at_s:
                        node = move.to_node
                    elif left_at is None:
                        left_at = move.time
                if node == crash.node and (left_at is None or left_at >= back_at):
                    problems.append(f"{handle.app.name}:{pod} stayed on crashed {crash.node}")
    region_of = plane.region_map.region_of
    crossings = sum(
        region_of(move.from_node) != region_of(move.to_node)
        for handle in built.handles
        for move in handle.deployment.migrations
    )
    committed = plane.arbiter.handoff_counts().get("committed", 0)
    if crossings != committed:
        problems.append(f"{crossings} cross-region migrations vs {committed} committed handoffs")
    return problems[:5]


def sweep(parallel_json: list[str], serial_json: str, warm_json: str) -> list[str]:
    problems = []
    for index, text in enumerate(parallel_json):
        if text != serial_json:
            problems.append(f"parallel rep {index} output differs from the serial sweep")
    if warm_json != serial_json:
        problems.append("warm cache replay differs from the cold sweep")
    return problems


def replay(shard_lines: int, read_back: int, emitted: int, exposition: str) -> list[str]:
    problems = []
    if not shard_lines == read_back == emitted:
        problems.append(
            f"{emitted} events emitted, {shard_lines} shard lines, {read_back} read back"
        )
    if not exposition.endswith("# EOF\n"):
        problems.append("exposition does not end with '# EOF'")
    return problems
