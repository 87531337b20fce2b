"""A self-contained demand-bounded max-min oracle (progressive filling).

Deliberately shares no code with ``repro.net.fairness``: the benchmark
checks the emulator's allocation against this, so a later change to the
production solvers (or the removal of their frozen reference kernel)
cannot silently change what "correct" means here.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

_TOL = 1e-12


def _components(flows: Mapping[Hashable, Sequence]) -> list[list[Hashable]]:
    """Group flow ids that (transitively) share a link."""
    parent: dict = {}

    def find(key):
        while parent.setdefault(key, key) != key:
            parent[key] = key = parent[parent[key]]
        return key

    for links in flows.values():
        root = find(links[0])
        for link in links[1:]:
            parent[find(link)] = root
    groups: dict = {}
    for fid, links in flows.items():
        groups.setdefault(find(links[0]), []).append(fid)
    return list(groups.values())


def max_min_rates(
    flows: Mapping[Hashable, tuple[Sequence, float]],
    capacities: Mapping[Hashable, float],
) -> dict[Hashable, float]:
    """Max-min fair rates for ``{flow: (links, demand)}`` over ``capacities``.

    Every unsatisfied flow of a component grows at the same pace; a flow
    freezes when it reaches its demand or a link on its path fills.
    Flows without links (co-located endpoints) get their full demand.
    """
    rates = {fid: (0.0 if links else demand) for fid, (links, demand) in flows.items()}
    routed = {fid: links for fid, (links, demand) in flows.items() if links and demand > 0}
    for members in _components(routed):
        left = {link: float(capacities[link]) for fid in members for link in routed[fid]}
        active = set(members)
        level = 0.0
        while active:
            load: dict = {}
            for fid in active:
                for link in routed[fid]:
                    load[link] = load.get(link, 0) + 1
            step = min(left[link] / n for link, n in load.items())
            step = max(0.0, min(step, min(flows[fid][1] for fid in active) - level))
            level += step
            for link, n in load.items():
                left[link] -= step * n
            full = {link for link in load if left[link] <= _TOL}
            done = {
                fid
                for fid in active
                if flows[fid][1] - level <= _TOL or any(link in full for link in routed[fid])
            }
            for fid in done:
                rates[fid] = level
            active -= done
    return rates
