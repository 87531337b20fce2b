"""``python3 -m bench --selftest``: prove that every invariant can fail.

Each case runs a workload at its tiny size, corrupts the finished state
the way a real bug would (a rate off by 1e-6, a dropped pod, a changed
sweep result, a lost trace line) and requires the run to come back with
every op failed.  A clean control run of each workload must pass first,
otherwise a check that always fails would look like one that bites.
"""

from __future__ import annotations

from . import protocol, workloads
from .clock import Clock


def _nudge_rate(state) -> None:
    emu = getattr(state, "emu", state)
    emu.flows[0].allocated_mbps += 1e-6


def _drop_social_pod(runs) -> None:
    runs[0].handle.deployment.unbind("media-service")


def _drop_fleet_pod(built) -> None:
    built.handles[0].deployment.unbind("sink")


def _corrupt_sweep_result(state) -> None:
    state.canonical = state.canonical.replace("1", "2", 1)


def _lose_trace_line(state) -> None:
    shard = state.tracer.sink.shard_paths()[-1]
    shard.write_text("".join(shard.read_text().splitlines(keepends=True)[:-1]))


CASES = (
    ("city_tick", "one flow's rate off by 1e-6", _nudge_rate),
    ("flow_churn", "one flow's rate off by 1e-6", _nudge_rate),
    ("socialnet_mesh", "one service unplaced", _drop_social_pod),
    ("fleet_epochs", "one pod dropped", _drop_fleet_pod),
    ("sweep_grid", "one sweep result changed", _corrupt_sweep_result),
    ("trace_replay", "one shard line lost", _lose_trace_line),
)


def failed_fraction(name: str, seed: int, corrupt=None) -> float:
    """Run one tiny rep, optionally corrupt it, and return failed / attempted."""
    workload = workloads.make(name, tiny=True)
    state = workload.build(seed)
    clock = Clock()
    driver = protocol.Driver(clock)
    workload.run(state, driver)
    if corrupt is not None:
        corrupt(state)
    outcome = workload.verify(state, driver)
    _, attempted, failed, *_ = protocol.verdict(
        workload, seed, [outcome], len(driver.ops), clock, traced=False
    )
    return failed / attempted


def main(seed: int) -> int:
    ok = True
    try:
        for name, what, corrupt in CASES:
            clean = failed_fraction(name, seed)
            broken = failed_fraction(name, seed, corrupt)
            bites = clean == 0.0 and broken == 1.0
            ok &= bites
            print(
                f"{'PASS' if bites else 'FAIL'} {name:<16} clean failed_frac={clean:g}; "
                f"{what} -> failed_frac={broken:g}"
            )
    finally:
        protocol.remove_scratch()
    return 0 if ok else 1
