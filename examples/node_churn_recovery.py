#!/usr/bin/env python3
"""Crash a mesh node mid-run and watch BASS recover (beyond the paper).

A community mesh loses whole routers, not just bandwidth: power cuts,
reboots, radios wedged until someone climbs the roof.  This example
deploys a streaming tenant whose sink lives on ``node2``, kills the
node at t=60 s, and shows the full pipeline:

* the heartbeat failure detector suspects and then confirms the node
  dead purely from missing beats (measured detection latency);
* the control plane evicts the lost pod and re-places it on a
  surviving node through the regular migration machinery;
* goodput dips to zero and recovers — while a k3s-style baseline that
  never re-places stays dark forever.

It then prints the recovery cause chain straight from the flight
recorder: fault.injected -> node.suspected -> node.confirmed_dead ->
recovery.plan -> restart.

Run:  python examples/node_churn_recovery.py
"""

from repro.experiments.churn import churn_recovery
from repro.obs.report import recovery_chains
from repro.obs.trace import Tracer

DURATION_S = 200.0
CRASH_AT_S = 60.0
SEED = 23


def timeline(result) -> str:
    """Render the sampled goodput as a sparse ASCII strip chart."""
    rows = []
    for t, g in zip(result.times, result.goodput):
        if t % 20 != 0:
            continue
        bar = "#" * int(round(40 * g))
        rows.append(f"  {t:6.0f}s |{bar:<40}| {g:.2f}")
    return "\n".join(rows)


def main() -> None:
    tracer = Tracer()
    bass = churn_recovery(
        duration_s=DURATION_S,
        crash_at_s=CRASH_AT_S,
        seed=SEED,
        recovery=True,
        tracer=tracer,
    )
    k3s = churn_recovery(
        duration_s=DURATION_S, crash_at_s=CRASH_AT_S, seed=SEED, recovery=False
    )

    print(f"crash: {bass.crash_node} at t={bass.crash_at_s:.0f}s\n")
    for result in (bass, k3s):
        detect = (
            f"{result.detection_latency_s:.0f}s"
            if result.detection_latency_s is not None
            else "-"
        )
        recover = (
            f"{result.time_to_recover_s:.0f}s after the crash"
            if result.time_to_recover_s is not None
            else "never"
        )
        print(
            f"[{result.label}] detected in {detect}, "
            f"{result.recovered_pods} pod(s) re-placed, "
            f"goodput back to >=90% {recover}"
        )
        print(timeline(result) + "\n")

    print("recovery cause chain (from the flight recorder):")
    for chain in recovery_chains(tracer.events):
        for event in filter(None, [chain.fault, chain.suspected,
                                   chain.confirmed, chain.plan]):
            print(f"  @{event.time:6.1f}s {event.kind}")
        for restart in chain.restarts:
            data = restart.data
            print(
                f"  @{restart.time:6.1f}s {restart.kind}  "
                f"{data.get('component')}: {data.get('from')} -> "
                f"{data.get('to')}"
            )


if __name__ == "__main__":
    main()
