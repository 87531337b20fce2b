"""Epoch-managed status publisher: versioned ``status.json`` snapshots.

The mesh-controller pattern (SNIPPETS.md snippet 1) pairs an epoch
manager with a status publisher: every k controller epochs the service
writes one JSON document describing the whole fleet — region health,
tenant placements, arbiter contention, recovery state — that dashboards
and ``GET /v1/status`` serve verbatim.  This module is that publisher
for the reproduction's control plane.

The snapshot schema is versioned (:data:`STATUS_VERSION`) with a
monotonically increasing ``revision`` per published document, and the
file is published with the same temp-file + atomic-rename discipline as
the trace shards, so readers never observe a torn write.  Attaching a
publisher is strictly opt-in (``ControlPlane.attach_status``): a run
without one executes byte-identically to the seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .exposition import RollingWindows
from .slo import DEFAULT_SLO_RULES, SloWatchdog
from .trace import TracerBase, resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.controlplane import ControlPlane

#: Schema version stamped into every snapshot; bump on breaking change.
STATUS_VERSION = 1


class StatusPublisher:
    """Snapshots control-plane state into ``status.json`` every k epochs.

    Wire it with :meth:`ControlPlane.attach_status`; the control plane
    calls :meth:`on_epoch` at the end of every fleet epoch.  The
    publisher owns the live plane: its :attr:`windows` (fed by the
    tracer when it records) are summarized into every snapshot, and its
    :attr:`watchdog` evaluates :data:`~repro.obs.slo.DEFAULT_SLO_RULES`
    on them *every* epoch — breaches must not wait for a publish
    boundary — while the snapshot file is rewritten only every
    ``every_k_epochs``.  All of it pickles with the control plane, so a
    restored run keeps its revision, windows and breach state.

    Args:
        control_plane: the plane to snapshot.
        path: where ``status.json`` lives.
        every_k_epochs: publish cadence in controller epochs.
        tracer: flight recorder for ``status.published`` and
            ``slo.breach`` events, and the feed of the rolling windows.
    """

    def __init__(
        self,
        control_plane: "ControlPlane",
        path: str | Path,
        *,
        every_k_epochs: int = 5,
        tracer: Optional[TracerBase] = None,
    ) -> None:
        if every_k_epochs < 1:
            raise ValueError("every_k_epochs must be >= 1")
        self.cp = control_plane
        self.path = Path(path)
        self.every_k_epochs = every_k_epochs
        self.tracer = resolve_tracer(tracer)
        self.windows = RollingWindows()
        if self.tracer.enabled:
            self.tracer.add_observer(self.windows)
        self.watchdog = SloWatchdog(
            DEFAULT_SLO_RULES, self.windows, self.tracer
        )
        self.revision = 0
        self.last_snapshot: Optional[dict] = None

    # -- the epoch hook ----------------------------------------------------

    def on_epoch(self, now: float, epoch: int) -> None:
        """Called by the control plane at the end of every fleet epoch."""
        self.watchdog.evaluate(now, epoch=epoch)
        if epoch % self.every_k_epochs == 0:
            self.publish(now, epoch)

    # -- snapshot assembly -------------------------------------------------

    def snapshot(self, now: float, epoch: int) -> dict:
        """One versioned status document (the ``status.json`` schema)."""
        cp = self.cp
        down_nodes = cp.netem.topology.down_nodes
        return {
            "version": STATUS_VERSION,
            "revision": self.revision + 1,
            "sim_time_s": now,
            "epoch": epoch,
            "regions": [
                cp.region_controller(name).health(down_nodes)
                for name in cp.region_map.names
            ],
            "tenants": self._tenants_block(now, down_nodes),
            "arbiter": self._arbiter_block(),
            "recovery": (
                cp.recovery.snapshot() if cp.recovery is not None else None
            ),
            "slo": self.watchdog.snapshot(),
            "rolling": {
                "window_s": self.windows.window_s,
                "probe_rate_per_second": round(
                    self.windows.value("probe_rate", now), 6
                ),
                "violation_rate_per_second": round(
                    self.windows.value("violation_rate", now), 6
                ),
            },
        }

    def _tenants_block(self, now: float, down_nodes: set) -> list[dict]:
        cp = self.cp
        blocks = []
        for app in sorted(cp.tenants):
            deployment = cp.orchestrator.deployment(app)
            placements = dict(sorted(deployment.bindings.items()))
            unavailable = sorted(
                pod
                for pod, node in placements.items()
                if node in down_nodes or not deployment.is_available(pod, now)
            )
            blocks.append(
                {
                    "app": app,
                    "home_region": cp.home_region(app),
                    "placements": placements,
                    "unavailable": unavailable,
                }
            )
        return blocks

    def _arbiter_block(self) -> dict:
        arbiter = self.cp.arbiter
        return {
            "claims": arbiter.claim_count,
            "conflicts": arbiter.conflict_count,
            "epochs": arbiter.epoch_count,
            "handoffs": arbiter.handoff_counts(),
        }

    # -- publication -------------------------------------------------------

    def publish(self, now: float, epoch: int) -> dict:
        """Write one snapshot atomically; returns the document."""
        document = self.snapshot(now, epoch)
        self.revision = document["revision"]
        self.last_snapshot = document
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.path)
        if self.tracer.enabled:
            self.tracer.emit(
                "status.published",
                now,
                epoch=epoch,
                revision=self.revision,
                path=str(self.path),
            )
        return document
