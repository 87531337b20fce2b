"""The camera-processing pipeline (Fig 9).

``camera-stream → frame-sampler → object-detector → {image-listener,
label-listener}``: an mp4 is published to an RTP stream, a sampler
picks dissimilar frames, a YOLO detector annotates them and publishes
an annotated-image stream and a text-label stream (§6.1).  "In addition
to being bandwidth intensive, the application is CPU bound in the
object detector stage, and network bound at the output of the camera
stream and frame sampler, and input to the image listener."

Resource shape follows §6.3.1 (4 cores for the sampler, 8 for the
detector), which is what keeps the detector off the sampler's node on
small machines — the effect the paper calls out under Fig 10(b).

Latency model: one frame's end-to-end latency is the sum along the
``camera → sampler → detector → image-listener`` chain of per-stage
processing time plus, for each inter-node hop, the frame's transfer
time at the path's current rate and the path's propagation + queueing
delay.  Co-located stages hand frames over loopback at no cost, which
is why bandwidth-aware placement wins even with no link constraint
(Fig 10a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..core.binding import DeploymentBinding, EdgeCosts
from ..core.dag import Component, ComponentDAG
from ..errors import ConfigError
from .base import Application

#: Pipeline stage names, in data-flow order.
CAMERA_STREAM = "camera-stream"
FRAME_SAMPLER = "frame-sampler"
OBJECT_DETECTOR = "object-detector"
IMAGE_LISTENER = "image-listener"
LABEL_LISTENER = "label-listener"


@dataclass(frozen=True)
class CameraProfile:
    """Tunable pipeline profile: data rates, payloads, compute times.

    Defaults are calibrated so that the all-co-located latency is
    ~400 ms and an inter-node hop at CityLab-like rates adds tens of
    milliseconds, matching the relative placement effects of Fig 10 and
    Table 2 (absolute numbers are simulator-scale, per DESIGN.md).
    """

    # Edge bandwidth requirements (Mbps) — the DAG annotations.
    stream_to_sampler_mbps: float = 10.0
    sampler_to_detector_mbps: float = 6.0
    detector_to_image_mbps: float = 4.0
    detector_to_label_mbps: float = 0.05

    # Per-frame payloads (megabits) along the latency-critical chain.
    frame_raw_mbit: float = 0.8
    frame_sampled_mbit: float = 0.6
    frame_annotated_mbit: float = 0.5

    # Per-stage processing times (ms).
    encode_ms: float = 40.0
    sampler_ms: float = 60.0
    detector_ms: float = 280.0
    listener_ms: float = 20.0

    # Relative std of processing-time jitter.
    jitter_rel_std: float = 0.05

    # Fixed cost per inter-node hop (ms): RTP jitter buffering plus
    # serialization — the reason co-location wins even on fast LANs
    # (Fig 10a shows ~20 ms differences at negligible link load).
    per_hop_overhead_ms: float = 15.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"CameraProfile.{spec.name} must be finite and >= 0, "
                    f"got {value!r}"
                )


class CameraPipelineApp(Application):
    """The five-component camera pipeline.

    Args:
        profile: data-rate/compute calibration.
        sampler_cpu: cores for the frame sampler (§6.3.1 uses 4).
        detector_cpu: cores for the object detector (§6.3.1 uses 8).

    Example:
        >>> dag = CameraPipelineApp().build_dag()
        >>> len(dag)
        5
    """

    name = "camera"

    def __init__(
        self,
        profile: Optional[CameraProfile] = None,
        *,
        sampler_cpu: float = 4.0,
        detector_cpu: float = 8.0,
    ) -> None:
        self.profile = profile if profile is not None else CameraProfile()
        self.sampler_cpu = sampler_cpu
        self.detector_cpu = detector_cpu

    def build_dag(self) -> ComponentDAG:
        profile = self.profile
        dag = ComponentDAG(self.name)
        dag.add_component(Component(CAMERA_STREAM, cpu=1.0, memory_mb=512))
        dag.add_component(
            Component(FRAME_SAMPLER, cpu=self.sampler_cpu, memory_mb=1024)
        )
        dag.add_component(
            Component(OBJECT_DETECTOR, cpu=self.detector_cpu, memory_mb=2048)
        )
        dag.add_component(Component(IMAGE_LISTENER, cpu=1.0, memory_mb=512))
        dag.add_component(Component(LABEL_LISTENER, cpu=0.5, memory_mb=256))
        dag.add_dependency(
            CAMERA_STREAM, FRAME_SAMPLER, profile.stream_to_sampler_mbps
        )
        dag.add_dependency(
            FRAME_SAMPLER, OBJECT_DETECTOR, profile.sampler_to_detector_mbps
        )
        dag.add_dependency(
            OBJECT_DETECTOR, IMAGE_LISTENER, profile.detector_to_image_mbps
        )
        dag.add_dependency(
            OBJECT_DETECTOR, LABEL_LISTENER, profile.detector_to_label_mbps
        )
        return dag.validate()

    # -- latency sampling ----------------------------------------------------

    #: The latency-critical chain and each hop's per-frame payload field.
    _CHAIN = (
        (CAMERA_STREAM, FRAME_SAMPLER, "frame_raw_mbit"),
        (FRAME_SAMPLER, OBJECT_DETECTOR, "frame_sampled_mbit"),
        (OBJECT_DETECTOR, IMAGE_LISTENER, "frame_annotated_mbit"),
    )

    def _stage_times_ms(self) -> list[float]:
        profile = self.profile
        return [
            profile.encode_ms,
            profile.sampler_ms,
            profile.detector_ms,
            profile.listener_ms,
        ]

    def sample_latencies_s(
        self,
        binding: DeploymentBinding,
        n: int,
        rng: Optional[np.random.Generator] = None,
    ) -> list[float]:
        """``n`` frame latency samples at the current network state.

        The network does not move between the frames of one call, so
        the chain's stalls, hop overheads and transfer times are
        resolved once; per frame only the jittered stage times differ
        (drawn in one batch: the same values, in the same order, as one
        scalar draw per stage), summed in the order they are charged.
        A frame hitting a restarting stage stalls until that stage is
        back (migration cost, §6.2.3).
        """
        profile = self.profile
        costs = EdgeCosts(binding)
        stalls = costs.stalls
        fixed_s = []
        for src, dst, payload_field in self._CHAIN:
            for stage in (src, dst):
                if stage in stalls:
                    fixed_s.append(stalls[stage])
            transfer_s = costs.crossing_time_s(
                src, dst, getattr(profile, payload_field)
            )
            if transfer_s is not None:
                fixed_s.append(profile.per_hop_overhead_ms / 1000.0)
                fixed_s.append(transfer_s)

        stage_ms = np.tile(self._stage_times_ms(), (n, 1))
        if rng is not None and profile.jitter_rel_std > 0:
            stage_ms = stage_ms * np.maximum(
                0.1, rng.normal(1.0, profile.jitter_rel_std, size=stage_ms.shape)
            )
        latencies = []
        for frame_s in (stage_ms / 1000.0).tolist():
            latency_s = 0.0
            for addend in frame_s:
                latency_s += addend
            for addend in fixed_s:
                latency_s += addend
            latencies.append(latency_s)
        return latencies
