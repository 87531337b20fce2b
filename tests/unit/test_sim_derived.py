"""Every class that declares derived fields pickles without them and
comes back with what :func:`repro.sim.derived.forget` sets.

The instances are those a small world reaches — a social app under
BASS with a heartbeat detector, and an emulator above the solver's
array cutover, so the fairness label columns are live — found by
walking it with a pickler.  A declaring class no instance reaches
fails, so a new declaration needs a place in the world.
"""

import io
import pickle

import numpy as np
import pytest

from repro.apps.social import SocialNetworkApp
from repro.experiments.common import build_env, deploy_app
from repro.faults import FailureDetector, HeartbeatConfig
from repro.mesh.topology import full_mesh_topology
from repro.net.fairness import _BATCH_MIN_FLOWS
from repro.net.netem import NetworkEmulator
from repro.sim.derived import Derived, forget


def declaring_classes(cls=Derived):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro.") and sub.DERIVED:
            yield sub
        yield from declaring_classes(sub)


CLASSES = sorted(set(declaring_classes()), key=lambda cls: cls.__name__)


def reached(root) -> dict[type, list]:
    found: dict[type, list] = {}

    class Walk(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, Derived):
                found.setdefault(type(obj), []).append(obj)

    Walk(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(root)
    return found


@pytest.fixture(scope="module")
def world():
    env = build_env(seed=3)
    handle = deploy_app(env, SocialNetworkApp(), "bass-bfs")
    detector = FailureDetector(env.netem, "node1", config=HeartbeatConfig(demand_mbps=0.5))
    detector.start()
    env.netem.start()
    env.engine.run_until(30.0)
    handle.app.sample_latencies_s(handle.binding, 20, np.random.default_rng(0))
    busy = NetworkEmulator(full_mesh_topology(4, capacity_mbps=50.0))
    for k in range(_BATCH_MIN_FLOWS):
        busy.add_flow(busy.next_flow_id("f"), f"node{k % 4 + 1}", f"node{(k + 1) % 4 + 1}", 1.0)
    busy.recompute()
    assert busy._incremental._link_comp is not None
    return env, handle, detector, busy


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):  # an empty sentinel or a scratch buffer
        return isinstance(b, np.ndarray) and (a.shape, a.dtype) == (b.shape, b.dtype)
    return a == b


def test_the_eight_declarations():
    assert [cls.__name__ for cls in CLASSES] == [
        "ControlPlane", "DeploymentBinding", "FailureDetector", "IncrementalMaxMin",
        "NetworkEmulator", "QueueArrays", "Router", "SocialNetworkApp",
    ]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_declared_fields_leave_the_payload_and_come_back_forgotten(cls, world):
    originals = reached(world).get(cls)
    assert originals, f"no {cls.__name__} reached from the world"
    restored = reached(pickle.loads(pickle.dumps(world)))[cls]
    for original, twin in zip(originals, restored, strict=True):
        state = original.__getstate__()
        assert not set(cls.DERIVED) & set(state)
        assert set(twin.__getstate__()) == set(state)
        after_restore = {name: getattr(twin, name) for name in cls.DERIVED}
        forget(twin)
        for name, value in after_restore.items():
            assert same(value, getattr(twin, name)), name
