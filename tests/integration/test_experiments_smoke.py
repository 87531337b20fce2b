"""Short-horizon smoke runs of the experiments that are not catalogue
rows.  Every row's figure shapes are its claims, checked at full scale
by ``tests/integration/test_catalog.py``."""

from repro.experiments.overheads import probing_overhead


class TestThresholdsAndOverheads:
    def test_probing_overhead(self):
        result = probing_overhead(duration_s=120.0)
        assert 0.0 < result.probe_fraction < 0.10
        # The startup round max-capacity-probes every directed link; at
        # short horizons it dominates the full-probe count, so just
        # check headroom probing is active and cheap.
        assert result.headroom_probes > 0
