"""The social-network rows as data: every cell of fig5, fig11, fig13,
fig14a, fig14b, fig14cd, fig16 and table1 builds one
:class:`~repro.experiments.socialnet.SocialScenario`, the record holds
only what those rows vary, and its ``controller`` field is the line
between the two kinds of no-migration baseline."""

import dataclasses
import json

import pytest

from repro.experiments import migration, socialnet
from repro.experiments.catalog import CATALOG
from repro.runner import canonical_json, decode_value
from repro.runner.worker import resolve_cell_function

SOCIAL_ROWS = (
    "fig5", "fig11", "fig13", "fig14a", "fig14b", "fig14cd", "fig16", "table1",
)


class _Built(Exception):
    def __init__(self, scenario):
        super().__init__()
        self.scenario = scenario


def _scenario_of(monkeypatch, fn, **kwargs):
    """The scenario ``fn(**kwargs)`` builds, caught before it is wired."""

    def capture(scenario, read=None):
        raise _Built(scenario)

    monkeypatch.setattr(socialnet, "social_capsule", capture)
    monkeypatch.setattr(migration, "social_capsule", capture)
    with pytest.raises(_Built) as built:
        fn(**kwargs)
    monkeypatch.undo()
    return built.value.scenario


@pytest.fixture
def quick_scenarios(monkeypatch):
    """``{"<row>/<cell label>": scenario}`` at ``--quick`` sizing."""
    scenarios = {}
    for row in CATALOG:
        if row.id not in SOCIAL_ROWS:
            continue
        for spec in row.specs(**row.sizing(True)):
            for index, cell in enumerate(spec.cells):
                fn = resolve_cell_function(cell.fn)
                scenarios[f"{row.id}/{cell.label}"] = _scenario_of(
                    monkeypatch, fn, **spec.resolved_kwargs(index)
                )
    return scenarios


def test_every_social_cell_builds_a_scenario_that_round_trips(quick_scenarios):
    assert {key.split("/")[0] for key in quick_scenarios} == set(SOCIAL_ROWS)
    for key, scenario in quick_scenarios.items():
        text = canonical_json(scenario)
        assert decode_value(json.loads(text)) == scenario, key


def test_every_field_takes_two_values_across_the_rows(quick_scenarios):
    """A setting all eight rows share is a constant, not a field."""
    for spec in dataclasses.fields(socialnet.SocialScenario):
        values = {
            canonical_json(getattr(scenario, spec.name))
            for scenario in quick_scenarios.values()
        }
        assert len(values) >= 2, spec.name


def _probe_counts(capsule):
    monitor = capsule.prepared.handle.monitor
    return monitor.full_probe_count, monitor.headroom_probe_count


def test_fig13_no_migration_cell_still_probes():
    """fig13's ``interval=None`` cell turns migrations off but registers
    its controller: past deployment's flood (6 full probes) it probes
    every epoch, and the probes offer ``probe``-tagged traffic."""
    capsule = migration._fig13_cell.capsule(
        interval=None, rps=400.0, restrict_at_s=10.0, restrict_for_s=120.0,
        total_s=60.0, seed=13,
    )
    assert capsule.prepared.scenario.controller
    assert not capsule.prepared.scenario.config.migrations_enabled
    assert _probe_counts(capsule) == (6, 0)
    capsule.run_to_completion()
    assert _probe_counts(capsule) == (7, 2)
    assert len(capsule.prepared.probe_log()) == 9
    assert "probe" in capsule.env.netem.offered_mbit_by_tag()
    assert capsule.result().migrations == []


def test_fig14b_no_migration_cell_registers_no_controller(monkeypatch):
    """fig14b's ``longest-path-nomig`` registers no controller (nor do
    fig5, fig11 and fig14a): after deployment's flood it never probes."""
    scenario = _scenario_of(
        monkeypatch, migration._fig14b_cell,
        label="longest-path-nomig", duration_s=60.0, seed=140,
    )
    assert not scenario.controller
    capsule = socialnet.social_capsule(scenario)
    assert _probe_counts(capsule) == (12, 0)
    capsule.run_to_completion()
    assert _probe_counts(capsule) == (12, 0)
    assert "probe" not in capsule.env.netem.offered_mbit_by_tag()
    assert capsule.result().migrations == []
