"""Tests for the crash matrix harness and its built-in scenarios.

The exhaustive sweeps (every site of every full scenario, under several
seeded disk behaviours) carry the ``crash`` marker; a smoke subset runs
unmarked so a default test run still exercises the harness end to end.
"""

import pytest

from repro.obs import Observability
from tests.durability.crashtest import (
    CheckpointCrashScenario,
    ContainerCrashScenario,
    CrashMatrix,
    PageStoreCrashScenario,
    default_scenarios,
)


class TestHarness:
    def test_discovery_finds_sites(self):
        matrix = CrashMatrix(ContainerCrashScenario(elements=2))
        sites = matrix.discover()
        assert sites  # the workload visits crash points
        names = {site.name for site in sites}
        assert "atomic.after_sync" in names

    def test_smoke_scenarios_pass(self):
        for scenario in default_scenarios(small=True):
            report = CrashMatrix(scenario).run()
            assert report.passed, report.summary()
            assert all(o.fired for o in report.outcomes)

    def test_max_sites_bounds_the_sweep(self):
        matrix = CrashMatrix(ContainerCrashScenario(elements=2))
        report = matrix.run(max_sites=3)
        assert len(report.outcomes) == 3

    def test_summary_counts(self):
        report = CrashMatrix(
            ContainerCrashScenario(elements=2)
        ).run(max_sites=2)
        assert "crash matrix [container]" in report.summary()
        assert report.failures == []

    def test_matrix_emits_metrics(self):
        obs = Observability()
        CrashMatrix(ContainerCrashScenario(elements=2), obs=obs).run(
            max_sites=2
        )
        assert obs.metrics.counter("crashtest.sites").total() == 2


@pytest.mark.crash
class TestExhaustiveMatrix:
    """Every site of every full scenario, on three disk behaviours."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_page_store(self, seed):
        report = CrashMatrix(PageStoreCrashScenario(), seed=seed).run()
        assert report.passed, report.summary()

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_container(self, seed):
        report = CrashMatrix(ContainerCrashScenario(), seed=seed).run()
        assert report.passed, report.summary()

    @pytest.mark.parametrize("seed", [0, 42])
    def test_vod_checkpoint(self, seed):
        report = CrashMatrix(CheckpointCrashScenario(), seed=seed).run()
        assert report.passed, report.summary()
