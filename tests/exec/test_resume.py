"""Resume semantics: a warm store skips φ work and reproduces tables.

These tests are the acceptance proof for the exec layer: a campaign
re-run against a warm store performs **zero** decode/sv_generation stage
executions (shown by obs metrics and the traced stage roll-up) and regenerates
every table bitwise identically.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.campaign import run_campaign
from repro.core.config import ExperimentConfig
from repro.exec.store import ArtifactStore
from repro.obs.metrics import default_registry


@pytest.fixture()
def tiny_experiment(tiny_config) -> ExperimentConfig:
    return replace(
        ExperimentConfig(corpus=tiny_config), vote_thresholds=(2, 1)
    )


def _campaign(system, config):
    return run_campaign(
        config,
        system=system,
        variants=("M1", "M2"),
        fusion_threshold=1,
    )


class TestWarmCampaign:
    def test_warm_run_skips_phi_and_reproduces_tables(
        self, tmp_path, make_system, tiny_experiment, run_traced
    ):
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")

        cold_system = make_system(store=store)
        cold, stages = run_traced(
            lambda: _campaign(cold_system, tiny_experiment)
        )
        assert registry.counter("exec.stage.phi.executed").value > 0
        assert registry.counter("parallel.pmap.calls").value > 0
        assert stages["decoding"]["calls"] > 0
        assert stages["sv_generation"]["calls"] > 0
        assert len(store) > 0

        registry.reset()
        warm_system = make_system(store=ArtifactStore(store.directory))
        warm, stages = run_traced(
            lambda: _campaign(warm_system, tiny_experiment)
        )

        # Zero decode / supervector work on the warm run:
        assert registry.counter("exec.stage.phi.executed").value == 0
        assert registry.counter("parallel.pmap.calls").value == 0
        assert "decoding" not in stages
        assert "sv_generation" not in stages
        # … because every stage product came from the store:
        assert registry.counter("exec.store.hits").value > 0
        assert registry.counter("exec.stage.svm_train.cached").value > 0
        assert registry.counter("exec.stage.score.cached").value > 0
        assert registry.counter("exec.stage.vote.cached").value > 0
        assert registry.counter("exec.stage.dba_train.cached").value > 0
        assert registry.counter("exec.stage.fuse.cached").value > 0
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert registry.counter("exec.stage.dba_train.executed").value == 0

        # Tables are bitwise identical (exact float equality, not approx).
        assert warm.baseline_cells == cold.baseline_cells
        assert warm.sweep_cells == cold.sweep_cells
        assert warm.dba_cells == cold.dba_cells
        assert warm.baseline_fused == cold.baseline_fused
        assert warm.dba_fused == cold.dba_fused
        assert warm.table1 == cold.table1
        assert warm.to_text() == cold.to_text()

    def test_threshold_change_reexecutes_only_dba_stages(
        self, tmp_path, make_system, run_traced
    ):
        """Changing only V re-runs vote/dba_train/score/fuse — nothing φ."""
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")

        cold = make_system(store=store)
        baseline = cold.baseline()
        cold.dba(1, "M2", baseline)

        registry.reset()
        warm = make_system(store=ArtifactStore(store.directory))
        # Fully cached baseline, then a new operating point.
        _, stages = run_traced(lambda: warm.dba(2, "M2", warm.baseline()))

        assert registry.counter("exec.stage.phi.executed").value == 0
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert "decoding" not in stages
        assert "sv_generation" not in stages
        # The DBA-and-later stages did run for the new threshold:
        assert registry.counter("exec.stage.vote.executed").value == 1
        assert registry.counter("exec.stage.dba_train.executed").value == len(
            warm.frontends
        )
        assert registry.counter("exec.stage.score.executed").value > 0

    def test_partial_store_resumes_midway(
        self, tmp_path, make_system, run_traced
    ):
        """A store holding only the baseline still spares the φ stages."""
        registry = default_registry()
        store = ArtifactStore(tmp_path / "store")
        make_system(store=store).baseline()  # simulate a killed campaign

        registry.reset()
        resumed = make_system(store=ArtifactStore(store.directory))
        result, stages = run_traced(
            lambda: resumed.dba(1, "M2", resumed.baseline())
        )
        assert registry.counter("exec.stage.svm_train.executed").value == 0
        assert registry.counter("exec.stage.dba_train.executed").value == len(
            resumed.frontends
        )
        assert "decoding" not in stages
        assert result.pseudo is not None and len(result.pseudo) >= 0

    def test_store_roundtrip_scores_identical(self, tmp_path, make_system):
        """Stored score matrices load bitwise equal to the computed ones."""
        import numpy as np

        store = ArtifactStore(tmp_path / "store")
        cold = make_system(store=store).baseline()
        warm = make_system(store=ArtifactStore(store.directory)).baseline()
        for a, b in zip(cold.subsystems, warm.subsystems):
            np.testing.assert_array_equal(a.dev, b.dev)
            for duration in a.test:
                np.testing.assert_array_equal(
                    a.test[duration], b.test[duration]
                )
            # and the reloaded VSM scores bitwise like the original
            np.testing.assert_array_equal(
                a.vsm.state_dict()["ovr.weights"],
                b.vsm.state_dict()["ovr.weights"],
            )
