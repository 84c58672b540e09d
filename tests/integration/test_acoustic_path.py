"""Integration of the acoustic (GMM/MLP-HMM Viterbi) decoding path.

The confusion-channel recognizer powers the sweeps; these tests prove the
*real* acoustic pipeline exercises the identical downstream code: train
small AMs, Viterbi-decode, extract supervectors, train VSMs, vote, boost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.pipeline import PhonotacticSystem
from repro.corpus import CorpusConfig, make_corpus_bundle
from repro.frontend import FrontendSpec, build_frontends


@pytest.fixture(scope="module")
def acoustic_system():
    bundle = make_corpus_bundle(
        CorpusConfig(
            n_languages=3,
            n_families=2,
            train_per_language=10,
            dev_per_language=4,
            test_per_language=8,
            durations=(10.0,),
            seed=77,
        )
    )
    specs = (
        FrontendSpec("AC_GMM", "gmm", 18, tau=0.5, base_error=0.1),
        FrontendSpec("AC_ANN", "ann", 22, tau=0.5, base_error=0.1),
    )
    frontends = build_frontends(
        bundle, mode="acoustic", specs=specs, train_utterances=8, top_k=3
    )
    return PhonotacticSystem(
        bundle,
        frontends,
        SystemConfig(orders=(1, 2), svm_max_epochs=15, mmi_iterations=10),
    )


class TestAcousticPipeline:
    def test_baseline_beats_chance(self, acoustic_system):
        baseline = acoustic_system.baseline()
        labels = acoustic_system.labels_for("test@10.0")
        k = len(acoustic_system.bundle.registry)
        for scores in baseline.test_scores(10.0):
            acc = np.mean(np.argmax(scores, axis=1) == labels)
            assert acc > 1.5 / k

    def test_dba_runs_end_to_end(self, acoustic_system):
        baseline = acoustic_system.baseline()
        result = acoustic_system.dba(1, "M2", baseline)
        metrics = acoustic_system.frontend_metrics(result, 10.0)
        assert set(metrics) == {"AC_GMM", "AC_ANN"}
        for eer, _ in metrics.values():
            assert 0.0 <= eer <= 60.0

    def test_decoded_sausages_are_posterior_rich(self, acoustic_system):
        fe = acoustic_system.frontends[0]
        utt = acoustic_system.bundle.test[10.0][0]
        sausage = fe.decode(utt, 0)
        # At least some slots must carry real alternatives (not 1-best).
        assert any(slot.phones.size > 1 for slot in sausage.slots)


class TestFloat32PhiAcrossErrorModes:
    """``on_error`` is not part of the φ stage key, so every mode must
    store the same bytes under it — float32 decoding included."""

    def test_quarantine_phi_matrix_bitwise_equals_fail(self):
        bundle = make_corpus_bundle(
            CorpusConfig(
                n_languages=2,
                n_families=1,
                train_per_language=4,
                dev_per_language=2,
                test_per_language=2,
                durations=(3.0,),
                train_duration=10.0,
                seed=31,
            )
        )
        frontends = build_frontends(
            bundle,
            mode="acoustic",
            specs=(FrontendSpec("AC32", "gmm", 14, tau=0.5, base_error=0.1),),
            train_utterances=4,
            top_k=3,
            decode_dtype="float32",
        )
        matrices = {
            mode: PhonotacticSystem(
                bundle, frontends, SystemConfig(orders=(1, 2)), on_error=mode
            ).raw_matrix(frontends[0], "train")
            for mode in ("fail", "quarantine")
        }
        fail, quarantine = matrices["fail"], matrices["quarantine"]
        assert fail.indptr.tobytes() == quarantine.indptr.tobytes()
        assert fail.indices.tobytes() == quarantine.indices.tobytes()
        assert fail.values.tobytes() == quarantine.values.tobytes()
