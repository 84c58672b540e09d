"""Tests for the LDA-MMI fusion backend (Eqs. 14-15)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.fusion import (
    LdaMmiFusion,
    linear_fusion,
    stack_scores,
    subsystem_weights,
)
from repro.metrics.eer import eer_from_matrix


def synthetic_scores(rng, n=200, k=4, quality=2.0):
    """A subsystem's (scores, labels): target-class scores shifted up."""
    labels = rng.integers(0, k, size=n)
    scores = rng.normal(-1.0, 1.0, size=(n, k))
    scores[np.arange(n), labels] += quality
    return scores, labels


class TestLinearFusion:
    def test_weighted_sum_of_renormalised_weights(self, rng):
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        fused = linear_fusion([a, b], [3.0, 1.0])
        np.testing.assert_allclose(fused, 0.75 * a + 0.25 * b)

    def test_accumulates_in_subsystem_order(self, rng):
        mats = [rng.normal(size=(4, 2)) for _ in range(3)]
        weights = np.array([0.2, 0.5, 0.3])
        expected = np.zeros((4, 2))
        for w, s in zip(weights / weights.sum(), mats):
            expected += w * s
        assert np.array_equal(linear_fusion(mats, weights), expected)

    def test_zero_weights_fall_back_to_uniform(self, rng):
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            linear_fusion([a, b], [0.0, 0.0]), 0.5 * a + 0.5 * b
        )

    def test_weight_count_must_match(self, rng):
        with pytest.raises(ValueError):
            linear_fusion([rng.normal(size=(2, 2))], [0.5, 0.5])


class TestSubsystemWeights:
    def test_normalised(self):
        w = subsystem_weights([10, 30, 60])
        np.testing.assert_allclose(w, [0.1, 0.3, 0.6])

    def test_all_zero_uniform(self):
        np.testing.assert_allclose(subsystem_weights([0, 0]), [0.5, 0.5])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subsystem_weights([-1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subsystem_weights([])


class TestStackScores:
    def test_shapes_and_weighting(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        stacked = stack_scores([a, b], np.array([2.0, 0.5]))
        assert stacked.shape == (5, 6)
        np.testing.assert_allclose(stacked[:, :3], 2.0 * a)
        np.testing.assert_allclose(stacked[:, 3:], 0.5 * b)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            stack_scores([rng.normal(size=(5, 3)), rng.normal(size=(4, 3))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_scores([])


class TestLdaMmiFusion:
    def test_single_system_calibration_preserves_accuracy(self, rng):
        dev, ydev = synthetic_scores(rng)
        test, ytest = synthetic_scores(rng)
        fusion = LdaMmiFusion(use_lda=False)
        calibrated = fusion.fit_transform([dev], ydev, [test])
        raw_eer = eer_from_matrix(test, ytest)
        cal_eer = eer_from_matrix(calibrated, ytest)
        assert cal_eer <= raw_eer + 0.05

    def test_fusion_beats_single_systems(self, rng):
        ydev = rng.integers(0, 4, size=300)
        ytest = rng.integers(0, 4, size=300)

        def noisy_view(labels, quality):
            scores = rng.normal(-1.0, 1.0, size=(labels.size, 4))
            scores[np.arange(labels.size), labels] += quality
            return scores

        dev = [noisy_view(ydev, 1.5) for _ in range(3)]
        test = [noisy_view(ytest, 1.5) for _ in range(3)]
        fused = LdaMmiFusion(use_lda=False).fit_transform(dev, ydev, test)
        fused_eer = eer_from_matrix(fused, ytest)
        single_eers = [eer_from_matrix(t, ytest) for t in test]
        assert fused_eer < min(single_eers)

    def test_lda_variant_runs(self, rng):
        dev, ydev = synthetic_scores(rng)
        test, _ = synthetic_scores(rng)
        fusion = LdaMmiFusion(use_lda=True, mmi_iterations=5)
        out = fusion.fit_transform([dev], ydev, [test])
        assert out.shape == test.shape
        assert np.all(np.isfinite(out))

    def test_mmi_disabled(self, rng):
        dev, ydev = synthetic_scores(rng)
        test, _ = synthetic_scores(rng)
        out = LdaMmiFusion(use_lda=False, mmi_iterations=0).fit_transform(
            [dev], ydev, [test]
        )
        assert np.all(np.isfinite(out))

    def test_transform_before_fit_raises(self, rng):
        with pytest.raises(RuntimeError):
            LdaMmiFusion().transform([rng.normal(size=(3, 4))])

    def test_weights_used(self, rng):
        dev, ydev = synthetic_scores(rng)
        junk = rng.normal(size=dev.shape)
        test, ytest = synthetic_scores(rng)
        test_junk = rng.normal(size=test.shape)
        # Zero-ish weight on the junk subsystem should not hurt much.
        fusion = LdaMmiFusion(use_lda=False)
        out = fusion.fit_transform(
            [dev, junk], ydev, [test, test_junk],
            weights=np.array([0.99, 0.01]),
        )
        assert eer_from_matrix(out, ytest) < 0.2
