"""The Gram-space solver against the per-row primal oracle.

Both trainers visit the same coordinates in the same order with the same
projected-gradient test, box clip and stopping rule; only the margin
arithmetic differs (one dense dot against ``Q[i]`` instead of a sparse
gather from the running ``w``).  So the epoch counts must be identical and
the weights equal to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import smoke_scale
from repro.core.pipeline import build_system
from repro.ngram.supervector import TFLLRScaler
from repro.svm.linear import LinearSVC
from repro.svm.ovr import OneVsRestSVM
from repro.utils.sparse import SparseMatrix, SparseVector
from tests.svm.primal_oracle import primal_dual_cd

#: Relative agreement required of weights and bias (float64 rounding).
RTOL = 1e-12


def to_sparse(x: np.ndarray) -> SparseMatrix:
    rows = []
    for row in x:
        idx = np.flatnonzero(row)
        rows.append(SparseVector(x.shape[1], idx.astype(np.int64), row[idx]))
    return SparseMatrix.from_rows(rows, dim=x.shape[1])


def assert_matches_oracle(x: SparseMatrix, y: np.ndarray, **params) -> None:
    svc = LinearSVC(**params).fit(x, y)
    w, b, alpha, n_epochs = primal_dual_cd(x, y, **params)
    assert svc.n_epochs_ == n_epochs
    scale = max(float(np.abs(w).max(initial=0.0)), abs(b))
    np.testing.assert_allclose(svc.weight_, w, rtol=0.0, atol=RTOL * scale)
    assert abs(svc.bias_ - b) <= RTOL * scale
    np.testing.assert_allclose(
        svc.alpha_, alpha, rtol=0.0, atol=RTOL * max(alpha.max(), 1.0)
    )


@st.composite
def sparse_problems(draw):
    """Random sparse rows with continuous values (ties have measure zero)."""
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 60))
    density = draw(st.floats(0.05, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < density)
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    return to_sparse(dense), y


class TestAgainstPrimalOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        problem=sparse_problems(),
        loss=st.sampled_from(["l1", "l2"]),
        bias_scale=st.sampled_from([0.0, 1.0]),
        C=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 1000),
    )
    def test_random_sparse_problems(self, problem, loss, bias_scale, C, seed):
        x, y = problem
        assert_matches_oracle(
            x,
            y,
            C=C,
            loss=loss,
            bias_scale=bias_scale,
            max_epochs=30,
            tol=1e-3,
            seed=seed,
        )

    def test_smoke_scale_training_set(self):
        """One frontend's TFLLR-scaled smoke-scale training supervectors."""
        config = smoke_scale(2009)
        system = build_system(config)
        frontend = system.frontends[0]
        x = TFLLRScaler().fit_transform(system.raw_matrix(frontend, "train"))
        labels = system.labels_for("train")
        for k in range(system.n_classes):
            assert_matches_oracle(
                x,
                np.where(labels == k, 1.0, -1.0),
                max_epochs=config.system.svm_max_epochs,
                tol=config.system.svm_tol,
                seed=config.system.seed + k,
            )


class TestOneKernelForAllClasses:
    def test_ovr_equals_independent_binary_fits_bitwise(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(90, 25)) * (rng.random((90, 25)) < 0.3)
        x = to_sparse(dense)
        labels = rng.integers(0, 4, size=90)
        ovr = OneVsRestSVM(4, C=2.0, max_epochs=25, seed=9).fit(x, labels)
        for k, model in enumerate(ovr.models_):
            solo = LinearSVC(2.0, max_epochs=25, seed=9 + k).fit(
                x, np.where(labels == k, 1.0, -1.0)
            )
            assert model.n_epochs_ == solo.n_epochs_
            assert np.array_equal(model.alpha_, solo.alpha_)
            assert np.array_equal(model.weight_, solo.weight_)
            assert model.bias_ == solo.bias_

    def test_kernel_shape_checked(self):
        x = to_sparse(np.eye(3))
        y = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            LinearSVC().fit_gram(x, np.zeros((2, 2)), y)
