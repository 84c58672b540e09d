"""Tests for artifact persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.io import (
    load_scores,
    load_sparse,
    save_scores,
    save_sparse,
)
from repro.utils.sparse import SparseMatrix, SparseVector


def sample_matrix() -> SparseMatrix:
    rows = [
        SparseVector.from_dict(10, {1: 2.0, 7: -1.5}),
        SparseVector.from_dict(10, {}),
        SparseVector.from_dict(10, {0: 0.25, 9: 4.0}),
    ]
    return SparseMatrix.from_rows(rows)


class TestSparseRoundtrip:
    def test_roundtrip(self, tmp_path):
        m = sample_matrix()
        save_sparse(tmp_path / "m.npz", m)
        loaded = load_sparse(tmp_path / "m.npz")
        assert loaded.dim == m.dim
        np.testing.assert_array_equal(loaded.indptr, m.indptr)
        np.testing.assert_allclose(loaded.to_dense(), m.to_dense())

    def test_creates_parent_dirs(self, tmp_path):
        save_sparse(tmp_path / "a" / "b" / "m.npz", sample_matrix())
        assert (tmp_path / "a" / "b" / "m.npz").exists()

    def test_empty_matrix(self, tmp_path):
        m = SparseMatrix.from_rows([], dim=5)
        save_sparse(tmp_path / "e.npz", m)
        loaded = load_sparse(tmp_path / "e.npz")
        assert loaded.n_rows == 0 and loaded.dim == 5


class TestScoresRoundtrip:
    def test_roundtrip(self, tmp_path, rng):
        scores = {"dev": rng.normal(size=(4, 3)), "test": rng.normal(size=(6, 3))}
        save_scores(tmp_path / "s.npz", scores)
        loaded = load_scores(tmp_path / "s.npz")
        assert set(loaded) == {"dev", "test"}
        np.testing.assert_allclose(loaded["dev"], scores["dev"])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_scores(tmp_path / "s.npz", {"bad": np.zeros(3)})
