"""Persistence for experiment artifacts.

Long campaigns decode and extract supervectors once (the expensive φ(x)
work of Eqs. 16–19); these helpers let a run checkpoint that work to disk
and resume later, and let score matrices / results be exchanged between
processes:

- :func:`save_sparse` / :func:`load_sparse` — :class:`SparseMatrix` ↔ NPZ;
- :func:`save_scores` / :func:`load_scores` — named dense score matrices.

Resumable stage memoization (φ matrices and every later stage product)
lives in :class:`repro.exec.store.ArtifactStore`, built on these.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from repro.utils.sparse import SparseMatrix

__all__ = [
    "save_npz",
    "save_sparse",
    "load_sparse",
    "save_scores",
    "load_scores",
]


def save_npz(
    path: str | Path, arrays: dict[str, np.ndarray], *, compresslevel: int = 1
) -> None:
    """Write arrays to a standard ``.npz`` (readable by ``np.load``).

    Identical on-disk format to :func:`numpy.savez_compressed` except
    for the deflate level: numpy hardwires zlib level 6, which showed up
    as the single largest store-write cost in cold-campaign profiles.
    Level 1 compresses float payloads ~4-5x faster for a few percent of
    size — the right trade for a content-addressed cache that is written
    once per stage and usually read back via ``np.load`` anyway.
    ``compresslevel=0`` stores members uncompressed (``np.load`` reads
    either), which the artifact store uses: its payloads are re-hashed
    on every ``get``, so deflate would be paid on the hot path too.
    """
    path = Path(path)
    if path.suffix != ".npz":
        # Match numpy's savez behaviour so callers can pass bare names.
        path = path.with_name(path.name + ".npz")
    if compresslevel == 0:
        kwargs = {"compression": zipfile.ZIP_STORED}
    else:
        kwargs = {
            "compression": zipfile.ZIP_DEFLATED,
            "compresslevel": compresslevel,
        }
    with zipfile.ZipFile(path, "w", **kwargs) as zf:
        for name, arr in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(
                    f, np.asarray(arr), allow_pickle=False
                )


def save_sparse(
    path: str | Path, matrix: SparseMatrix, *, compresslevel: int = 1
) -> None:
    """Write a :class:`SparseMatrix` to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_npz(
        path,
        {
            "dim": np.int64(matrix.dim),
            "indptr": matrix.indptr,
            "indices": matrix.indices,
            "values": matrix.values,
        },
        compresslevel=compresslevel,
    )


def load_sparse(path: str | Path) -> SparseMatrix:
    """Read a :class:`SparseMatrix` written by :func:`save_sparse`."""
    with np.load(Path(path)) as data:
        return SparseMatrix(
            int(data["dim"]),
            data["indptr"],
            data["indices"],
            data["values"],
        )


def save_scores(path: str | Path, scores: dict[str, np.ndarray]) -> None:
    """Write named dense score matrices to an ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for name, matrix in scores.items():
        arr = np.asarray(matrix, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"score matrix {name!r} must be 2-D")
        arrays[name] = arr
    save_npz(path, arrays)


def load_scores(path: str | Path) -> dict[str, np.ndarray]:
    """Read named score matrices written by :func:`save_scores`."""
    with np.load(Path(path)) as data:
        return {name: data[name].copy() for name in data.files}
