"""Reference implementations of the φ chain, for bitwise oracle tests.

The vectorized production φ path (expected counts → supervector →
TFLLR) replaced these loops and dense scalings; they stay here as the
oracles the fast path must equal bitwise in float64:

- :func:`expected_counts_sausage_reference` — the per-window
  outer-product loop behind :func:`repro.ngram.counts.expected_count_arrays`;
- :func:`extract_reference` — the dict-based
  :meth:`~repro.ngram.supervector.SupervectorExtractor.extract`;
- :func:`tfllr_fit_reference` / :func:`tfllr_transform_reference` — the
  dense-vector :class:`~repro.ngram.supervector.TFLLRScaler` fit and
  transform.

:func:`install_phi_oracles` patches all of them, plus the per-slot
confusion decode of :mod:`tests.frontend.decode_oracle`, over the
production entry points — the seed φ path, end to end.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.confusion import ConfusionChannelRecognizer
from repro.frontend.lattice import Sausage
from repro.ngram.supervector import (
    _EXTRACTED,
    _NNZ,
    SupervectorExtractor,
    TFLLRScaler,
)
from repro.utils.sparse import SparseMatrix, SparseVector
from repro.utils.validation import check_positive
from tests.frontend.decode_oracle import confusion_decode_batch_reference

__all__ = [
    "expected_counts_sausage_reference",
    "extract_reference",
    "install_phi_oracles",
    "tfllr_fit_reference",
    "tfllr_transform_reference",
]


def expected_counts_sausage_reference(
    sausage: Sausage, order: int
) -> dict[int, float]:
    """The original per-window outer-product loop (bitwise oracle)."""
    check_positive("order", order)
    n_phones = len(sausage.phone_set)
    slots = sausage.slots
    t = len(slots)
    if t < order:
        return {}
    all_codes: list[np.ndarray] = []
    all_probs: list[np.ndarray] = []
    for i in range(t - order + 1):
        # Outer product over the window's alternatives: codes and probs.
        codes = slots[i].phones.astype(np.int64)
        probs = slots[i].probs
        for j in range(1, order):
            nxt = slots[i + j]
            codes = (codes[:, None] * n_phones + nxt.phones[None, :]).ravel()
            probs = (probs[:, None] * nxt.probs[None, :]).ravel()
        all_codes.append(codes)
        all_probs.append(probs)
    # One aggregation pass over all windows (much cheaper than per-item
    # dict updates at top_k^order entries per window).
    codes = np.concatenate(all_codes)
    probs = np.concatenate(all_probs)
    uniq, inverse = np.unique(codes, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(sums, inverse, probs)
    return dict(zip(uniq.tolist(), sums.tolist()))


def extract_reference(
    extractor: SupervectorExtractor, sausage: Sausage
) -> SparseVector:
    """The original dict-based extraction (bitwise oracle)."""
    if len(sausage.phone_set) != extractor.layout.n_phones:
        raise ValueError(
            "sausage phone set does not match extractor inventory"
        )
    items: dict[int, float] = {}
    for order, offset in zip(extractor.layout.orders, extractor.layout.offsets):
        counts = expected_counts_sausage_reference(sausage, order)
        total = sum(counts.values())
        if total <= 0.0:
            continue
        inv_total = 1.0 / total
        for code, value in counts.items():
            items[offset + code] = value * inv_total
    _EXTRACTED.inc()
    _NNZ.observe(float(len(items)))
    return SparseVector.from_dict(extractor.layout.dim, items)


def tfllr_fit_reference(
    scaler: TFLLRScaler, train: SparseMatrix
) -> TFLLRScaler:
    """Dense-vector TFLLR fit: ``column_sums`` over all ``dim`` columns."""
    if train.n_rows == 0:
        raise ValueError("cannot fit TFLLR scaling on an empty matrix")
    p_all = train.column_sums() / train.n_rows
    scaler.scale_ = 1.0 / np.sqrt(np.maximum(p_all, scaler.min_prob))
    return scaler


def tfllr_transform_reference(
    scaler: TFLLRScaler, x: SparseMatrix
) -> SparseMatrix:
    """Dense-vector TFLLR transform: one ``scale_columns`` by ``scale_``."""
    if not scaler.is_fitted:
        raise RuntimeError("TFLLRScaler is not fitted")
    if x.dim != scaler.dim_:
        raise ValueError("dimension mismatch with fitted scaling")
    return x.scale_columns(scaler.scale_)


def install_phi_oracles(monkeypatch) -> None:
    """Run the whole φ chain through the reference implementations.

    Patches the confusion decode, supervector extraction and TFLLR
    fit/transform on their classes for the duration of ``monkeypatch``.
    """
    monkeypatch.setattr(
        ConfusionChannelRecognizer,
        "decode_batch",
        confusion_decode_batch_reference,
    )
    monkeypatch.setattr(SupervectorExtractor, "extract", extract_reference)
    monkeypatch.setattr(TFLLRScaler, "fit", tfllr_fit_reference)
    monkeypatch.setattr(TFLLRScaler, "transform", tfllr_transform_reference)
