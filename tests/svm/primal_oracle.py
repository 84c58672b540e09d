"""Reference trainer: dual coordinate descent over sparse rows in primal form.

This is the per-row loop :class:`repro.svm.linear.LinearSVC` ran before it
moved to Gram space.  It keeps ``w = Σ α_i y_i x_i`` up to date after every
step and reads each margin by gathering the row's nonzeros from ``w``.  It
visits the same coordinates in the same order, with the same projected
gradient, box clip and stopping rule, so the two trainers must agree on
the epoch count exactly and on the weights to rounding.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.sparse import SparseMatrix


def primal_dual_cd(
    x: SparseMatrix,
    y: np.ndarray,
    *,
    C: float = 1.0,
    loss: str = "l1",
    max_epochs: int = 60,
    tol: float = 1e-3,
    bias_scale: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Return ``(weight, bias, alpha, n_epochs)`` of the binary problem."""
    y = np.asarray(y, dtype=np.float64)
    n = x.n_rows
    rng = ensure_rng(seed)
    if loss == "l1":
        upper = C
        diag_add = 0.0
    else:
        upper = np.inf
        diag_add = 1.0 / (2.0 * C)
    q_diag = np.maximum(x.row_norms() ** 2 + bias_scale**2 + diag_add, 1e-12)

    w = np.zeros(x.dim)
    b = 0.0
    indptr, xi, xv = x.indptr, x.indices, x.values
    row_idx = [xi[indptr[i] : indptr[i + 1]] for i in range(n)]
    row_val = [xv[indptr[i] : indptr[i + 1]] for i in range(n)]
    y_list = y.tolist()
    q_list = q_diag.tolist()
    alpha = [0.0] * n
    n_epochs = 0
    for epoch in range(max_epochs):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            idx = row_idx[i]
            val = row_val[i]
            y_i = y_list[i]
            a_i = alpha[i]
            margin = float(w[idx] @ val) + bias_scale * b
            grad = y_i * margin - 1.0 + diag_add * a_i
            if a_i <= 0.0:
                pg = min(grad, 0.0)
            elif a_i >= upper:
                pg = max(grad, 0.0)
            else:
                pg = grad
            if pg != 0.0:
                max_violation = max(max_violation, abs(pg))
                new_alpha = min(max(a_i - grad / q_list[i], 0.0), upper)
                delta = (new_alpha - a_i) * y_i
                if delta != 0.0:
                    w[idx] += delta * val
                    b += delta * bias_scale
                    alpha[i] = new_alpha
        n_epochs = epoch + 1
        if max_violation < tol:
            break
    return w, b * bias_scale, np.asarray(alpha), n_epochs
