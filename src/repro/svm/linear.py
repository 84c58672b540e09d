r"""L2-regularized linear SVM trained by dual coordinate descent.

This is the algorithm inside LIBLINEAR (Hsieh et al., *A Dual Coordinate
Descent Method for Large-scale Linear SVM*, ICML 2008), which the paper
uses as its VSM classifier (§4.1).  The primal problem

.. math::  \min_w \tfrac12 w^T w + C \sum_i \xi(w; x_i, y_i)

with hinge (L1) or squared-hinge (L2) loss is solved in the dual by
coordinate-wise Newton steps over the α's.

The solver works in Gram space.  The kernel matrix
:math:`Q = X X^T + b^2` of the bias-augmented rows (``b`` =
``bias_scale``, LIBLINEAR's constant extra component) is built once per
training set — with BLAS, see :meth:`SparseMatrix.gram` — and each
coordinate step reads its margin :math:`w \cdot x_i + b\,w_b` as one
dense dot ``Q[i] @ (α∘y)``.  The primal weights are recovered at the end
as :math:`w = X^T(α∘y)`.  ``Q`` depends on the rows only, never on the
labels, so :class:`~repro.svm.ovr.OneVsRestSVM` builds it once and runs
all K binary problems on it.  The price is memory: the dense ``n × n``
float64 ``Q`` takes 0.6 MB at n = 270 (smoke scale) and 35 MB at
n = 2 101, the largest bench-scale training set.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.sparse import SparseMatrix
from repro.utils.validation import check_in, check_positive

__all__ = ["SOLVER", "LinearSVC"]

#: Identity of the training arithmetic.  Models fitted by another solver
#: may differ in the last bits, so this enters every store key downstream
#: of SVM training and a store never answers with another solver's product.
SOLVER = "dcd-gram-1"


def _dual_coordinate_descent(
    q: np.ndarray,
    y: np.ndarray,
    *,
    C: float,
    loss: str,
    max_epochs: int,
    tol: float,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Solve the binary SVM dual over the kernel matrix ``q``.

    ``q`` is :math:`X X^T + b^2` (see :meth:`LinearSVC.fit_gram`) and ``y``
    the ±1 labels.  Each epoch visits every coordinate once, in the order
    of ``ensure_rng(seed).permutation``; the run stops after the first
    epoch whose largest projected-gradient violation is below ``tol``.
    Returns the dual solution α and the number of epochs run.
    """
    n = y.shape[0]
    rng = ensure_rng(seed)
    # L2 loss turns the box constraint into [0, inf) with a diagonal
    # D_ii = 1/(2C) added to Q.
    if loss == "l1":
        upper = C
        diag_add = 0.0
    else:
        upper = np.inf
        diag_add = 1.0 / (2.0 * C)
    # The max guards all-zero rows (empty supervectors) without a bias.
    q_ii = np.maximum(np.diagonal(q) + diag_add, 1e-12).tolist()
    q_rows = list(q)
    # Scalar state lives in python floats and lists: extracting numpy 0-d
    # scalars every step costs more than the arithmetic they feed.
    y_list = y.tolist()
    alpha = [0.0] * n
    alpha_y = np.zeros(n)
    n_epochs = 0
    for epoch in range(max_epochs):
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            a_i = alpha[i]
            y_i = y_list[i]
            grad = y_i * float(q_rows[i].dot(alpha_y)) - 1.0 + diag_add * a_i
            # Projected gradient for the box constraint.
            if a_i <= 0.0:
                pg = grad if grad < 0.0 else 0.0
            elif a_i >= upper:
                pg = grad if grad > 0.0 else 0.0
            else:
                pg = grad
            if pg != 0.0:
                if abs(pg) > max_violation:
                    max_violation = abs(pg)
                new_alpha = a_i - grad / q_ii[i]
                if new_alpha < 0.0:
                    new_alpha = 0.0
                elif new_alpha > upper:
                    new_alpha = upper
                if new_alpha != a_i:
                    alpha[i] = new_alpha
                    alpha_y[i] = new_alpha * y_i
        n_epochs = epoch + 1
        if max_violation < tol:
            break
    return np.asarray(alpha), n_epochs


class LinearSVC:
    """Binary linear SVM (dual coordinate descent).

    Parameters
    ----------
    C:
        Inverse regularisation strength.
    loss:
        ``"l1"`` (hinge, the paper's setting) or ``"l2"`` (squared hinge).
    max_epochs:
        Maximum passes over the training set.
    tol:
        Stop when the maximal projected-gradient violation in an epoch
        falls below this.
    bias_scale:
        Value of the augmented bias component; 0 disables the bias.
    """

    def __init__(
        self,
        C: float = 1.0,
        *,
        loss: str = "l1",
        max_epochs: int = 60,
        tol: float = 1e-3,
        bias_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        check_positive("C", C)
        check_in("loss", loss, ["l1", "l2"])
        check_positive("max_epochs", max_epochs)
        check_positive("tol", tol)
        self.C = float(C)
        self.loss = loss
        self.max_epochs = int(max_epochs)
        self.tol = float(tol)
        self.bias_scale = float(bias_scale)
        self.seed = seed
        self.weight_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.alpha_: np.ndarray | None = None
        self.n_epochs_: int = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, x: SparseMatrix, y: np.ndarray) -> "LinearSVC":
        """Fit on sparse rows ``x`` with labels ``y`` in {-1, +1}."""
        q = x.gram()
        q += self.bias_scale**2
        return self.fit_gram(x, q, y)

    def fit_gram(
        self, x: SparseMatrix, q: np.ndarray, y: np.ndarray
    ) -> "LinearSVC":
        """Fit like :meth:`fit`, on a prebuilt ``q = X Xᵀ + bias_scale²``.

        Lets several binary problems over the same rows (one-vs-rest)
        share one ``q``.
        """
        y = np.asarray(y, dtype=np.float64)
        n = x.n_rows
        if y.shape != (n,):
            raise ValueError("y must have one label per row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if n == 0:
            raise ValueError("cannot fit on an empty training set")
        if q.shape != (n, n):
            raise ValueError("kernel matrix must be (n_rows, n_rows)")
        alpha, self.n_epochs_ = _dual_coordinate_descent(
            q,
            y,
            C=self.C,
            loss=self.loss,
            max_epochs=self.max_epochs,
            tol=self.tol,
            seed=self.seed,
        )
        alpha_y = alpha * y
        self.weight_ = x.rmatvec_dense(alpha_y)
        self.bias_ = self.bias_scale**2 * float(alpha_y.sum())
        self.alpha_ = alpha
        return self

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def decision_function(self, x: SparseMatrix) -> np.ndarray:
        """Signed distances ``w·x + b`` for every row (paper Eq. 4)."""
        if self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        if x.dim != self.weight_.shape[0]:
            raise ValueError("dimension mismatch with fitted model")
        return x.matvec_dense(self.weight_) + self.bias_

    def predict(self, x: SparseMatrix) -> np.ndarray:
        """Hard ±1 decisions."""
        return np.where(self.decision_function(x) >= 0.0, 1, -1)

    def dual_objective(self, x: SparseMatrix, y: np.ndarray) -> float:
        """Dual objective value (for optimisation tests)."""
        if self.alpha_ is None or self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        w_norm_sq = float(self.weight_ @ self.weight_) + (
            (self.bias_ / self.bias_scale) ** 2 if self.bias_scale else 0.0
        )
        diag_add = 0.0 if self.loss == "l1" else 1.0 / (2.0 * self.C)
        return (
            0.5 * w_norm_sq
            + 0.5 * diag_add * float(self.alpha_ @ self.alpha_)
            - float(self.alpha_.sum())
        )

    def primal_objective(self, x: SparseMatrix, y: np.ndarray) -> float:
        """Primal objective value (for duality-gap tests)."""
        if self.weight_ is None:
            raise RuntimeError("SVM is not fitted")
        margins = 1.0 - np.asarray(y) * self.decision_function(x)
        hinge = np.maximum(margins, 0.0)
        loss = hinge.sum() if self.loss == "l1" else float(hinge @ hinge)
        w_norm_sq = float(self.weight_ @ self.weight_) + (
            (self.bias_ / self.bias_scale) ** 2 if self.bias_scale else 0.0
        )
        return 0.5 * w_norm_sq + self.C * float(loss)
