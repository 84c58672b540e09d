"""Score calibration and fusion: LDA, Gaussian backend, MMI (Eq. 14-15)."""

from repro.backend.fusion import (
    LdaMmiFusion,
    linear_fusion,
    stack_scores,
    subsystem_weights,
)
from repro.backend.gaussian import GaussianBackend
from repro.backend.lda import LDA
from repro.backend.logistic import LogisticFusion
from repro.backend.mmi import MMITrainer
from repro.backend.norm import ZNorm

__all__ = [
    "LdaMmiFusion",
    "linear_fusion",
    "stack_scores",
    "subsystem_weights",
    "GaussianBackend",
    "LDA",
    "LogisticFusion",
    "MMITrainer",
    "ZNorm",
]
