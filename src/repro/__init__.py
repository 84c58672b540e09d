"""repro: reproduction of Liu et al. (2015), "Discriminative Boosting
Algorithm for Diversified Front-End Phonotactic Language Recognition",
Journal of Signal Processing Systems 80(3).

The package layers:

- :mod:`repro.corpus`    synthetic multilingual corpus (NIST LRE 2009 stand-in)
- :mod:`repro.frontend`  phone recognizers (GMM/ANN/DNN-HMM + confusion channel)
- :mod:`repro.ngram`     expected n-gram counts, supervectors, TFLLR
- :mod:`repro.svm`       LIBLINEAR-style linear SVM / one-vs-rest / VSM
- :mod:`repro.backend`   LDA-MMI calibration and fusion
- :mod:`repro.metrics`   EER, NIST C_avg, DET curves
- :mod:`repro.core`      the Discriminative Boosting Algorithm and pipelines
- :mod:`repro.serve`     persisted-model online scoring service (export/serve)
- :mod:`repro.obs`       tracing spans, metrics registry, runlog manifests

Quickstart::

    from repro.core import build_system, smoke_scale
    system = build_system(smoke_scale())
    base = system.baseline()
    boosted = system.dba(threshold=3, variant="M2", baseline=base)
    print(system.frontend_metrics(boosted, 10.0))
"""

from repro.core import (
    ExperimentConfig,
    PhonotacticSystem,
    SystemConfig,
    bench_scale,
    build_system,
    smoke_scale,
)

__version__ = "1.11.0"

__all__ = [
    "ExperimentConfig",
    "PhonotacticSystem",
    "SystemConfig",
    "bench_scale",
    "build_system",
    "smoke_scale",
    "__version__",
]
