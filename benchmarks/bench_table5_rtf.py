"""Table 5 — real-time factors per pipeline stage, PPRVSM vs DBA (§5.5).

The paper reports seconds-of-compute per second-of-speech for decoding,
supervector generation and supervector product on the HU frontend's 30 s
test, and argues (Eqs. 16–19) that DBA's extra modeling/scoring passes are
negligible against decoding, so C_DBA / C_baseline ≈ 1.

This bench times the three stages with pytest-benchmark on a fixed
utterance batch, decoded by the production ``decode_batch`` path, and
prints the Table 5 layout.  The Eq. 18 ratio is then read off the
pipeline's own spans (:func:`repro.obs.runlog.aggregate_stages`) in one
traced pass on a fresh system: the baseline, then one DBA-M2 retrain at
the loosest vote threshold (the largest retraining set of the sweep).

- φ: the ``decoding`` + ``sv_generation`` spans — train, dev and every
  test duration, decoded once and shared by both systems;
- modeling: the ``svm_training`` spans of the baseline, plus for DBA
  those of the DBA pass;
- test: the ``sv_product`` spans of the baseline, plus for DBA those of
  the DBA pass.

Absolute values depend on the host and the reduced frame rate; the
*relative* structure is the claim.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import build_system
from repro.obs import trace
from repro.obs.runlog import aggregate_stages
from repro.svm.vsm import VSM
from repro.utils.rng import child_rng
from repro.utils.timing import CostLedger


def decode(frontend, batch, seed: int):
    """The production batched decode, one RNG stream per utterance."""
    rngs = [child_rng(seed, u.utt_id) for u in batch]
    return frontend.decode_batch(batch, rngs)


@pytest.fixture(scope="module")
def hu_setup(lab):
    """HU frontend + its longest-duration test corpus and artifacts."""
    frontend = next(fe for fe in lab.system.frontends if fe.name == "HU")
    duration = max(lab.durations)
    corpus = lab.system.corpus_for(f"test@{duration}")
    batch = corpus.utterances[: min(24, len(corpus))]
    audio = sum(u.duration for u in batch)
    sausages = decode(frontend, batch, 1)
    vsm = VSM(
        len(frontend.phone_set),
        len(lab.system.bundle.registry),
        orders=lab.system.system.orders,
    )
    raw = vsm.extract(sausages)
    vsm.fit_matrix(raw, np.arange(raw.n_rows) % len(lab.system.bundle.registry))
    return frontend, batch, audio, sausages, vsm, raw


def test_table5_decoding_rtf(hu_setup, benchmark):
    frontend, batch, audio, _, _, _ = hu_setup
    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(
        lambda: decode(frontend, batch, 2), rounds=3, iterations=1
    )


def test_table5_sv_generation_rtf(hu_setup, benchmark):
    _, _, audio, sausages, vsm, _ = hu_setup
    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(
        lambda: vsm.extract(sausages), rounds=3, iterations=1
    )


def test_table5_sv_product_rtf(hu_setup, benchmark):
    _, _, audio, _, vsm, raw = hu_setup
    benchmark.extra_info["audio_seconds"] = audio
    benchmark.pedantic(lambda: vsm.score_matrix(raw), rounds=5, iterations=1)


def timed(fn, *args):
    """``(result, wall seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def traced(fn, *args):
    """``(result, span roll-up keyed by stage name)`` of one traced call."""
    trace.start_trace("eq18")
    try:
        result = fn(*args)
    finally:
        root = trace.stop_trace()
    return result, aggregate_stages([sp.to_record() for sp in root.walk()][1:])


def wall(stages: dict, *names: str) -> float:
    """Summed wall seconds of the named stages (0 for absent ones)."""
    return sum(stages.get(name, {}).get("wall_s", 0.0) for name in names)


def test_table5_report_and_eq19_ratio(lab, hu_setup, report, benchmark):
    """Assemble Table 5 from one timed pass and check Eq. 19."""
    frontend, batch, audio, sausages, vsm, raw = hu_setup

    def stage_times():
        decoded, decode_s = timed(decode, frontend, batch, 3)
        extracted, svgen_s = timed(vsm.extract, decoded)
        _, svprod_s = timed(vsm.score_matrix, extracted)
        return decode_s, svgen_s, svprod_s

    decode_s, svgen_s, svprod_s = benchmark.pedantic(
        stage_times, rounds=1, iterations=1
    )
    rtf = {
        "decoding": decode_s / audio,
        "sv_gen": svgen_s / audio,
        "sv_prod": svprod_s / audio,
    }
    # DBA repeats SV product (two scoring passes) and adds a second
    # modeling pass; its phi work is identical (Eq. 16 vs 17).
    lines = [
        f"{'System':<8}{'Decoding':>12}{'SV gen.':>12}{'SV prod.':>12}",
        f"{'PPRVSM':<8}{rtf['decoding']:>12.2e}{rtf['sv_gen']:>12.2e}"
        f"{rtf['sv_prod']:>12.2e}",
        f"{'DBA':<8}{rtf['decoding']:>12.2e}{2 * rtf['sv_gen']:>12.2e}"
        f"{2 * rtf['sv_prod']:>12.2e}",
    ]

    # Eq. 18/19 from the spans of one baseline + one DBA-M2 pass.
    system = build_system(lab.config)
    threshold = min(lab.thresholds)
    baseline, base_stages = traced(system.baseline)
    _, dba_stages = traced(system.dba, threshold, "M2", baseline)
    phi = wall(base_stages, "decoding", "sv_generation")
    fit_base = wall(base_stages, "svm_training")
    fit_dba = wall(dba_stages, "svm_training")
    score_base = wall(base_stages, "sv_product")
    score_dba = wall(dba_stages, "sv_product")
    base = CostLedger(phi=phi, modeling=fit_base, test=score_base)
    dba = CostLedger(
        phi=phi, modeling=fit_base + fit_dba, test=score_base + score_dba
    )
    ratio = dba.ratio_to(base)
    lines += [
        "",
        f"All subsystems, seconds: phi {phi:.3f} (train + dev + test), "
        f"modeling {fit_base:.3f} baseline + {fit_dba:.3f} DBA-M2 "
        f"V={threshold}, test {score_base:.3f} + {score_dba:.3f}",
        f"C_DBA / C_baseline (Eq. 18, measured) = {ratio:.3f}",
    ]
    report("table5_rtf", "\n".join(lines))

    # Paper shape: decoding dominates; the ratio is ~1.
    assert rtf["decoding"] > rtf["sv_prod"]
    assert ratio < 1.25
