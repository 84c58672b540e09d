"""The repository benchmark: one command, three workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 2009 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-check              # metric names + count determinism

Workloads (each draws its inputs from ``--seed``; the program only sees
the generated config and requests):

``campaign``
    ``build_system(smoke_scale(seed), store=<empty dir>)`` then
    ``run_campaign`` in a fresh process (cold phase), then fresh processes
    that resume the same campaign against the now-full store (warm phase).
``serve_fresh``
    Open-loop ``POST /score`` against ``python -m repro serve``; every
    request carries 1-4 never-seen utterances of 3, 10 or 30 s, so every
    utterance misses the engine's score cache.
``serve_repeat``
    The same server; one utterance per request, four in five repeating a
    64-utterance working set, so most requests are cache hits.

With ``--trace 0`` the last output line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` a separate run measures the
per-layer metrics (see ``perfbench/README.md`` for every definition).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Seed used when none is given, and a second seed held out for
#: rechecking claims on inputs not used while writing a change.
DEFAULT_SEED = 2009
HELDOUT_SEED = 4242

WORKLOADS = ("campaign", "serve_fresh", "serve_repeat")

#: Warm phase of a campaign cycle: fresh processes, and resumes in each
#: (every resume on a freshly built system).
WARM_PROCESSES, WARM_RESUMES = 2, 18
#: Rough length of one campaign cycle; ``--seconds`` buys whole cycles.
CAMPAIGN_CYCLE_S = 25.0
#: Server spawns per serve run; the last one carries the load.
SERVER_SPAWNS = 3
#: Load-generator threads, one keep-alive connection each.
CONNECTIONS = 2

#: Serve loads.  ``low`` and ``high`` are open-loop rates (req/s) that
#: today's code sustains; the saturation step sends
#: ``saturation_per_s * SATURATION_SHARE * seconds`` requests closed-loop
#: (every connection busy).  ``p95_limit_ms`` bounds a passing step.
LOADS = {
    "serve_fresh": {"low": 5.0, "high": 8.0, "saturation_per_s": 20.0, "p95_limit_ms": 500.0},
    "serve_repeat": {"low": 10.0, "high": 20.0, "saturation_per_s": 30.0, "p95_limit_ms": 250.0},
}
#: Shares of ``--seconds`` spent at ``low``, ``high`` and saturation,
#: split over ``ROUNDS`` interleaved rounds.
LOW_SHARE, HIGH_SHARE, SATURATION_SHARE = 0.5, 0.2, 0.3
ROUNDS = 8
#: The traced run's open-loop ladder above ``high``: the rate grows by
#: ``LADDER_RATIO`` per step of ``LADDER_SHARE * seconds`` until a step
#: misses the p95 limit, has a failure or shows a growing backlog.
LADDER_RATIO, LADDER_STEPS, LADDER_SHARE = 1.25, 12, 0.1
#: A step whose last third of requests left this much later than its
#: first third (median lateness) has a growing backlog.
BACKLOG_GROWTH_LIMIT_MS = 50.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "light_ms": "ms",
    "heavy_ms": "ms",
    "capacity_per_s": "1/s",
}

CAMPAIGN_LAYERS = {
    "corpus.bundle_s": "s",
    "frontend.build_s": "s",
    "frontend.decode_s": "s",
    "frontend.decode_utts": "count",
    "frontend.decode_rtf": "ratio",
    "ngram.extract_s": "s",
    "ngram.tfllr_s": "s",
    "svm.fit_s": "s",
    "svm.fits": "count",
    "svm.epochs": "count",
    "svm.score_s": "s",
    "backend.fusion_fit_s": "s",
    "backend.fusion_fits": "count",
    "core.baseline_s": "s",
    "core.dba_pass_s": "s",
    "core.eq19_ratio": "ratio",
    "core.vote_s": "s",
    "metrics.eval_s": "s",
    "exec.put_s": "s",
    "exec.puts": "count",
    "exec.store_mb": "MB",
    "exec.get_s": "s",
    "exec.gets": "count",
    "exec.hit_ratio": "ratio",
    "campaign.unattributed_s": "s",
    "warm.frontend.decode_utts": "count",
    "warm.svm.fits": "count",
    "warm.exec.get_s": "s",
    "warm.exec.gets": "count",
    "warm.exec.hit_ratio": "ratio",
    "warm.metrics.eval_s": "s",
    "warm.campaign.unattributed_s": "s",
    "quality.dba_fused_eer_pct": "%",
    "quality.dba_fused_cavg_pct": "%",
    "trace.overhead_pct": "%",
}
SERVE_LAYERS = {
    "load.sent": "count",
    "load.failed": "count",
    "load.late_p95_ms": "ms",
    "load.low_p95_ms": "ms",
    "load.high_p50_ms": "ms",
    "load.high_p95_ms": "ms",
    "load.saturation_p95_ms": "ms",
    "load.max_rate_rps": "1/s",
    "serve.engine_p50_ms": "ms",
    "serve.engine_p95_ms": "ms",
    "serve.http_gap_p50_ms": "ms",
    "serve.batch_mean": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.decoding_s": "s",
    "serve.sv_generation_s": "s",
    "serve.sv_product_s": "s",
    "serve.fusion_s": "s",
    "serve.rejected": "count",
    "serve.expired": "count",
    "server.cpu_s": "s",
}
PER_LAYER = {**CAMPAIGN_LAYERS, **SERVE_LAYERS}

#: Counts that must repeat exactly across two traced runs of one seed.
DETERMINISTIC_COUNTS = (
    "svm.fits",
    "svm.epochs",
    "frontend.decode_utts",
    "exec.puts",
    "exec.gets",
)


@dataclass
class Outcome:
    """Everything one workload run measured."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# run context
# ----------------------------------------------------------------------
def run_context(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine and run context recorded with every result."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    from serving import source_digest

    context = {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "scale": "smoke",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_rev": rev,
        "src_sha256": source_digest(),
    }
    if workload in LOADS:
        context["loads"] = LOADS[workload]
        context["ladder"] = ladder_rates(workload)
        context["connections"] = CONNECTIONS
    return context


def comparability_notes(workload: str) -> list[str]:
    """Why a result from this machine is not comparable, if it is not."""
    cores = os.cpu_count() or 1
    needed = CONNECTIONS if workload in LOADS else 1
    if cores < needed:
        return [
            f"NOT COMPARABLE: {cores} core(s) < {needed} load-generator "
            f"threads/connections of {workload}"
        ]
    return []


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _phase(seed: int, store: Path, tag: str, trace: bool, resumes: int = 1) -> dict:
    """Run one campaign phase in a fresh process; returns its result."""
    from serving import program_env

    out = WORK / f"{tag}.json"
    spans = WORK / f"{tag}.spans.json"
    cmd = [
        sys.executable,
        str(HERE / "campaign_phase.py"),
        "--seed", str(seed),
        "--store", str(store),
        "--out", str(out),
        "--resumes", str(resumes),
    ]
    if trace:
        cmd += ["--trace", str(spans)]
    spawned = time.monotonic()
    subprocess.run(cmd, cwd=ROOT, env=program_env(), check=True, timeout=170)
    result = json.loads(out.read_text())
    out.unlink()
    result["setup_s"] = result["ready_monotonic"] - spawned
    if trace:
        result["spans"] = json.loads(spans.read_text())
        spans.unlink()
    return result


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


def _phase_layers(spans: list[dict]) -> dict[str, float]:
    """Layer numbers of one traced phase (see README for definitions)."""
    from tracer import rollup, top_level

    roll = rollup(spans)

    def busy(name):
        return roll.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return roll.get(name, {}).get("calls", 0)

    def attr(name, key):
        return roll.get(name, {}).get(key, 0)

    audio = attr("frontend.decode", "audio_s")
    gets = calls("exec.get")
    dba_passes = [s["end"] - s["start"] for s in spans if s["name"] == "core.dba"]
    dba_pass = statistics.median(dba_passes) if dba_passes else 0.0
    baseline = busy("core.baseline")
    return {
        "corpus.bundle_s": busy("corpus.bundle"),
        "frontend.build_s": busy("frontend.build"),
        "frontend.decode_s": busy("frontend.decode"),
        "frontend.decode_utts": attr("frontend.decode", "utts"),
        "frontend.decode_rtf": busy("frontend.decode") / audio if audio else 0.0,
        "ngram.extract_s": busy("ngram.extract"),
        "ngram.tfllr_s": busy("ngram.tfllr"),
        "svm.fit_s": busy("svm.fit"),
        "svm.fits": calls("svm.fit"),
        "svm.epochs": attr("svm.fit", "epochs"),
        "svm.score_s": busy("svm.score"),
        "backend.fusion_fit_s": busy("backend.fusion_fit"),
        "backend.fusion_fits": calls("backend.fusion_fit"),
        "core.baseline_s": baseline,
        "core.dba_pass_s": dba_pass,
        "core.eq19_ratio": (baseline + dba_pass) / baseline if baseline else 0.0,
        "core.vote_s": busy("core.vote"),
        "metrics.eval_s": busy("metrics.eval"),
        "exec.put_s": busy("exec.put"),
        "exec.puts": calls("exec.put"),
        "exec.get_s": busy("exec.get"),
        "exec.gets": gets,
        "exec.hit_ratio": attr("exec.get", "hit") / gets if gets else 0.0,
        "campaign.unattributed_s": top_level(spans, "campaign")["unattributed"],
    }


def run_campaign_workload(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome()
    cycles = max(1, int(seconds // CAMPAIGN_CYCLE_S))
    colds, warms = [], []
    for cycle in range(cycles):
        tag = f"campaign-{os.getpid()}-{cycle}"
        store = WORK / f"{tag}-store"
        shutil.rmtree(store, ignore_errors=True)
        try:
            if trace:
                # Untraced cold run first, into its own store, so the
                # traced one can be compared with it (trace overhead).
                plain_store = WORK / f"{tag}-plain"
                try:
                    plain = _phase(seed, plain_store, f"{tag}-plain", False)
                finally:
                    shutil.rmtree(plain_store, ignore_errors=True)
                cold = _phase(seed, store, f"{tag}-cold", True)
                cold["plain_campaign_s"] = plain["campaign_s"][0]
                cold["store_mb"] = _dir_mb(store)
                resumes = [_phase(seed, store, f"{tag}-warm", True)]
            else:
                cold = _phase(seed, store, f"{tag}-cold", False)
                resumes = [
                    _phase(seed, store, f"{tag}-warm{k}", False, WARM_RESUMES)
                    for k in range(WARM_PROCESSES)
                ]
        finally:
            shutil.rmtree(store, ignore_errors=True)
        colds.append(cold)
        warms.extend(resumes)

    # Output checks: every warm resume must render byte-identical tables,
    # and no run may have degraded or quarantined anything.
    phases = colds + warms
    reference = colds[0]["texts"][0]
    for phase in phases:
        for text, healthy in zip(phase["texts"], phase["healthy"]):
            outcome.attempted += 1
            outcome.failed += int(text != reference or not healthy)
    outcome.correct = outcome.failed == 0

    heavy = [c.get("plain_campaign_s", c["campaign_s"][0]) for c in colds]
    warm_walls = [wall for w in warms for wall in w["campaign_s"]]
    outcome.e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in phases),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in phases),
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
        # The mean, i.e. the whole warm phase's resume time per resume:
        # the shared host switches speed every few seconds, and a median
        # of samples split between a fast and a slow spell jumps between
        # them, where the mean moves with the share of each.
        "light_ms": 1e3 * statistics.fmean(warm_walls),
        "heavy_ms": 1e3 * statistics.median(heavy),
        "capacity_per_s": colds[0]["utterances_decoded"] / statistics.median(heavy),
    }
    eer, cavg = colds[0]["dba_fused"]["3.0"]
    quality = {"quality.dba_fused_eer_pct": eer, "quality.dba_fused_cavg_pct": cavg}
    outcome.detail = {
        "cold_s": heavy,
        "warm_s": warm_walls,
        "setup_s": [p["setup_s"] for p in phases],
        **quality,
    }
    if trace:
        from tracer import rollup, top_level

        cold, warm = colds[0], warms[0]
        layers = _phase_layers(cold["spans"])
        layers["exec.store_mb"] = cold["store_mb"]
        warm_layers = _phase_layers(warm["spans"])
        for name in (
            "frontend.decode_utts",
            "svm.fits",
            "exec.get_s",
            "exec.gets",
            "exec.hit_ratio",
            "metrics.eval_s",
            "campaign.unattributed_s",
        ):
            layers[f"warm.{name}"] = warm_layers[name]
        layers.update(quality)
        layers["trace.overhead_pct"] = 100.0 * (
            cold["campaign_s"][0] / cold["plain_campaign_s"] - 1.0
        )
        outcome.layers = {**{k: 0 for k in SERVE_LAYERS}, **layers}
        traced = (("cold", cold["spans"]), ("warm", warm["spans"]))
        outcome.detail["self_s"] = {
            phase: {name: row["self_s"] for name, row in rollup(spans).items()}
            for phase, spans in traced
        }
        outcome.detail["top_level"] = {
            phase: top_level(spans, "campaign") for phase, spans in traced
        }
        WORK.joinpath(f"spans-campaign-{seed}.json").write_text(
            json.dumps({"cold": cold["spans"], "warm": warm["spans"]})
        )
    return outcome


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def ladder_rates(workload: str) -> list[float]:
    """``low``, ``high``, then the traced run's ladder above ``high``."""
    spec = LOADS[workload]
    rates = [spec["low"], spec["high"]]
    for _ in range(LADDER_STEPS):
        rates.append(round(rates[-1] * LADDER_RATIO, 3))
    return rates


def _registry_delta(before: dict, after: dict) -> dict:
    """What one step added to the nested registry snapshot.

    Only exact histogram ``count``/``total`` deltas, counter deltas and
    the newest reservoir samples (the step's own observations) are used.
    """

    def delta(name: str, key: str = "value") -> float:
        prev = before.get(name, {}).get(key) or 0
        return (after.get(name, {}).get(key) or 0) - prev

    hist = "serve.request_latency_s"
    n_new = int(delta(hist, "count"))
    out = {
        "samples": after.get(hist, {}).get("samples", [])[-n_new:] if n_new else [],
        "serve.decoding_s": delta("serve.stage.decoding.seconds", "total"),
        "serve.sv_generation_s": delta("serve.stage.sv_generation.seconds", "total"),
        "serve.sv_product_s": delta("serve.stage.sv_product.seconds", "total"),
        "serve.fusion_s": delta("serve.stage.fusion.seconds", "total"),
        "serve.rejected": delta("serve.rejected"),
        "serve.expired": delta("serve.expired"),
    }
    for name in ("cache.hits", "cache.misses", "batches", "batched_requests"):
        out[name] = delta(f"serve.{name}")
    return out


def _pooled_row(name: str, parts: list, limit_ms: float) -> dict:
    """One step's row from its sub-steps ``(result, cpu_s, registry delta)``."""
    import numpy as np

    from serving import StepResult

    pooled = StepResult.pool([r for r, _, _ in parts])
    row = {
        "step": name,
        "rate": parts[0][0].rate,
        "sent": pooled.sent,
        "failed": pooled.failed,
        "mismatched": pooled.mismatched,
        "throughput_per_s": pooled.sent / pooled.wall_s,
        "mean_ms": pooled.mean_ms(),
        "p50_ms": pooled.quantile_ms(50),
        "p95_ms": pooled.quantile_ms(95),
        "late_p95_ms": pooled.late_ms(95),
        "backlog_growth_ms": max(r.backlog_growth_ms() for r, _, _ in parts),
        "server_cpu_s": sum(cpu for _, cpu, _ in parts),
    }
    row["passed"] = (
        pooled.failed == 0
        and row["p95_ms"] <= limit_ms
        and row["backlog_growth_ms"] <= BACKLOG_GROWTH_LIMIT_MS
    )
    deltas = [d for _, _, d in parts if d is not None]
    if deltas:
        total = {k: sum(d[k] for d in deltas) for k in deltas[0] if k != "samples"}
        samples = [x for d in deltas for x in d["samples"]]
        lookups = total["cache.hits"] + total["cache.misses"]
        engine_p50 = float(np.percentile(samples, 50)) * 1e3 if samples else 0.0
        row.update(
            {k: v for k, v in total.items() if k.startswith("serve.")},
            **{
                "serve.engine_p50_ms": engine_p50,
                "serve.engine_p95_ms": float(np.percentile(samples, 95)) * 1e3 if samples else 0.0,
                "serve.http_gap_p50_ms": row["p50_ms"] - engine_p50,
                "serve.batch_mean": total["batched_requests"] / total["batches"] if total["batches"] else 0.0,
                "serve.cache_hit_ratio": total["cache.hits"] / lookups if lookups else 0.0,
            },
        )
    return row


def run_serve_workload(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    import numpy as np

    from repro.serve import ScoringEngine, load_system
    from serving import RequestSource, Server, ensure_artifact, poisson_offsets, run_step

    outcome = Outcome()
    spec = LOADS[workload]
    artifact = ensure_artifact(WORK)
    trained = load_system(artifact)
    rng = np.random.default_rng([seed, 3])
    source = RequestSource(trained, workload, seed)
    # Reference scores come from the in-process engine, computed before
    # each timed step; the serving contract is bitwise equality.
    engine = ScoringEngine(trained)
    expected: dict = {}
    log = WORK / f"server-{os.getpid()}.log"
    setups = []
    server = None
    parts: dict[str, list] = {}

    def reference(utterances) -> None:
        todo = [u for u in utterances if u.utt_id not in expected]
        if todo:
            expected.update(zip((u.utt_id for u in todo), engine.score_utterances(todo)))

    def step(name: str, rate: float, n: int, offsets=None):
        batch = source.step(n)
        reference(batch.utterances)
        before = server.registry() if trace else None
        cpu0 = server.cpu_s()
        result = run_step(server.port, offsets, batch.items, expected, CONNECTIONS)
        result.rate = rate
        cpu = server.cpu_s() - cpu0
        delta = _registry_delta(before, server.registry()) if trace else None
        parts.setdefault(name, []).append((result, cpu, delta))
        outcome.correct &= result.mismatched == 0
        return result

    try:
        for spawn in range(SERVER_SPAWNS):
            server = Server(artifact, log)
            setups.append(server.setup_s)
            if spawn < SERVER_SPAWNS - 1:
                server.stop()
        warmup = source.warmup()
        reference(warmup.utterances)
        warm = run_step(server.port, None, warmup.items, expected, CONNECTIONS)
        outcome.correct &= warm.mismatched == 0
        outcome.attempted += warm.sent
        outcome.failed += warm.failed
        # The gated steps run in interleaved rounds, so a slow spell of a
        # shared host lands on every step rather than on one.  Every
        # request of them counts.
        n_sat = spec["saturation_per_s"] * SATURATION_SHARE * seconds / ROUNDS
        for _ in range(ROUNDS):
            for name, share in (("low", LOW_SHARE), ("high", HIGH_SHARE)):
                offsets = poisson_offsets(rng, spec[name], share * seconds / ROUNDS)
                result = step(name, spec[name], len(offsets), offsets)
                outcome.attempted += result.sent
                outcome.failed += result.failed
            result = step("saturation", 0.0, max(1, round(n_sat)))
            outcome.attempted += result.sent
            outcome.failed += result.failed
        rows = {
            name: _pooled_row(name, p, spec["p95_limit_ms"]) for name, p in parts.items()
        }
        max_rate = 0.0
        if trace:
            # The open-loop ladder: above ``high`` an overloaded step may
            # refuse work, but a wrong answer still counts as a failure.
            passing = rows["low"]["passed"] and rows["high"]["passed"]
            max_rate = spec["high"] if passing else 0.0
            for k, rate in enumerate(ladder_rates(workload)[2:] if passing else []):
                offsets = poisson_offsets(rng, rate, LADDER_SHARE * seconds)
                name = f"ladder{k + 1}"
                result = step(name, rate, len(offsets), offsets)
                rows[name] = _pooled_row(name, parts[name], spec["p95_limit_ms"])
                outcome.attempted += result.sent
                outcome.failed += result.mismatched
                if not rows[name]["passed"]:
                    break
                max_rate = rate
        peak_rss = server.peak_rss_mb()
    finally:
        engine.close()
        if server is not None:
            server.stop()
        log.unlink(missing_ok=True)

    low, high, sat = rows["low"], rows["high"], rows["saturation"]
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
        "light_ms": low["p50_ms"],
        "heavy_ms": sat["p50_ms"],
        "capacity_per_s": sat["throughput_per_s"],
    }
    outcome.detail = {"setup_s": setups, "steps": list(rows.values())}
    if trace:
        timed = _pooled_row(
            "timed",
            [part for name in ("low", "high", "saturation") for part in parts[name]],
            spec["p95_limit_ms"],
        )
        layers = {
            "load.sent": timed["sent"],
            "load.failed": timed["failed"],
            "load.late_p95_ms": high["late_p95_ms"],
            "load.low_p95_ms": low["p95_ms"],
            "load.high_p50_ms": high["p50_ms"],
            "load.high_p95_ms": high["p95_ms"],
            "load.saturation_p95_ms": sat["p95_ms"],
            "load.max_rate_rps": max_rate,
            "server.cpu_s": timed["server_cpu_s"],
            **{k: timed[k] for k in SERVE_LAYERS if k.startswith("serve.")},
        }
        outcome.layers = {**{k: 0 for k in CAMPAIGN_LAYERS}, **layers}
    return outcome


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    WORK.mkdir(exist_ok=True)
    if workload == "campaign":
        outcome = run_campaign_workload(seed, seconds, trace)
    else:
        outcome = run_serve_workload(workload, seed, seconds, trace)
    outcome.notes = comparability_notes(workload)
    return outcome


def report(workload: str, seed: int, seconds: int, trace: bool, outcome: Outcome) -> dict:
    """Print the human-readable report; return the result line's object."""
    context = run_context(workload, seed, seconds, trace)
    print(f"== perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("context: " + json.dumps(context, sort_keys=True))
    for note in outcome.notes:
        print(note)
    for row in outcome.detail.get("steps", []):
        print("step: " + json.dumps(row, sort_keys=True))
    for phase, row in outcome.detail.get("top_level", {}).items():
        print(f"{phase} phase top-level seconds: " + json.dumps(row, sort_keys=True))
    for phase, row in outcome.detail.get("self_s", {}).items():
        print(f"{phase} phase self seconds: " + json.dumps(row, sort_keys=True))
    units = PER_LAYER if trace else END_TO_END
    values = outcome.layers if trace else outcome.e2e
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:14.6f} {unit}")
    for name in ("quality.dba_fused_eer_pct", "quality.dba_fused_cavg_pct"):
        if not trace and name in outcome.detail:
            print(f"{name:32s} {outcome.detail[name]:14.6f} %")
    print(
        f"checks: correct={outcome.correct} attempted={outcome.attempted} "
        f"failed={outcome.failed}"
    )
    result = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    WORK.joinpath(f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"context": context, "detail": outcome.detail, **result}, indent=1)
    )
    return result


def self_check() -> int:
    """Every metric is emitted with its unit; counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layers": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared["e2e"] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if declared["layers"] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    counts = []
    for workload, seconds in (("campaign", 1), ("campaign", 1), ("serve_fresh", 4), ("serve_repeat", 4)):
        outcome = run_workload(workload, DEFAULT_SEED, seconds, True)
        for kind in ("e2e", "layers"):
            missing = set(declared[kind]) - set(getattr(outcome, kind))
            if missing:
                problems.append(f"{workload}: no {kind} metric {sorted(missing)}")
        if not outcome.correct:
            problems.append(f"{workload}: output check failed")
        if workload == "campaign":
            counts.append({k: outcome.layers[k] for k in DETERMINISTIC_COUNTS})
            top = outcome.detail["top_level"]["cold"]
            parts = sum(v for k, v in top.items() if k != "wall")
            if abs(parts - top["wall"]) > 1e-6 * max(1.0, top["wall"]):
                problems.append(f"cold spans + unattributed {parts} != wall {top['wall']}")
            if outcome.layers["warm.frontend.decode_utts"] or outcome.layers["warm.svm.fits"]:
                problems.append("warm phase decoded or trained")
    if counts[0] != counts[1]:
        problems.append(f"deterministic counts differ: {counts[0]} vs {counts[1]}")
    for problem in problems:
        print("SELF-CHECK FAIL: " + problem)
    print("self-check " + ("failed" if problems else f"passed; counts {counts[0]}"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = report(name, args.seed, args.seconds, bool(args.trace), outcome)
        ok &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
