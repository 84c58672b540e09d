"""In-memory span recorder that wraps the program's public entry points.

The benchmark measures each layer from outside: :func:`install_campaign_probes`
replaces the entry points of ``corpus``, ``frontend``, ``ngram``, ``svm``,
``backend``, ``core``, ``metrics`` and ``exec`` with wrappers that record one
span per call (name, start, end, parent, thread, attributes).  Each name is
patched where its caller looks it up: module-level functions in the calling
module's namespace, methods on their class.  Nothing under ``src/`` changes.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path


class Tracer:
    """Collects spans; parents follow the calling thread's open spans.

    A span opened on a worker thread with no open span of its own takes
    as parent the innermost open span of the thread that created the
    tracer, because worker threads only run while that thread waits on
    them (stage-graph fan-out, decode ``pmap``).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        """Start a span under the current parent; returns its record."""
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = {
                "id": next(self._ids),
                "parent": parent,
                "name": name,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span["id"]:
            stack.pop()

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``annotate(span_attrs, args, kwargs, result, error)`` may add
        counts to the span after the call returns or raises.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.close(span)
                if annotate is not None:
                    annotate(span["attrs"], args, kwargs, result, error)

        setattr(owner, attr, wrapper)

    def dump(self, path: Path) -> None:
        """Write every span as JSON (times in seconds, tracer-relative)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
            if s["end"] is not None
        ]
        Path(path).write_text(json.dumps(rows))


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union(children.get(s["id"], []))
        for s in spans
    }


def rollup(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, summed counts.

    Busy time counts a span only when no ancestor carries the same
    name, so a re-entrant entry point is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        parent = by_id.get(s["parent"])
        nested = False
        while parent is not None:
            if parent["name"] == s["name"]:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            row["busy_s"] += s["end"] - s["start"]
        for key, value in s["attrs"].items():
            row[key] = row.get(key, 0) + value
    return out


def top_level(spans: list[dict], root_name: str) -> dict[str, float]:
    """Seconds per name of the root span's children, plus the remainder.

    ``"wall"`` is the root's duration and ``"unattributed"`` the part of it
    that no child covers, so the children (which run one after another
    on the root's thread) plus ``"unattributed"`` add up to ``"wall"``.
    """
    root = next(s for s in spans if s["name"] == root_name)
    out: dict[str, float] = {}
    direct = []
    for s in spans:
        if s["parent"] == root["id"]:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
            direct.append((s["start"], s["end"]))
    out["wall"] = root["end"] - root["start"]
    out["unattributed"] = out["wall"] - _union(direct)
    return out


# ----------------------------------------------------------------------
# campaign probes
# ----------------------------------------------------------------------
def _count_utterances(attrs, args, kwargs, result, error):
    utterances = args[1] if len(args) > 1 else kwargs["utterances"]
    attrs["utts"] = len(utterances)
    attrs["audio_s"] = float(sum(u.duration for u in utterances))


def _count_epochs(attrs, args, kwargs, result, error):
    if error is None:
        attrs["epochs"] = int(sum(m.n_epochs_ for m in args[0].models_))


def _count_hit(attrs, args, kwargs, result, error):
    attrs["hit"] = error is None


def install_campaign_probes(tracer: Tracer) -> None:
    """Wrap the offline pipeline's layer entry points (see module doc)."""
    import repro.core.campaign as campaign
    import repro.core.pipeline as pipeline
    from repro.backend.fusion import LdaMmiFusion
    from repro.exec.store import ArtifactStore
    from repro.frontend.confusion import ConfusionChannelRecognizer
    from repro.ngram.supervector import SupervectorExtractor, TFLLRScaler
    from repro.svm.ovr import OneVsRestSVM

    wrap = tracer.wrap
    wrap(pipeline, "make_corpus_bundle", "corpus.bundle")
    wrap(pipeline, "build_frontends", "frontend.build")
    wrap(
        ConfusionChannelRecognizer,
        "decode_batch",
        "frontend.decode",
        _count_utterances,
    )
    wrap(SupervectorExtractor, "extract_matrix", "ngram.extract")
    wrap(TFLLRScaler, "fit", "ngram.tfllr")
    wrap(TFLLRScaler, "transform", "ngram.tfllr")
    wrap(OneVsRestSVM, "fit", "svm.fit", _count_epochs)
    wrap(OneVsRestSVM, "decision_matrix", "svm.score")
    wrap(LdaMmiFusion, "fit", "backend.fusion_fit")
    wrap(pipeline.PhonotacticSystem, "baseline", "core.baseline")
    wrap(pipeline.PhonotacticSystem, "dba", "core.dba")
    wrap(pipeline, "vote_count_matrix", "core.vote")
    wrap(pipeline, "select_pseudo_labels", "core.vote")
    wrap(campaign, "vote_count_matrix", "core.vote")
    wrap(pipeline.PhonotacticSystem, "frontend_metrics", "metrics.eval")
    wrap(pipeline.PhonotacticSystem, "fused_metrics", "metrics.eval")
    wrap(ArtifactStore, "put", "exec.put")
    wrap(ArtifactStore, "get", "exec.get", _count_hit)
