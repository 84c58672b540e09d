"""Serving side of the benchmark: artifact, requests, server and load.

- :func:`ensure_artifact` exports the smoke-scale DBA-M2 (V = 3) system
  through the CLI once per source tree and reuses it afterwards.
- :class:`RequestSource` draws a workload's requests from its seed.
- :class:`Server` spawns ``python -m repro serve``, times it to the first
  ``/healthz`` 200, reads its registry and ``/proc`` counters, stops it.
- :func:`run_step` drives one open- or closed-loop step over keep-alive
  connections and times every request from when it was due.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The served system: ``repro export --dba-threshold 3 --variant M2`` at
#: smoke scale with the CLI's default seed.
EXPORT_ARGS = ["--scale", "smoke", "--dba-threshold", "3", "--variant", "M2"]

#: Client-side bound on one request; a request that takes longer fails.
REQUEST_TIMEOUT_S = 10.0


def program_env() -> dict[str, str]:
    """Environment for child processes running the program from source.

    An inherited ``REPRO_TRACE`` or ``REPRO_FAULTS`` would add tracing or
    injected faults to the measured program, so both are dropped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_TRACE", None)
    env.pop("REPRO_FAULTS", None)
    return env


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (names and bytes)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def ensure_artifact(work: Path) -> Path:
    """Path of the exported artifact for this source tree, built if absent."""
    target = work / f"artifact-{source_digest()[:16]}"
    if (target / "manifest.json").exists():
        return target
    staging = work / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run(
        [sys.executable, "-m", "repro", "export", str(staging), *EXPORT_ARGS],
        cwd=ROOT,
        env=program_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=600,
    )
    try:
        os.rename(staging, target)
    except OSError:
        # Another run published the same artifact first.
        shutil.rmtree(staging, ignore_errors=True)
    return target


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
DURATIONS = (3.0, 10.0, 30.0)

#: ``serve_repeat`` working set; smaller than the engine's 512-entry cache.
WORKING_SET = 64


@dataclass
class Request:
    """One ``POST /score`` body and the utterance ids it carries."""

    body: bytes
    utt_ids: list[str]


@dataclass
class Batch:
    """Requests of one step and the utterances first sent in it."""

    items: list[Request]
    utterances: list


def _balanced(rng, values: list):
    """Endless draws cycling through shuffled copies of ``values``.

    Every block of ``len(values)`` draws holds each value once, so the
    mix of request sizes is the same for every seed; only the order and
    the utterances themselves vary.
    """
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _body(utterances) -> bytes:
    from repro.serve.protocol import utterance_to_json

    return json.dumps(
        {"utterances": [utterance_to_json(u) for u in utterances]}
    ).encode()


class RequestSource:
    """A serve workload's requests, drawn from its seed step by step.

    ``serve_fresh``: every request carries 1-4 utterances of 3, 10 or
    30 s that appear nowhere else.  ``serve_repeat``: one utterance per
    request; four in five repeat one of a fixed working set of
    :data:`WORKING_SET` utterances (the warm-up sends each once), the
    rest are never seen.  Steps must be drawn in order; the same seed
    then gives the same requests.
    """

    def __init__(self, trained, workload: str, seed: int) -> None:
        from repro.corpus.generator import UtteranceGenerator
        from repro.corpus.speaker import SessionSampler
        from repro.corpus.splits import make_corpus_bundle

        if workload not in ("serve_fresh", "serve_repeat"):
            raise ValueError(f"not a serve workload: {workload!r}")
        cfg = trained.config.corpus
        self.workload = workload
        self.seed = seed
        self.languages = list(make_corpus_bundle(cfg).registry)
        sessions = SessionSampler(
            cfg.feature_dim,
            snr_mean_db=cfg.test_snr_db,
            speaker_scale=cfg.test_speaker_scale,
            snr_spread_db=7.0,
            seed=seed,
            tag="perfbench",
        )
        self.generator = UtteranceGenerator(sessions, frame_rate=cfg.frame_rate)
        self.rng = np.random.default_rng([seed, 2])
        self._count = 0
        self._durations = _balanced(self.rng, list(DURATIONS))
        self._shapes = _balanced(
            self.rng, [(k, d) for k in (1, 2, 3, 4) for d in DURATIONS]
        )
        self._kinds = _balanced(self.rng, ["repeat"] * 4 + ["fresh"])
        self.working: list = []

    def _fresh(self, duration: float, new: list):
        lang = self.languages[int(self.rng.integers(len(self.languages)))]
        self._count += 1
        utt = self.generator.sample_utterance(
            f"perfbench-{self.seed}-{self._count:06d}", lang, duration, self.rng
        )
        new.append(utt)
        return utt

    def warmup(self) -> Batch:
        """Requests sent before timing (the repeat working set, once)."""
        new: list = []
        if self.workload == "serve_fresh":
            utts = [[self._fresh(d, new)] for d in DURATIONS]
        else:
            self.working = [
                self._fresh(next(self._durations), new) for _ in range(WORKING_SET)
            ]
            utts = [[u] for u in self.working]
        return Batch([self._request(u) for u in utts], new)

    def step(self, n: int) -> Batch:
        """The next ``n`` timed requests."""
        new: list = []
        groups = []
        for _ in range(n):
            if self.workload == "serve_fresh":
                k, d = next(self._shapes)
                groups.append([self._fresh(d, new) for _ in range(k)])
            elif next(self._kinds) == "repeat":
                groups.append([self.working[int(self.rng.integers(WORKING_SET))]])
            else:
                groups.append([self._fresh(next(self._durations), new)])
        return Batch([self._request(g) for g in groups], new)

    @staticmethod
    def _request(utterances) -> Request:
        return Request(_body(utterances), [u.utt_id for u in utterances])


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve <artifact> --port 0`` as a child process."""

    def __init__(self, artifact: Path, log: Path) -> None:
        self.log = log
        self.spawned = time.monotonic()
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(artifact), "--port", "0"],
                cwd=ROOT,
                env=program_env(),
                stdout=out,
                stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._await_port()
            self.setup_s = self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log.read_text(errors="replace")
            marker = "listening on http://"
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("server did not announce a port")

    def _await_health(self, timeout: float = 60.0) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = None
            if status == 200:
                return time.monotonic() - self.spawned
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def registry(self) -> dict:
        """The nested registry snapshot with histogram samples (/metricz)."""
        status, snapshot = self.get("/metricz")
        if status != 200:
            raise RuntimeError(f"/metricz answered {status}")
        return snapshot

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate the server and wait for it; kill it if it lingers.

        SIGTERM rather than SIGINT: a shell without job control starts
        background commands with SIGINT ignored, and children inherit that.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass
class StepResult:
    """Client-side outcome of one load step."""

    rate: float = 0.0
    sent: int = 0
    failed: int = 0
    mismatched: int = 0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    wall_s: float = 0.0

    def quantile_ms(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) * 1e3

    def mean_ms(self) -> float:
        return float(np.mean(self.latencies)) * 1e3

    def late_ms(self, q: float) -> float:
        return float(np.percentile(self.lateness, q)) * 1e3

    @classmethod
    def pool(cls, results: list["StepResult"]) -> "StepResult":
        """All requests of several runs of one step, as one result."""
        return cls(
            rate=results[0].rate,
            sent=sum(r.sent for r in results),
            failed=sum(r.failed for r in results),
            mismatched=sum(r.mismatched for r in results),
            latencies=[x for r in results for x in r.latencies],
            lateness=[x for r in results for x in r.lateness],
            wall_s=sum(r.wall_s for r in results),
        )

    def backlog_growth_ms(self) -> float:
        """Median lateness of the last third minus that of the first."""
        third = max(1, len(self.lateness) // 3)
        head = float(np.median(self.lateness[:third]))
        tail = float(np.median(self.lateness[-third:]))
        return (tail - head) * 1e3


def poisson_offsets(rng, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets of a Poisson process with ``rate * duration`` events.

    Conditioned on its count, a Poisson process's arrival times are
    sorted uniform draws, so fixing the count keeps the step's load equal
    across seeds while the spacing stays random.
    """
    n = max(1, int(round(rate * duration)))
    return np.sort(rng.uniform(0.0, duration, size=n))


def run_step(
    port: int,
    offsets: np.ndarray | None,
    requests: list[Request],
    expected: dict[str, np.ndarray],
    connections: int,
) -> StepResult:
    """Send ``requests[i]`` at ``offsets[i]`` over keep-alive connections.

    Each of ``connections`` threads owns one connection and takes the
    next due request; a request that waits for a free connection counts
    that wait, because latency runs from the due time.  With ``offsets``
    ``None`` the step is closed-loop: each request is due when a
    connection takes it.  Every 200 answer is compared bitwise with
    ``expected``; any other status, transport error, timeout or mismatch
    is a failure.
    """
    result = StepResult()
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.monotonic() + 0.02
    latencies = [0.0] * len(requests)
    lateness = [0.0] * len(requests)

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due = time.monotonic() if offsets is None else start + float(offsets[i])
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                ok = False
                try:
                    conn.request(
                        "POST",
                        "/score",
                        body=requests[i].body,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    payload = resp.read()
                    done = time.monotonic()
                    if resp.status == 200:
                        ok = _matches(json.loads(payload), requests[i].utt_ids, expected)
                        if not ok:
                            with lock:
                                result.mismatched += 1
                except (OSError, http.client.HTTPException):
                    done = time.monotonic()
                    conn.close()
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
                    )
                latencies[i] = (done - due) if ok else REQUEST_TIMEOUT_S
                lateness[i] = sent - due
                with lock:
                    result.sent += 1
                    result.failed += 0 if ok else 1
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_s = time.monotonic() - start
    result.latencies = latencies
    result.lateness = lateness
    return result


def _matches(payload: dict, utt_ids: list[str], expected: dict) -> bool:
    if payload.get("utt_ids") != utt_ids or payload.get("degraded"):
        return False
    got = np.asarray(payload["scores"], dtype=np.float64)
    want = np.stack([expected[u] for u in utt_ids])
    return got.shape == want.shape and bool(np.array_equal(got, want))
