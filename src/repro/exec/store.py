"""Content-addressed persistence for pipeline stage products.

The :class:`ArtifactStore` persists *every* stage product the pipeline
produces — raw φ(x) supervector matrices, fitted
:class:`~repro.svm.vsm.VSM` state dicts, dense score matrices, vote/
pseudo-label selections and fused score vectors.  Keys are
content-addressed: :func:`stage_key` hashes the experiment config
fingerprint (the same
:func:`repro.serve.artifacts.config_fingerprint` the serving artifacts
pin), the frontend name, the corpus tag and the free-form stage
parameters, so two runs agree on a key exactly when they would compute
the same value.

Layout of a store directory::

    index.json                      key -> {kind, file, sha256, size, …}
    objects/<kk>/<key>.<ext>        payload files, sharded by key prefix

Every payload is verified against its recorded SHA-256 on read; a
mismatch raises :class:`StoreCorruptionError` rather than returning
stale or tampered data (the same hard-fail posture as
:mod:`repro.serve.artifacts`).  The index is rewritten atomically
(temp file + ``os.replace``) after each put, so a killed run leaves a
loadable store behind — the basis of resumable campaigns.

Crash and concurrency hygiene
-----------------------------
Payload files are themselves written via temp + ``os.replace``, so a
writer killed mid-``put`` leaves only a ``.tmp-*`` orphan, never a
half-written payload under a final name; orphans are swept on the next
store open.  Index rewrites happen under an exclusive ``index.lock``
file (``O_CREAT|O_EXCL``, bounded wait, stale locks older than
:data:`_LOCK_STALE_S` are broken) and *merge* the on-disk entries with
this process's, so two concurrent campaigns sharing a store cannot lose
each other's puts by interleaving read-modify-write cycles.
:meth:`ArtifactStore.verify` re-hashes every payload against the index
(``repro exec verify STORE`` from the CLI) and can drop corrupt
entries so the next run recomputes them.

Chaos drills can target the store: the ambient ``REPRO_FAULTS`` plan's
``store`` target (see :mod:`repro.faults.injection`) fires at the top
of every :meth:`~ArtifactStore.get` / :meth:`~ArtifactStore.put`, which
is how ``benchmarks/bench_exec_faults.py`` proves the retry path around
store I/O.

Store traffic is accounted in the process-wide metrics registry under
``exec.store.hits`` / ``exec.store.misses`` / ``exec.store.bytes``, so
traced runs (``REPRO_TRACE=1``) show cache behaviour in their runlogs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.faults.injection import ambient_plan
from repro.obs.metrics import default_registry
from repro.utils.io import load_sparse, save_npz, save_sparse
from repro.utils.sparse import SparseMatrix

__all__ = [
    "StoreError",
    "StoreCorruptionError",
    "stage_key",
    "ArtifactStore",
    "PAYLOAD_KINDS",
]

#: Parent-side accounting of store traffic (see module docstring).
_STORE_HITS = default_registry().counter("exec.store.hits")
_STORE_MISSES = default_registry().counter("exec.store.misses")
_STORE_BYTES = default_registry().counter("exec.store.bytes")

#: Payload kinds the store can (de)serialise.
PAYLOAD_KINDS = ("sparse", "array", "arrays", "json")

_INDEX = "index.json"
_OBJECTS = "objects"
_EXT = {"sparse": "npz", "array": "npz", "arrays": "npz", "json": "json"}

_LOCK = "index.lock"
#: A lock file older than this is presumed abandoned (killed writer)
#: and broken; index critical sections are milliseconds long.
_LOCK_STALE_S = 30.0
#: Prefix of in-flight payload temp files (swept on store open).
_TMP_PREFIX = ".tmp-"

#: Test hook invoked between observing a stale ``index.lock`` and
#: breaking it — lets regression tests force the historical TOCTOU
#: interleaving (two waiters both see the stale lock, a third process
#: acquires, the break must not delete the new holder's lock).
_break_hook: Callable[[], None] | None = None


class StoreError(RuntimeError):
    """The store or one of its payloads cannot be used safely."""


class StoreCorruptionError(StoreError):
    """A payload file does not match the checksum recorded at put time."""


def stage_key(
    stage: str,
    *,
    fingerprint: str,
    frontend: str | None = None,
    corpus: str | None = None,
    params: dict[str, Any] | None = None,
) -> str:
    """Content-addressed key of one stage execution.

    The key is the SHA-256 of the canonical JSON form of
    ``(stage, fingerprint, frontend, corpus, params)`` — sorted keys,
    tuples as arrays — so any change to the experiment config (via the
    fingerprint), the frontend battery, the corpus split or the stage's
    own parameters produces a different key and therefore a store miss.
    """
    payload = json.dumps(
        {
            "stage": str(stage),
            "fingerprint": str(fingerprint),
            "frontend": frontend,
            "corpus": corpus,
            "params": params or {},
        },
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class ArtifactStore:
    """Directory-backed, checksum-verified store of stage products.

    Parameters
    ----------
    directory:
        Store root; created if missing.  An existing ``index.json`` is
        adopted, so stores persist across processes and runs.
    lock_timeout:
        Seconds to wait for the inter-process ``index.lock`` before
        raising :class:`StoreError`.

    The store is thread-safe: the stage-graph runner executes
    independent per-frontend stages concurrently and all of them read
    and write one store.  Opening a store sweeps ``.tmp-*`` payload
    orphans left behind by writers that were killed mid-``put``.
    """

    def __init__(
        self, directory: str | Path, *, lock_timeout: float = 10.0
    ) -> None:
        self.directory = Path(directory)
        self.lock_timeout = float(lock_timeout)
        (self.directory / _OBJECTS).mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._index: dict[str, dict[str, Any]] = {}
        self._sweep_orphans()
        disk = self._read_index()
        if disk is not None:
            self._index = disk

    def _read_index(self) -> dict[str, dict[str, Any]] | None:
        """Parse ``index.json`` from disk (``None`` when absent)."""
        index_path = self.directory / _INDEX
        if not index_path.exists():
            return None
        try:
            raw = json.loads(index_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"store index {index_path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(raw, dict) or not isinstance(
            raw.get("entries"), dict
        ):
            raise StoreError(
                f"store index {index_path} has an unexpected layout"
            )
        return raw["entries"]

    def _sweep_orphans(self) -> int:
        """Remove temp files abandoned by killed writers; returns count.

        Covers both payload temps (``objects/<kk>/.tmp-*``) and index
        temps (``.index-*.tmp`` in the root).  Payloads are only ever
        published by ``os.replace`` of a completed temp, so anything
        still carrying a temp name is garbage by construction.
        """
        swept = 0
        for orphan in self.directory.glob(f"{_OBJECTS}/*/{_TMP_PREFIX}*"):
            orphan.unlink(missing_ok=True)
            swept += 1
        for orphan in self.directory.glob(".index-*.tmp"):
            orphan.unlink(missing_ok=True)
            swept += 1
        for orphan in self.directory.glob(".lockbreak-*"):
            # A lock breaker killed between rename and unlink leaves
            # its uniquely-named grab behind; the lock itself is gone,
            # so this is litter, not a held lock.
            orphan.unlink(missing_ok=True)
            swept += 1
        return swept

    @contextmanager
    def _file_lock(self) -> Iterator[None]:
        """Exclusive inter-process lock around index rewrites.

        ``O_CREAT | O_EXCL`` on ``index.lock`` with a bounded wait;
        locks older than :data:`_LOCK_STALE_S` are presumed abandoned
        by a killed process and broken.  Raises :class:`StoreError` on
        timeout rather than proceeding unlocked.

        Stale locks are broken by *renaming* them to a waiter-unique
        name and re-verifying staleness on the renamed file, never by a
        blind unlink: two waiters that both observed the same stale
        lock would otherwise both unlink, and the slower one could
        delete the lock a third process had just legitimately acquired
        under the same name.  The rename is atomic, so exactly one
        breaker wins; a breaker that discovers it grabbed a *fresh*
        lock (the holder renewed, or a new holder appeared between stat
        and rename) hands it back via ``os.link`` — which never
        clobbers — and backs off.
        """
        lock_path = self.directory / _LOCK
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fd = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                break
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_S:
                    self._break_stale_lock(lock_path)
                    continue
                if time.monotonic() >= deadline:
                    raise StoreError(
                        f"timed out after {self.lock_timeout:.1f}s waiting "
                        f"for store lock {lock_path} (held for {age:.1f}s)"
                    ) from None
                time.sleep(0.01)
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            lock_path.unlink(missing_ok=True)

    def _break_stale_lock(self, lock_path: Path) -> bool:
        """Safely break a lock observed stale; returns whether we broke it.

        See :meth:`_file_lock` for the rationale.  The breaker file is
        named after this pid *and* a per-call token so concurrent
        breakers in one process can never collide on the rename target.
        """
        token = os.urandom(4).hex()
        breaker = lock_path.with_name(
            f".lockbreak-{os.getpid()}-{token}"
        )
        if _break_hook is not None:
            _break_hook()
        try:
            os.rename(lock_path, breaker)
        except OSError:
            return False  # lost the race: broken or released already
        try:
            age = time.time() - breaker.stat().st_mtime
        except OSError:
            return False
        if age <= _LOCK_STALE_S:
            # What we grabbed is *fresh* — the holder touched it (or a
            # new holder acquired) between our stat and our rename.
            # Hand it back without clobbering any newer lock: link()
            # fails with EEXIST instead of overwriting.
            try:
                os.link(breaker, lock_path)
            except OSError:
                pass  # an even newer lock exists; nothing to restore
            breaker.unlink(missing_ok=True)
            return False
        breaker.unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def has(self, key: str) -> bool:
        """Whether the index records a payload under ``key``."""
        with self._lock:
            return key in self._index

    def refresh(self) -> int:
        """Merge the on-disk index into memory; returns new-key count.

        A long-lived store handle only learns about its *own* puts; in
        a distributed campaign other worker processes publish stages
        through the same directory, and a worker waiting on a leased
        stage must be able to observe the winner's put without
        reopening the store.  Disk entries never override keys this
        process already holds (memory wins per key, matching
        :meth:`_write_index`'s merge direction).
        """
        disk = self._read_index()
        if not disk:
            return 0
        with self._lock:
            before = len(self._index)
            self._index = {**disk, **self._index}
            return len(self._index) - before

    def entry(self, key: str) -> dict[str, Any]:
        """The index entry for ``key`` (a copy; raises ``KeyError``)."""
        with self._lock:
            return dict(self._index[key])

    def keys(self) -> list[str]:
        """All recorded keys (sorted)."""
        with self._lock:
            return sorted(self._index)

    def _object_path(self, key: str, kind: str) -> Path:
        return self.directory / _OBJECTS / key[:2] / f"{key}.{_EXT[kind]}"

    def _write_index(self, drop: set[str] | None = None) -> None:
        """Rewrite ``index.json`` under the inter-process lock.

        The on-disk entries are merged with this process's (memory wins
        per key) before writing, so two campaigns sharing a store never
        lose each other's puts to a read-modify-write race.  ``drop``
        removes keys from both views (used by :meth:`verify`).
        Must be called with ``self._lock`` held.
        """
        with self._file_lock():
            disk = self._read_index() or {}
            merged = {**disk, **self._index}
            for key in drop or ():
                merged.pop(key, None)
            self._index = merged
            # Compact encoding: the index is rewritten in full on every
            # put, so pretty-printing multiplies encoder work and bytes
            # across a campaign for no functional gain.
            payload = json.dumps(
                {"version": 1, "entries": merged}, sort_keys=True
            )
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".index-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
                os.replace(tmp, self.directory / _INDEX)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        kind: str,
        value: Any,
        *,
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Persist ``value`` under ``key`` as payload kind ``kind``.

        ``meta`` (JSON-able) is stored in the index entry for
        provenance (stage name, frontend, corpus tag, …) and is never
        used for lookup.

        The payload is written to a ``.tmp-*`` sibling and published by
        ``os.replace``, so a writer killed mid-put can never leave a
        half-written file under a final payload name.
        """
        ambient_plan().apply("store")
        if kind not in PAYLOAD_KINDS:
            raise ValueError(
                f"unknown payload kind {kind!r}; expected one of "
                f"{PAYLOAD_KINDS}"
            )
        path = self._object_path(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The temp name must keep the real extension: np.savez_compressed
        # appends ".npz" to anything that lacks it, which would orphan
        # the handle mkstemp returned.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=_TMP_PREFIX, suffix=f".{_EXT[kind]}"
        )
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            # Store payloads are written uncompressed (compresslevel=0):
            # every get re-hashes the file, so deflate would cost on the
            # read path too, and at campaign scale the npz bodies are
            # small next to the decode work they memoise.
            if kind == "sparse":
                if not isinstance(value, SparseMatrix):
                    raise TypeError("kind 'sparse' requires a SparseMatrix")
                save_sparse(tmp, value, compresslevel=0)
            elif kind == "array":
                save_npz(
                    tmp,
                    {"value": np.asarray(value, dtype=np.float64)},
                    compresslevel=0,
                )
            elif kind == "arrays":
                if not isinstance(value, dict) or not value:
                    raise TypeError(
                        "kind 'arrays' requires a non-empty dict of arrays"
                    )
                save_npz(
                    tmp,
                    {k: np.asarray(v) for k, v in value.items()},
                    compresslevel=0,
                )
            else:  # json
                tmp.write_text(
                    json.dumps(value, sort_keys=True, default=list)
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        size = path.stat().st_size
        _STORE_BYTES.inc(size)
        with self._lock:
            self._index[key] = {
                "kind": kind,
                "file": str(path.relative_to(self.directory)),
                "sha256": _file_sha256(path),
                "size": size,
                "created_unix": time.time(),
                "meta": meta or {},
            }
            self._write_index()

    def get(self, key: str) -> Any:
        """Load and return the payload under ``key``.

        Raises ``KeyError`` when the key is unknown (a *miss*) and
        :class:`StoreCorruptionError` when the payload file is missing
        or fails checksum verification (never stale data).
        """
        ambient_plan().apply("store")
        with self._lock:
            entry = self._index.get(key)
        if entry is None:
            _STORE_MISSES.inc()
            raise KeyError(f"no artifact stored under key {key[:12]}…")
        path = self.directory / entry["file"]
        if not path.exists():
            raise StoreCorruptionError(
                f"artifact payload {entry['file']} is missing from disk"
            )
        actual = _file_sha256(path)
        if actual != entry["sha256"]:
            raise StoreCorruptionError(
                f"artifact payload {entry['file']} failed checksum "
                f"verification (sha256 {actual[:12]}… != index "
                f"{entry['sha256'][:12]}…)"
            )
        kind = entry["kind"]
        if kind == "sparse":
            value: Any = load_sparse(path)
        elif kind == "array":
            with np.load(path) as data:
                value = data["value"].copy()
        elif kind == "arrays":
            with np.load(path) as data:
                value = {name: data[name].copy() for name in data.files}
        else:  # json
            value = json.loads(path.read_text())
        _STORE_HITS.inc()
        return value

    def get_or_compute(
        self,
        key: str,
        kind: str,
        compute: Callable[[], Any],
        *,
        meta: dict[str, Any] | None = None,
    ) -> Any:
        """Load if present, else compute, persist and return."""
        try:
            return self.get(key)
        except KeyError:
            value = compute()
            self.put(key, kind, value, meta=meta)
            return value

    def delete(self, key: str) -> bool:
        """Remove ``key`` and its payload file; returns whether it existed.

        Used by the pipeline to un-persist stage products that turned
        out tainted (computed from quarantined decodes) — a
        content-addressed key promises the clean value, so a partial one
        must not outlive the run that produced it.
        """
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is None:
                return False
            (self.directory / entry["file"]).unlink(missing_ok=True)
            self._write_index(drop={key})
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def verify(self, *, remove: bool = False) -> list[dict[str, Any]]:
        """Re-hash every payload against the index; report corruption.

        Returns one record per corrupt entry: ``{"key", "file",
        "problem"}`` where ``problem`` is ``"missing"`` (payload file
        gone) or ``"checksum"`` (content drifted from the recorded
        SHA-256).  With ``remove=True`` the corrupt entries are dropped
        from the index — and their payload files deleted — so the next
        campaign recomputes them instead of hard-failing mid-run.
        Healthy entries are never touched.
        """
        with self._lock:
            entries = {k: dict(v) for k, v in self._index.items()}
        corrupt: list[dict[str, Any]] = []
        for key in sorted(entries):
            entry = entries[key]
            path = self.directory / entry["file"]
            if not path.exists():
                corrupt.append(
                    {"key": key, "file": entry["file"], "problem": "missing"}
                )
            elif _file_sha256(path) != entry["sha256"]:
                corrupt.append(
                    {"key": key, "file": entry["file"], "problem": "checksum"}
                )
        if remove and corrupt:
            bad_keys = {record["key"] for record in corrupt}
            with self._lock:
                for record in corrupt:
                    if record["problem"] == "checksum":
                        (self.directory / record["file"]).unlink(
                            missing_ok=True
                        )
                for key in bad_keys:
                    self._index.pop(key, None)
                self._write_index(drop=bad_keys)
        return corrupt
