"""Utterance-level parallel map over chunks.

The paper's system runs Q phone recognizers *in parallel* over the corpus;
in this reproduction the unit of parallel work is a *chunk* of utterances
decoded in one batched call.  :func:`pmap` provides a scatter/gather idiom
(the pure-Python analogue of the mpi4py ``scatter``/``gather`` pattern from
the HPC guides): ``fn`` maps a list of items to a list of results, the
items are split into contiguous chunks, each chunk is one ``fn`` call in a
process pool, and the results are gathered back in input order.  On a
single-core host — or for small inputs where pickling would dominate — it
is one ``fn`` call over every item in this process, so callers never
branch on the execution environment.

Fault tolerance
---------------
A long campaign's decode fan-out is exactly where per-item failures are
routine (a corrupt utterance, a worker OOM-killed mid-chunk), and losing
a whole map to one of them throws away the expensive part of the run.
``pmap`` therefore degrades in two steps rather than aborting:

1. **Serial fallback** — a pool chunk whose future fails (an exception
   from ``fn``, or the pool itself breaking with ``BrokenProcessPool``
   when a worker dies) is re-run one item at a time, ``fn([item])``, in
   the parent process, counted by ``parallel.pmap.serial_fallbacks``.
   Chunks that already completed are never recomputed.  Once the pool is
   broken all remaining chunks run serially and the
   ``parallel.pmap.workers`` gauge is reset to 1 so it never advertises a
   dead pool's width.
2. **Quarantine** (opt-in, ``on_error="quarantine"``) — an item whose
   one-item call *still* raises is recorded in ``quarantined`` /
   ``parallel.pmap.quarantined`` and its slot filled with
   ``quarantine_value`` instead of propagating.  Without a pool the
   whole-input call is re-run one item at a time the same way when it
   raises.  A configurable fraction cap (``max_quarantine_fraction``)
   turns "a few bad utterances" into a skip-and-record and "most of the
   corpus failing" into a hard :class:`QuarantineExceededError` —
   silently dropping half the data would corrupt every downstream table.

With the default ``on_error="fail"`` an item that still raises on its
own propagates its exception (without a pool, the whole-input call's
exception propagates directly), so transient worker faults are absorbed
but deterministic bugs still surface with their original traceback.

Chaos drills can target the worker side: an ambient
``REPRO_FAULTS=error:pmap:<times>`` plan (see
:mod:`repro.faults.injection`) fires once per chunk *inside pool
workers only*, proving the fallback path end to end without perturbing
the parent's serial re-run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from repro.faults.injection import ambient_plan
from repro.obs.metrics import default_registry

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "pmap",
    "effective_workers",
    "chunked",
    "QuarantineExceededError",
]

# Process-level accounting of the scatter/gather fan-out; worker-side
# metrics stay in the workers, so these parent-side counts are the
# authoritative record of how much work was fanned out and how wide.
_PMAP_CALLS = default_registry().counter("parallel.pmap.calls")
_PMAP_ITEMS = default_registry().counter("parallel.pmap.items")
_PMAP_WORKERS = default_registry().gauge("parallel.pmap.workers")
# Items skipped after failing both pooled and serial execution, and
# chunks re-run serially in the parent after a pool-side failure.
_PMAP_QUARANTINED = default_registry().counter("parallel.pmap.quarantined")
_PMAP_FALLBACKS = default_registry().counter("parallel.pmap.serial_fallbacks")

#: Below this many items the pool overhead is never worth paying.
_MIN_PARALLEL_ITEMS = 32

#: Hard ceiling on any resolved worker count (explicit or from the
#: REPRO_WORKERS environment variable): oversubscribing a host by more
#: than this only adds scheduler churn.
_MAX_WORKERS = 256


class QuarantineExceededError(RuntimeError):
    """Too large a fraction of a map's items failed to be quarantined."""

    def __init__(
        self, failed: int, total: int, max_fraction: float, last: BaseException
    ) -> None:
        super().__init__(
            f"{failed}/{total} items failed "
            f"(> max_quarantine_fraction={max_fraction}); "
            f"last error: {last!r}"
        )
        self.failed = failed
        self.total = total
        self.max_fraction = max_fraction
        self.last = last


def effective_workers(requested: int | None = None) -> int:
    """Resolve a worker count.

    ``None`` or ``0`` means "auto": the ``REPRO_WORKERS`` environment
    variable when set (so deployments — notably ``repro serve`` — size
    their pools without code changes), else ``os.cpu_count() - 1`` capped
    below at 1.  All values, explicit or from the environment, are
    clamped to ``[1, 256]``; a non-integer ``REPRO_WORKERS`` raises
    ``ValueError`` rather than being silently ignored.
    """
    if requested is None or requested == 0:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
        else:
            return max(1, (os.cpu_count() or 1) - 1)
    return min(_MAX_WORKERS, max(1, int(requested)))


def chunked(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into ``n_chunks`` near-equal contiguous chunks.

    Chunks differ in length by at most one; empty chunks are omitted.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n = len(items)
    base, rem = divmod(n, n_chunks)
    out: list[list[T]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < rem else 0)
        if size:
            out.append(list(items[start : start + size]))
        start += size
    return out


def _call(fn: Callable[[list[T]], list[R]], chunk: list[T]) -> list[R]:
    """One ``fn`` call over ``chunk``, checked to return one result each."""
    results = list(fn(chunk))
    if len(results) != len(chunk):
        raise ValueError(
            f"pmap fn returned {len(results)} results for {len(chunk)} items"
        )
    return results


def _apply_chunk(
    fn: Callable[[list[T]], list[R]], chunk: list[T]
) -> tuple[list[R], dict | None]:
    # Chaos hook, pool workers only: the parent's serial fallback must
    # stay injection-free or a transient worker fault would recur there
    # and masquerade as a persistent per-item failure.
    in_worker = multiprocessing.parent_process() is not None
    if in_worker:
        ambient_plan().apply("pmap")
        # A forked worker inherits the parent registry's accumulated
        # values, and pool workers are reused across chunks — reset so
        # the snapshot shipped back is this chunk's delta only.
        default_registry().reset()
    results = _call(fn, chunk)
    metrics = (
        default_registry().snapshot(include_samples=True)
        if in_worker
        else None
    )
    return results, metrics


def _run_items(
    fn: Callable[[list[T]], list[R]],
    chunk: list[T],
    offset: int,
    results: list[R | None],
    failures: list[tuple[int, BaseException]],
    on_error: str,
) -> None:
    """Re-run one chunk item by item in the parent, recording failures."""
    for j, item in enumerate(chunk):
        try:
            (results[offset + j],) = _call(fn, [item])
        except Exception as exc:  # noqa: BLE001 - dispatched on mode
            if on_error == "fail":
                raise
            failures.append((offset + j, exc))


def pmap(
    fn: Callable[[list[T]], list[R]],
    items: Iterable[T],
    workers: int | None = 1,
    *,
    on_error: str = "fail",
    max_quarantine_fraction: float = 0.1,
    quarantine_value: R | None = None,
    quarantined: list[int] | None = None,
) -> list[R]:
    """Map the chunk function ``fn`` over ``items``, optionally in a pool.

    Parameters
    ----------
    fn:
        Maps a list of items to the list of their results, one per item
        and in order.  Must be picklable (a top-level function or a
        functools.partial of one) when ``workers > 1``.
    items:
        Input sequence; results are returned in input order.
    workers:
        ``1`` (default) runs serially: one ``fn`` call over all items.
        ``None``/``0`` auto-sizes to the host.  Any resolved count of 1,
        or fewer than a minimum batch of items, also runs serially;
        otherwise each pool chunk is one ``fn`` call.
    on_error:
        ``"fail"`` (default): after a failed pool chunk is re-run one
        item at a time, an item that still raises propagates its
        exception.
        ``"quarantine"``: persistently failing items are skipped — their
        result slot is filled with ``quarantine_value`` and their index
        appended to ``quarantined`` — unless more than
        ``max_quarantine_fraction`` of all items fail, which raises
        :class:`QuarantineExceededError`.
    max_quarantine_fraction:
        Ceiling on ``len(quarantined) / len(items)`` before the map
        hard-fails (quarantine mode only).
    quarantine_value:
        Placeholder stored for quarantined items (default ``None``).
    quarantined:
        Optional list that receives the input indices of quarantined
        items, in ascending order.
    """
    if on_error not in ("fail", "quarantine"):
        raise ValueError(
            f"on_error must be 'fail' or 'quarantine', got {on_error!r}"
        )
    items = list(items)
    n_workers = effective_workers(workers) if workers != 1 else 1
    serial = n_workers <= 1 or len(items) < _MIN_PARALLEL_ITEMS
    _PMAP_CALLS.inc()
    _PMAP_ITEMS.inc(len(items))
    # The gauge reports the workers actually used: a small batch that
    # falls back to serial execution is 1 worker, whatever was requested.
    _PMAP_WORKERS.set(1 if serial else n_workers)

    results: list[R | None] = [None] * len(items)
    failures: list[tuple[int, BaseException]] = []

    if serial:
        try:
            results = _call(fn, items)
        except Exception:  # noqa: BLE001 - isolated item by item
            if on_error == "fail":
                raise
            _run_items(fn, items, 0, results, failures, on_error)
    else:
        chunks = chunked(items, n_workers * 4)
        offsets: list[int] = []
        pos = 0
        for chunk in chunks:
            offsets.append(pos)
            pos += len(chunk)
        pool = ProcessPoolExecutor(max_workers=n_workers)
        broken = False
        try:
            futures = [
                pool.submit(_apply_chunk, fn, chunk) for chunk in chunks
            ]
            for i, future in enumerate(futures):
                try:
                    chunk_result = future.result()
                except BrokenProcessPool:
                    # A dead worker poisons the whole pool; everything
                    # not yet gathered runs serially from here on.
                    broken = True
                    _PMAP_WORKERS.set(1)
                    _PMAP_FALLBACKS.inc()
                    _run_items(
                        fn, chunks[i], offsets[i], results, failures, on_error
                    )
                except BaseException:  # noqa: BLE001 - retried serially
                    _PMAP_FALLBACKS.inc()
                    _run_items(
                        fn, chunks[i], offsets[i], results, failures, on_error
                    )
                else:
                    chunk_values, worker_metrics = chunk_result
                    if worker_metrics:
                        # Metrics recorded inside the worker (decode
                        # counters, φ histograms, …) would otherwise die
                        # with the pool — merge them into this process.
                        default_registry().absorb(worker_metrics)
                    off = offsets[i]
                    results[off : off + len(chunk_values)] = chunk_values
        finally:
            pool.shutdown(wait=not broken, cancel_futures=True)

    if failures:
        max_failed = int(max_quarantine_fraction * len(items))
        if len(failures) > max_failed:
            raise QuarantineExceededError(
                len(failures), len(items), max_quarantine_fraction,
                failures[-1][1],
            )
        _PMAP_QUARANTINED.inc(len(failures))
        for index, _ in failures:
            results[index] = quarantine_value
            if quarantined is not None:
                quarantined.append(index)
    return results  # type: ignore[return-value]
