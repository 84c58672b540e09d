"""pmap fault tolerance: serial fallback, quarantine, broken pools."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.faults.injection import ENV_VAR, reset_ambient_plan
from repro.obs.metrics import default_registry
from repro.utils.parallel import QuarantineExceededError, pmap

#: Enough items to clear pmap's serial-fallback threshold.
_N = 40


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Fresh metrics and no inherited fault plan for every test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset_ambient_plan()
    default_registry().reset()
    yield
    reset_ambient_plan()
    default_registry().reset()


def _square(xs: list[int]) -> list[int]:
    return [x * x for x in xs]


def _fail_on_tens(xs: list[int]) -> list[int]:
    # A chunk holding any multiple of ten fails as a whole; re-run one
    # item at a time, only the multiples of ten still fail.
    for x in xs:
        if x % 10 == 0:
            raise ValueError(f"bad item {x}")
    return [x * x for x in xs]


def _die_in_worker(xs: list[int]) -> list[int]:
    # Kill the pool worker process outright; the parent's serial re-run
    # (where there is no parent process) computes the value normally.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return [x * x for x in xs]


def _quarantined() -> float:
    return default_registry().counter("parallel.pmap.quarantined").value


def _fallbacks() -> float:
    return (
        default_registry().counter("parallel.pmap.serial_fallbacks").value
    )


class TestQuarantineSerial:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            pmap(_square, [1], on_error="retry")

    def test_fail_mode_propagates(self):
        with pytest.raises(ValueError, match="bad item 0"):
            pmap(_fail_on_tens, range(_N), workers=1)

    def test_quarantine_fills_slots_and_records_indices(self):
        quarantined: list[int] = []
        results = pmap(
            _fail_on_tens,
            range(_N),
            workers=1,
            on_error="quarantine",
            quarantine_value=-1,
            quarantined=quarantined,
        )
        assert quarantined == [0, 10, 20, 30]
        assert [results[i] for i in quarantined] == [-1] * 4
        healthy = [i for i in range(_N) if i % 10 != 0]
        assert all(results[i] == i * i for i in healthy)
        assert _quarantined() == 4

    def test_fraction_ceiling_hard_fails(self):
        with pytest.raises(QuarantineExceededError) as info:
            pmap(
                _fail_on_tens,
                range(_N),
                workers=1,
                on_error="quarantine",
                max_quarantine_fraction=0.05,  # allows 2, we lose 4
            )
        err = info.value
        assert (err.failed, err.total) == (4, _N)
        assert err.max_fraction == 0.05
        assert isinstance(err.last, ValueError)
        # Nothing was quarantined-and-recorded on the failure path.
        assert _quarantined() == 0


class TestPoolFallback:
    def test_failed_chunks_rerun_serially(self):
        quarantined: list[int] = []
        results = pmap(
            _fail_on_tens,
            range(_N),
            workers=2,
            on_error="quarantine",
            quarantine_value=-1,
            quarantined=quarantined,
        )
        assert quarantined == [0, 10, 20, 30]
        healthy = [i for i in range(_N) if i % 10 != 0]
        assert all(results[i] == i * i for i in healthy)
        assert _fallbacks() >= 1

    def test_fail_mode_keeps_original_exception(self):
        with pytest.raises(ValueError, match="bad item"):
            pmap(_fail_on_tens, range(_N), workers=2)

    def test_broken_pool_degrades_to_serial(self):
        # Regression: a worker dying mid-map used to abort the whole
        # call with BrokenProcessPool; now every chunk is recovered
        # serially in the parent and the gauge stops advertising the
        # dead pool's width.
        results = pmap(_die_in_worker, range(_N), workers=2)
        assert results == [x * x for x in range(_N)]
        assert _fallbacks() >= 1
        assert (
            default_registry().gauge("parallel.pmap.workers").value == 1
        )

    def test_worker_fault_injection_recovered_in_parent(self, monkeypatch):
        # The ambient plan fires once per chunk inside pool workers
        # only, so every chunk fails remotely and succeeds in the
        # parent's serial re-run: transient chaos, identical results.
        monkeypatch.setenv(ENV_VAR, "error:pmap:99")
        reset_ambient_plan()
        results = pmap(_square, range(_N), workers=2)
        assert results == [x * x for x in range(_N)]
        assert _fallbacks() >= 1
        assert _quarantined() == 0
