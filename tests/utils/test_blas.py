"""Tests for the one-thread BLAS scope around the Gram products."""

from __future__ import annotations

import threading

import numpy as np

from repro.utils.blas import blas_threads, single_threaded_blas


def test_scope_runs_on_one_thread_and_restores():
    before = blas_threads()
    with single_threaded_blas():
        assert blas_threads() in (None, 1)
        with single_threaded_blas():
            assert blas_threads() in (None, 1)
        assert blas_threads() in (None, 1)
    assert blas_threads() == before


def test_overlapping_scopes_from_threads_restore_once():
    """The last thread to leave restores the count the first one saved."""
    before = blas_threads()
    inside = threading.Barrier(3)
    leave = threading.Event()

    def hold():
        with single_threaded_blas():
            inside.wait()
            leave.wait()

    workers = [threading.Thread(target=hold) for _ in range(2)]
    for worker in workers:
        worker.start()
    inside.wait()
    assert blas_threads() in (None, 1)
    leave.set()
    for worker in workers:
        worker.join()
    assert blas_threads() == before


def test_products_are_unchanged_on_one_thread():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 300))
    expected = a @ a.T
    with single_threaded_blas():
        np.testing.assert_allclose(a @ a.T, expected, rtol=1e-12)
