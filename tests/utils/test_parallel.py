"""Tests for the scatter/gather parallel map over chunk functions."""

from __future__ import annotations

import pytest

from repro.utils.parallel import chunked, effective_workers, pmap


def _square(xs: list[int]) -> list[int]:
    return [x * x for x in xs]


class TestChunked:
    def test_even_split(self):
        assert chunked(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_uneven_split_sizes_differ_by_one(self):
        chunks = chunked(list(range(7)), 3)
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        chunks = chunked([1, 2], 5)
        assert chunks == [[1], [2]]  # empty chunks omitted

    def test_order_preserved(self):
        flat = [x for c in chunked(list(range(100)), 7) for x in c]
        assert flat == list(range(100))

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestEffectiveWorkers:
    def test_auto_at_least_one(self):
        assert effective_workers(None) >= 1
        assert effective_workers(0) >= 1

    def test_explicit_clamped(self):
        assert effective_workers(-3) == 1
        assert effective_workers(4) == 4


class TestPmap:
    def test_serial_map(self):
        assert pmap(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert pmap(_square, [], workers=1) == []

    def test_small_input_stays_serial_even_with_workers(self):
        # Below the parallel threshold the pool must not be spun up;
        # lambdas (unpicklable) prove the serial path was taken.
        assert pmap(lambda xs: [x + 1 for x in xs], [1, 2, 3], workers=4) == [
            2,
            3,
            4,
        ]

    def test_parallel_matches_serial(self):
        items = list(range(100))
        assert pmap(_square, items, workers=2) == [x * x for x in items]

    def test_order_preserved_parallel(self):
        items = list(range(64))
        assert pmap(_square, items, workers=2) == [x * x for x in items]

    def test_serial_path_is_one_call_over_all_items(self):
        calls: list[list[int]] = []

        def record(xs):
            calls.append(list(xs))
            return _square(xs)

        items = list(range(64))
        assert pmap(record, items, workers=1) == [x * x for x in items]
        assert calls == [items]

    def test_pool_runs_one_call_per_chunk(self):
        # Each chunk is one fn call in a worker; the calls counted there
        # merge back into the parent registry.
        from repro.obs.metrics import default_registry

        counter = default_registry().counter("test.pmap.chunk_calls")
        base = counter.value
        items = list(range(64))
        assert pmap(_square_counting_calls, items, workers=2) == [
            x * x for x in items
        ]
        assert counter.value == base + 2 * 4

    def test_wrong_result_count_rejected(self):
        with pytest.raises(ValueError, match="3 items"):
            pmap(lambda xs: xs[:1], [1, 2, 3], workers=1)


class TestReproWorkersEnv:
    def test_env_sets_auto_width(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(None) == 3
        assert effective_workers(0) == 3

    def test_explicit_request_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert effective_workers(2) == 2

    def test_env_clamped_to_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-5")
        assert effective_workers(None) == 1

    def test_env_clamped_to_upper_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "100000")
        assert effective_workers(None) == 256

    def test_non_integer_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            effective_workers(None)

    def test_unset_env_autodetects(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert effective_workers(None) >= 1


class TestWorkersGauge:
    """`parallel.pmap.workers` reports the width actually used."""

    def _gauge(self):
        from repro.obs.metrics import default_registry

        return default_registry().gauge("parallel.pmap.workers")

    def test_serial_fallback_reports_one(self):
        # Too few items for the pool: execution is serial, and the gauge
        # must say so even though 4 workers were requested.
        pmap(_square, [1, 2, 3], workers=4)
        assert self._gauge().value == 1

    def test_explicit_serial_reports_one(self):
        pmap(_square, list(range(64)), workers=1)
        assert self._gauge().value == 1

    def test_parallel_reports_pool_width(self):
        pmap(_square, list(range(64)), workers=2)
        assert self._gauge().value == 2


# ----------------------------------------------------------------------
# worker metrics merge: instrumentation recorded inside pool workers
# must land in the parent registry (the decoder's counters used to be
# silently dropped whenever decode fanned out across processes).
# ----------------------------------------------------------------------
def _square_with_metrics(xs: list[int]) -> list[int]:
    from repro.obs.metrics import default_registry

    reg = default_registry()
    for x in xs:
        reg.counter("test.pmap.metrics.calls").inc()
        reg.histogram("test.pmap.metrics.values", maxlen=256).observe(float(x))
        reg.gauge("test.pmap.metrics.gauge").set(float(x))
    return [x * x for x in xs]


def _square_counting_calls(xs: list[int]) -> list[int]:
    from repro.obs.metrics import default_registry

    default_registry().counter("test.pmap.chunk_calls").inc()
    return [x * x for x in xs]


class TestWorkerMetricsMerge:
    def test_pool_worker_metrics_reach_parent_registry(self):
        from repro.obs.metrics import default_registry

        reg = default_registry()
        counter = reg.counter("test.pmap.metrics.calls")
        hist = reg.histogram("test.pmap.metrics.values", maxlen=256)
        gauge = reg.gauge("test.pmap.metrics.gauge")
        gauge.set(-1.0)
        base_calls = counter.value
        base_count = hist.count
        items = list(range(64))
        assert pmap(_square_with_metrics, items, workers=2) == [
            x * x for x in items
        ]
        assert counter.value == base_calls + len(items)
        assert hist.count == base_count + len(items)
        # Last-value gauges from exited workers are deliberately dropped.
        assert gauge.value == -1.0

    def test_serial_path_unchanged(self):
        from repro.obs.metrics import default_registry

        counter = default_registry().counter("test.pmap.metrics.calls")
        base = counter.value
        items = list(range(8))
        assert pmap(_square_with_metrics, items, workers=1) == [
            x * x for x in items
        ]
        assert counter.value == base + len(items)

    def test_decoder_metrics_survive_pool_fanout(self):
        # The concrete regression: frontend.decoder.decodes recorded in
        # pool workers used to vanish.  Simulate the campaign fan-out by
        # incrementing the decoder's own counter from workers.
        from repro.obs.metrics import default_registry

        import repro.frontend.decoder  # noqa: F401 - registers the counter

        counter = default_registry().counter("frontend.decoder.decodes")
        base = counter.value
        pmap(_inc_decoder_counter, list(range(64)), workers=2)
        assert counter.value == base + 64


def _inc_decoder_counter(xs: list[int]) -> list[int]:
    from repro.obs.metrics import default_registry

    default_registry().counter("frontend.decoder.decodes").inc(len(xs))
    return xs
