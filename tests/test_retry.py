from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from egolog.errors import BackendProtocolError, TransportError
from egolog.retry import call_with_retries, map_in_order


class Flaky:
    """Fails with TransportError n times, then returns a value."""

    def __init__(self, failures: int, value: str = "ok"):
        self.failures = failures
        self.value = value
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError(f"boom {self.calls}")
        return self.value


class TestCallWithRetries:
    def test_success_first_try_no_sleep(self):
        slept = []
        result = call_with_retries(Flaky(0), sleep=slept.append)
        assert result == "ok"
        assert slept == []

    def test_recovers_within_budget(self):
        fn = Flaky(2)
        slept = []
        result = call_with_retries(fn, sleep=slept.append)
        assert result == "ok"
        assert fn.calls == 3
        assert slept == [1.0, 2.0]

    def test_budget_exhausted_raises_last_error(self):
        fn = Flaky(5)
        slept = []
        with pytest.raises(TransportError, match="boom 3"):
            call_with_retries(fn, sleep=slept.append)
        assert fn.calls == 3
        # no sleep after the final failure
        assert slept == [1.0, 2.0]

    def test_non_transport_errors_not_retried(self):
        calls = []

        def fn():
            calls.append(1)
            raise BackendProtocolError("bad body")

        with pytest.raises(BackendProtocolError):
            call_with_retries(fn, sleep=lambda s: None)
        assert len(calls) == 1

    def test_warning_logged_on_retry(self, caplog):
        with caplog.at_level("WARNING", logger="egolog.retry"):
            call_with_retries(Flaky(1), sleep=lambda s: None)
        assert any("retrying" in rec.message for rec in caplog.records)
        assert [rec.getMessage() for rec in caplog.records] == [
            "backend call failed (attempt 1/3): boom 1; retrying in 1.0s"
        ]


class TestMapInOrder:
    def test_results_in_item_order_when_later_items_finish_first(self):
        def slow_first(i):
            time.sleep((8 - i) * 0.002)
            return i * i

        with ThreadPoolExecutor(4) as pool:
            assert map_in_order(slow_first, range(8), pool) == [i * i for i in range(8)]

    @pytest.mark.parametrize("items", [[1, 2, 3], [1], [1, 2]])
    def test_runs_in_the_callers_thread(self, items):
        caller = threading.get_ident()
        assert map_in_order(lambda _: threading.get_ident(), items) == [caller] * len(
            items
        )

    @pytest.mark.parametrize("items", [[1], [1, 2, 3]])
    def test_every_call_runs_on_the_given_pool(self, items):
        with ThreadPoolExecutor(2, thread_name_prefix="given") as pool:
            names = map_in_order(lambda _: threading.current_thread().name, items, pool)
        assert len(names) == len(items)
        assert all(name.startswith("given") for name in names)

    def test_error_propagates_after_running_calls_finish(self):
        started, finished = threading.Event(), []

        def fn(i):
            if i == 0:
                assert started.wait(timeout=5)
                raise ValueError("first")
            started.set()
            time.sleep(0.05)
            finished.append(i)

        with ThreadPoolExecutor(2) as pool:
            with pytest.raises(ValueError, match="first"):
                map_in_order(fn, [0, 1], pool)
            assert finished == [1]

    def test_nested_maps_do_not_wait_on_each_other(self):
        # outer calls wait only on the inner pool, inner calls on no pool
        results = []
        outer_pool, inner_pool = ThreadPoolExecutor(2), ThreadPoolExecutor(2)

        def outer(i):
            return map_in_order(lambda j: (i, j), range(3), inner_pool)

        worker = threading.Thread(
            target=lambda: results.append(map_in_order(outer, range(4), outer_pool))
        )
        try:
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        finally:
            outer_pool.shutdown(wait=False)
            inner_pool.shutdown(wait=False)
        assert results == [[[(i, j) for j in range(3)] for i in range(4)]]
