"""Contract of the attempt runner shared by the supervisor and the service."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.execution.attempts import (
    WAIT_S,
    AttemptPool,
    exit_taxonomy,
    retry_delay,
)
from repro.execution.backoff import backoff_delay_s
from repro.execution.shutdown import (
    EXIT_ERROR,
    EXIT_FAULT_INJECTED,
    EXIT_INTERRUPTED,
    EXIT_OK,
)
from repro.telemetry.heartbeat import Heartbeat, write_heartbeat


def _return():
    pass


def _raise():
    raise RuntimeError("target failed")


def _crashpoint_exit():
    os._exit(EXIT_FAULT_INJECTED)


def _sleep():
    time.sleep(60.0)


def _beat_once_then_hang(path):
    write_heartbeat(path, Heartbeat(role="job", updated_at=time.time()))
    time.sleep(60.0)


def _check_env():
    assert os.environ.get("REPRO_TEST_SET") == "1"
    assert "REPRO_TEST_UNSET" not in os.environ


@pytest.fixture
def pool():
    attempts = AttemptPool(stale_after_s=0.2, dispatch_grace_s=5.0)
    yield attempts
    attempts.close()


def finish(pool, timeout_s=30.0):
    """Wait until every attempt left the pool; returns what ``wait`` gave."""
    finished = []
    deadline = time.monotonic() + timeout_s
    while pool.running() and time.monotonic() < deadline:
        finished.extend(pool.wait())
    assert not pool.running(), "attempts did not finish in time"
    return finished


class TestExits:
    @pytest.mark.parametrize(
        "target, code",
        [(_return, EXIT_OK), (_raise, EXIT_ERROR), (_crashpoint_exit, EXIT_FAULT_INJECTED)],
    )
    def test_exit_code_of_the_target(self, pool, target, code):
        pool.launch("a", target)
        [(key, exitcode, elapsed_s, cause)] = finish(pool)
        assert (key, exitcode, cause) == ("a", code, "exit")
        assert elapsed_s >= 0.0

    def test_env_overrides_set_and_unset(self, pool, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_UNSET", "inherited")
        pool.launch(
            "env", _check_env,
            env={"REPRO_TEST_SET": "1", "REPRO_TEST_UNSET": None},
        )
        [finished] = finish(pool)
        assert finished.exitcode == EXIT_OK


class TestLiveness:
    def test_overrun_deadline_is_killed_as_timeout(self, pool):
        pool.launch("slow", _sleep, timeout_s=0.1)
        [finished] = finish(pool, timeout_s=10.0)
        assert finished.cause == "timeout"
        assert finished.exitcode < 0
        assert finished.elapsed_s >= 0.1

    def test_stale_heartbeat_is_killed_as_stalled(self, pool, tmp_path):
        beat = tmp_path / "job.heartbeat.json"
        pool.launch("stuck", _beat_once_then_hang, (beat,), heartbeat=beat)
        [finished] = finish(pool, timeout_s=10.0)
        assert finished.cause == "stalled"
        assert exit_taxonomy(finished.exitcode, stalled=True) == (
            EXIT_INTERRUPTED, "EXIT_INTERRUPTED"
        )

    def test_kill_removes_the_attempt(self, pool):
        pool.launch("k", _sleep)
        pool.kill("k")
        assert pool.running() == ()
        assert pool.wait(0.0) == []

    def test_close_stops_every_attempt(self):
        pool = AttemptPool()
        pid = pool.launch("k", _sleep)
        pool.close()
        assert pool.running() == ()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestWake:
    def test_wake_returns_the_wait_early(self, pool):
        pool.launch("busy", _sleep)
        pool.wake()
        start = time.monotonic()
        assert pool.wait() == []
        assert time.monotonic() - start < WAIT_S
        # Without a wake the same wait runs to its cap.
        start = time.monotonic()
        assert pool.wait() == []
        assert time.monotonic() - start >= WAIT_S * 0.8


class TestThreads:
    def test_launch_kill_wake_from_other_threads(self):
        pool = AttemptPool()
        keys = [f"k{i}" for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def launcher():
                for key in keys:
                    pool.launch(key, _return)

            def killer():
                for key in keys[::3]:
                    pool.kill(key)

            def waker():
                for _ in range(200):
                    pool.wake()
                    pool.running()

            threads = [threading.Thread(target=f) for f in (launcher, killer, waker)]
            for thread in threads:
                thread.start()
            finished = []
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and (
                pool.running() or any(thread.is_alive() for thread in threads)
            ):
                finished.extend(pool.wait())
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        # Every attempt leaves exactly once: returned by wait, or killed
        # (and then never returned).
        returned = [f.key for f in finished]
        assert len(returned) == len(set(returned))
        assert set(returned) <= set(keys)
        assert all(f.exitcode == EXIT_OK and f.cause == "exit" for f in finished)
        assert pool.running() == ()


class TestRetryDelay:
    def test_budget_edges(self):
        kwargs = dict(base_s=0.1, cap_s=5.0, key="run:shard0")
        assert retry_delay(1, 0, **kwargs) is None
        assert retry_delay(1, 2, **kwargs) == backoff_delay_s(1, **kwargs)
        assert retry_delay(2, 2, **kwargs) == backoff_delay_s(2, **kwargs)
        assert retry_delay(3, 2, **kwargs) is None
