"""Worker attempts: the one module that starts, watches and stops worker processes.

The shard supervisor (:mod:`repro.execution.supervisor`) and the job
service (:mod:`repro.service.server`) both run units of work — a shard, a
job — as forked *attempts* that may crash, hang or stall, and both retry a
failed attempt after a seeded backoff.  Everything about the processes
themselves lives here; the two callers are policies that decide what to
launch and what a finished attempt means:

* **Launch** (:meth:`AttemptPool.launch`) forks with the ``fork`` start
  method, holding the heap under ``gc.freeze()`` across the fork so the
  child's first collection does not copy-on-write-fault every inherited
  page.  Each attempt carries one liveness rule: a monotonic deadline
  (``timeout_s``), or a heartbeat file that must stay fresher than the
  pool's ``stale_after_s`` once ``dispatch_grace_s`` has passed.
* **Child entry.**  The child restores the default SIGTERM action (so
  :meth:`AttemptPool.close` can terminate it even when the parent runs
  under a :class:`~repro.execution.shutdown.ShutdownGuard`), applies the
  caller's environment overrides (``None`` unsets a variable), resets the
  crashpoint visit counters, runs the target, flushes stdio and leaves by
  ``os._exit``: ``EXIT_OK``, or ``EXIT_ERROR`` with a traceback on stderr
  if the target raised.  A ``REPRO_FAULT`` crashpoint still exits 86.
* **Wait** (:meth:`AttemptPool.wait`) blocks on every worker's sentinel
  plus a wake handle for at most :data:`WAIT_S`, kills attempts that are
  overdue (cause ``"timeout"``) or stalled (cause ``"stalled"``), and
  returns every finished attempt as a :class:`Finished`
  ``(key, exitcode, elapsed_s, cause)``.  :meth:`AttemptPool.wake`,
  callable from any thread, ends a pending wait at once.
* **Classification and retry.**  :func:`exit_taxonomy` maps an exit to
  the ``EXIT_CODES`` entry a failed job reports; :func:`retry_delay`
  is the seeded backoff before the next attempt, or ``None`` once the
  retry budget is spent.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from repro.execution import faults
from repro.execution.backoff import backoff_delay_s
from repro.execution.shutdown import EXIT_CODES, EXIT_ERROR, EXIT_INTERRUPTED, EXIT_OK
from repro.telemetry.heartbeat import read_heartbeat

__all__ = [
    "WAIT_S",
    "AttemptPool",
    "Finished",
    "exit_taxonomy",
    "retry_delay",
]

WAIT_S = 0.05
"""Longest one :meth:`AttemptPool.wait` blocks (the watchdog's tick)."""

_EXIT_NAMES = {value: name for name, value, _ in EXIT_CODES}


def exit_taxonomy(exitcode: Optional[int], *, stalled: bool = False) -> Tuple[int, str]:
    """Map a worker's death to the ``EXIT_CODES`` taxonomy entry.

    A stalled worker (killed by the watchdog) and any signal death map to
    ``EXIT_INTERRUPTED`` — the run was cut down mid-flight, not wrong.
    A worker that exited with a known taxonomy code keeps it; anything
    else is ``EXIT_ERROR``.

    >>> exit_taxonomy(-9)
    (5, 'EXIT_INTERRUPTED')
    >>> exit_taxonomy(177)
    (1, 'EXIT_ERROR')
    """
    if stalled or exitcode is None or exitcode < 0:
        return EXIT_INTERRUPTED, _EXIT_NAMES[EXIT_INTERRUPTED]
    if exitcode in _EXIT_NAMES:
        return exitcode, _EXIT_NAMES[exitcode]
    return EXIT_ERROR, _EXIT_NAMES[EXIT_ERROR]


def retry_delay(
    failures: int, max_retries: int, *, base_s: float, cap_s: float, key: str
) -> Optional[float]:
    """Seconds to wait before retrying after ``failures`` failed attempts.

    ``None`` means the budget is spent (``failures > max_retries``) and
    the caller should quarantine or fail the unit of work.  Otherwise the
    delay is :func:`~repro.execution.backoff.backoff_delay_s` for retry
    number ``failures`` under ``key``.

    >>> retry_delay(1, 0, base_s=0.1, cap_s=5.0, key="k") is None
    True
    >>> 0.1 <= retry_delay(2, 2, base_s=0.1, cap_s=5.0, key="k") < 0.2
    True
    """
    if failures > max_retries:
        return None
    return backoff_delay_s(failures, base_s=base_s, cap_s=cap_s, key=key)


class Finished(NamedTuple):
    """One attempt that left the pool.

    ``cause`` is ``"exit"`` (the worker ended on its own), ``"timeout"``
    (killed past its deadline) or ``"stalled"`` (killed for a stale or
    missing heartbeat); ``exitcode`` is negative for a signal death.
    """

    key: Hashable
    exitcode: Optional[int]
    elapsed_s: float
    cause: str


@dataclass
class _Attempt:
    process: Any
    started_at: float
    deadline: Optional[float]
    heartbeat: Optional[Path]
    checked_at: float


def _attempt_main(
    target: Callable[..., Any], args: Tuple[Any, ...], env: Dict[str, Optional[str]]
) -> None:
    """Child-process entry: run ``target(*args)`` and exit by taxonomy."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for name, value in env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    # A forked child inherits the parent's crashpoint visit counters;
    # every attempt counts its own visits from zero.
    faults.reset()
    code = EXIT_OK
    try:
        target(*args)
    except Exception:  # the exit code *is* the error channel
        traceback.print_exc()
        code = EXIT_ERROR
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def _stop(process: Any) -> None:
    process.kill()
    process.join(timeout=5.0)


class AttemptPool:
    """The live worker attempts of one supervisor run or one service.

    Keys identify attempts (a shard index, a job id); a key is live from
    :meth:`launch` until :meth:`wait` returns it or :meth:`kill` stops it.
    The pool is safe to share between threads.

    Args:
        stale_after_s: heartbeat age past which an attempt launched with
            ``heartbeat=`` is killed as stalled (``None``: never).
        dispatch_grace_s: how long such an attempt may run before its
            first heartbeat must exist.
    """

    def __init__(
        self,
        *,
        stale_after_s: Optional[float] = None,
        dispatch_grace_s: float = 10.0,
    ) -> None:
        self._context = multiprocessing.get_context("fork")
        self._stale_after_s = stale_after_s
        self._dispatch_grace_s = dispatch_grace_s
        self._attempts: Dict[Hashable, _Attempt] = {}
        self._lock = threading.Lock()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)

    def running(self) -> Tuple[Hashable, ...]:
        """Keys of the live attempts, in launch order."""
        with self._lock:
            return tuple(self._attempts)

    def launch(
        self,
        key: Hashable,
        target: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        *,
        env: Optional[Dict[str, Optional[str]]] = None,
        timeout_s: Optional[float] = None,
        heartbeat: Optional[Path] = None,
    ) -> int:
        """Fork one attempt running ``target(*args)``; returns its pid."""
        process = self._context.Process(
            target=_attempt_main, args=(target, args, dict(env or {})), daemon=True
        )
        # The child forks with the frozen view of the heap, then the
        # parent unfreezes itself (E13f: 10-20% of a smoke-sized job).
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        now = time.monotonic()
        deadline = None if timeout_s is None else now + timeout_s
        with self._lock:
            self._attempts[key] = _Attempt(process, now, deadline, heartbeat, now)
        return process.pid

    def wake(self) -> None:
        """End the current (or next) :meth:`wait` early; any thread may call."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # buffer full (a wake is pending anyway) or closed
            pass

    def wait(self, timeout: float = WAIT_S) -> List[Finished]:
        """Block up to ``min(timeout, WAIT_S)``, then collect finished attempts.

        Returns early when a worker exits, a deadline passes or
        :meth:`wake` is called.  Overdue and stalled attempts are killed
        here and returned with their cause.
        """
        with self._lock:
            handles = [attempt.process.sentinel for attempt in self._attempts.values()]
            deadlines = [
                attempt.deadline
                for attempt in self._attempts.values()
                if attempt.deadline is not None
            ]
        now = time.monotonic()
        timeout = min([timeout, WAIT_S] + [deadline - now for deadline in deadlines])
        multiprocessing.connection.wait([*handles, self._wake_r], max(0.0, timeout))
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:  # drained
            pass
        return self._collect()

    def _collect(self) -> List[Finished]:
        finished: List[Finished] = []
        with self._lock:
            now = time.monotonic()
            for key, attempt in list(self._attempts.items()):
                if not attempt.process.is_alive():
                    attempt.process.join()
                    cause = "exit"
                elif attempt.deadline is not None and now >= attempt.deadline:
                    _stop(attempt.process)
                    cause = "timeout"
                elif self._stalled(attempt, now):
                    _stop(attempt.process)
                    cause = "stalled"
                else:
                    continue
                del self._attempts[key]
                finished.append(
                    Finished(key, attempt.process.exitcode, now - attempt.started_at, cause)
                )
        return finished

    def _stalled(self, attempt: _Attempt, now: float) -> bool:
        """Heartbeat watchdog, rate-limited: each check reads a file.

        Staleness only needs noticing within a fraction of
        ``stale_after_s``; reading the file on every wait would steal
        disk and CPU from the workers on single-core hosts.
        """
        if attempt.heartbeat is None or self._stale_after_s is None:
            return False
        if now - attempt.checked_at < min(1.0, self._stale_after_s / 4.0):
            return False
        attempt.checked_at = now
        beat = read_heartbeat(attempt.heartbeat)
        if beat is None:
            # No heartbeat yet (or torn): allow the dispatch grace period.
            return now - attempt.started_at > self._dispatch_grace_s
        return beat.age_s() > self._stale_after_s

    def kill(self, key: Hashable) -> None:
        """Stop one attempt (if live); it is not returned by :meth:`wait`."""
        with self._lock:
            attempt = self._attempts.pop(key, None)
        if attempt is not None:
            _stop(attempt.process)

    def close(self) -> None:
        """Terminate every live attempt (kill after 5 s) and release the pool."""
        with self._lock:
            attempts = list(self._attempts.values())
            self._attempts.clear()
        for attempt in attempts:
            if attempt.process.is_alive():
                attempt.process.terminate()
        for attempt in attempts:
            attempt.process.join(timeout=5.0)
            if attempt.process.is_alive():  # pragma: no cover - SIGTERM is default
                _stop(attempt.process)
        self._wake_r.close()
        self._wake_w.close()
