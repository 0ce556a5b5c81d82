"""The simulation service: job dispatch, retry, recovery, and HTTP API.

:class:`Service` owns a :class:`~repro.service.jobstore.JobStore` and
drives jobs through their lifecycle with three synchronous ingredients,
all exercised from one :meth:`Service.tick` so tests can single-step the
whole machine deterministically:

- **dispatch** — pops ripe ``queued`` jobs (``not_before`` respected)
  into worker attempts, up to ``workers`` at once.  The state is
  journaled *before* the fork (crashpoint ``service:mid_dispatch`` sits
  in between), so a crash there leaves a durable ``running`` record
  whose orphanhood is detected on restart.
- **settle** — exit 0 plus an attempt-stamped ``result.json`` is
  ``done``; anything else consults the retry budget
  (:func:`~repro.execution.attempts.retry_delay`, seeded jitter keyed on
  the job's seed and id) and either requeues or lands the job in
  ``failed`` with an ``execution.shutdown.EXIT_CODES`` taxonomy entry —
  the job error contract.
- **watchdog** — a live worker whose heartbeat file has gone stale
  (beyond ``stale_after_s``) is presumed stuck, killed, and fed to the
  same retry path.

Forking, waiting, the watchdog and the exit taxonomy belong to the
attempt runner, :class:`~repro.execution.attempts.AttemptPool`; a
submission or cancellation wakes its wait, so a new job is dispatched at
once rather than when some unrelated worker exits.

**Recovery** (:meth:`Service.recover`, run at startup) replays the same
rules against whatever a crash left behind: an active job with a
published result for its attempt is adopted as ``done`` (never re-run,
never double-counted); any other active job is orphaned — its recorded
worker pid is killed if still alive — and requeued through the seeded
backoff, so a crash-restart loop is bounded by ``max_retries``.

The HTTP layer (:class:`ServiceServer`) is a stdlib
``ThreadingHTTPServer`` sharing the store lock with the dispatch loop.
``GET /jobs/<id>`` supports ``?wait_s=`` long-polling so clients can
stream status cheaply; ``GET /jobs/<id>/trace`` tails the job's trace via
:func:`repro.analysis.watch.tail_trace_round` (columnar or JSONL);
``/metrics`` renders the same exposition
:class:`repro.telemetry.prometheus.MetricsServer` serves when a separate
metrics port is configured.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from typing import Any, Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.execution import faults
from repro.execution.attempts import WAIT_S, AttemptPool, exit_taxonomy, retry_delay
from repro.execution.shutdown import EXIT_OK
from repro.service.jobstore import (
    ACTIVE_STATES,
    JOB_STATES,
    JobStore,
    JobStoreError,
    Job,
)
from repro.service.worker import (
    SpecError,
    job_trace_path,
    job_worker_main,
    read_result,
    validate_spec,
)
from repro.telemetry.heartbeat import heartbeat_path, read_heartbeat
from repro.telemetry.prometheus import (
    MetricFamily,
    MetricsServer,
    heartbeat_families,
    render_exposition,
)

__all__ = [
    "ServiceConfig",
    "Service",
    "ServiceServer",
    "serve",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for the service loop.

    Attributes:
        workers: concurrent worker processes draining the queue.
        stale_after_s: heartbeat age past which a live worker is presumed
            stuck and killed (the watchdog clock).
        dispatch_grace_s: how long a freshly dispatched worker may run
            before its first heartbeat must exist.
        backoff_base_s / backoff_cap_s: the requeue delay schedule fed to
            :func:`~repro.execution.backoff.backoff_delay_s`.
        default_max_retries: failure budget for submissions that don't
            name their own.
        compact_bytes: journal size that triggers auto-compaction.
    """

    workers: int = 1
    stale_after_s: float = 30.0
    dispatch_grace_s: float = 10.0
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    default_max_retries: int = 2
    compact_bytes: int = 256 * 1024


class Service:
    """The job machine: store + attempt pool + retry policy + recovery."""

    def __init__(self, root, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(root, compact_bytes=self.config.compact_bytes)
        self.root = self.store.root
        self.pool = AttemptPool(
            stale_after_s=self.config.stale_after_s,
            dispatch_grace_s=self.config.dispatch_grace_s,
        )
        self._lock = threading.RLock()
        self.recover()

    # -- recovery ---------------------------------------------------------

    def recover(self) -> List[str]:
        """Reconcile journal state with reality after a (re)start.

        Returns the ids of jobs whose state changed.  Active jobs are
        orphans by construction here (no child of this process exists
        yet): adopt a published result when the attempt stamp matches,
        otherwise kill any surviving worker pid and requeue through the
        retry budget.
        """
        changed: List[str] = []
        for job in self.store.jobs():
            if job.state not in ACTIVE_STATES:
                continue
            result = read_result(self.store.job_dir(job.id), attempt=job.attempt)
            if result is not None:
                self.store.transition(
                    job.id, "done", result=result, worker_pid=None
                )
                changed.append(job.id)
                continue
            self._kill_pid(job.worker_pid)
            self._fail_or_requeue(
                job, error=f"orphaned at attempt {job.attempt} by server restart"
            )
            changed.append(job.id)
        return changed

    @staticmethod
    def _kill_pid(pid: Optional[int]) -> None:
        if not pid or pid == os.getpid():
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    # -- the retry path ---------------------------------------------------

    def _fail_or_requeue(
        self,
        job: Job,
        *,
        error: str,
        exitcode: Optional[int] = None,
    ) -> Job:
        retries = job.retries + 1
        delay = retry_delay(
            retries,
            job.max_retries,
            base_s=self.config.backoff_base_s,
            cap_s=self.config.backoff_cap_s,
            key=f"{job.spec.get('seed', 0)}:{job.id}",
        )
        if delay is None:
            code, name = exit_taxonomy(exitcode)
            return self.store.transition(
                job.id,
                "failed",
                retries=retries,
                worker_pid=None,
                error=error,
                exit_code=code,
                exit_name=name,
            )
        return self.store.transition(
            job.id,
            "queued",
            retries=retries,
            worker_pid=None,
            not_before=time.time() + delay,
            backoff_s=delay,
            error=error,
        )

    # -- submission / cancellation ----------------------------------------

    def submit(
        self, payload: Dict[str, Any], *, max_retries: Optional[int] = None
    ) -> Job:
        """Validate and durably enqueue a submission payload."""
        spec = validate_spec(payload)
        budget = (
            self.config.default_max_retries
            if max_retries is None
            else int(max_retries)
        )
        job = self.store.submit(spec, max_retries=budget)
        self.pool.wake()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or active job (kills its worker if one runs)."""
        with self._lock:
            job = self.store.get(job_id)
            if job.terminal:
                raise JobStoreError(
                    f"job {job_id} is already {job.state}; cannot cancel"
                )
            self.pool.kill(job_id)
            job = self.store.transition(
                job_id, "cancelled", worker_pid=None, error="cancelled by client"
            )
        self.pool.wake()  # a worker slot may have freed up
        return job

    # -- the loop ----------------------------------------------------------

    def tick(self) -> int:
        """One non-blocking step: settle finished workers, then dispatch.

        Returns the number of jobs whose state changed, so callers (and
        tests) can drive the machine to quiescence deterministically.
        """
        return self._step(0.0)

    def _step(self, wait_s: float) -> int:
        finished = self.pool.wait(wait_s)
        with self._lock:
            return self._settle(finished) + self._dispatch_ready()

    def _settle(self, finished) -> int:
        changed = 0
        for job_id, exitcode, _, cause in finished:
            job = self.store.get(job_id)
            if job.state not in ACTIVE_STATES:  # cancelled while it exited
                continue
            changed += 1
            result = read_result(self.store.job_dir(job_id), attempt=job.attempt)
            if exitcode == EXIT_OK and result is not None:
                self.store.transition(
                    job_id, "done", result=result, worker_pid=None, error=None
                )
                continue
            # A stalled worker was SIGKILLed, so its exit code already maps
            # to EXIT_INTERRUPTED in the taxonomy.
            if cause == "stalled":
                error = (
                    f"worker heartbeat stale beyond "
                    f"{self.config.stale_after_s}s; killed"
                )
            elif result is None:
                error = f"worker exited {exitcode} without a valid result"
            else:
                error = f"worker exited {exitcode}"
            self._fail_or_requeue(job, error=error, exitcode=exitcode)
        return changed

    def _dispatch_ready(self) -> int:
        free = self.config.workers - len(self.pool.running())
        if free <= 0:
            return 0
        now = time.time()
        ready = [
            job for job in self.store.jobs()
            if job.state == "queued" and job.not_before <= now
        ][:free]
        for job in ready:
            self._dispatch(job)
        return len(ready)

    def _dispatch(self, job: Job) -> None:
        attempt = job.attempt + 1
        # First attempts run as ``running``; re-dispatches surface as
        # ``degraded`` so the dashboard never hides a retried job.
        to = "running" if attempt == 1 else "degraded"
        self.store.transition(job.id, to, attempt=attempt, error=None)
        # The durable state says "running" but no worker exists yet — the
        # window the restart recovery path must close.
        faults.crashpoint("service:mid_dispatch")
        jobdir = self.store.job_dir(job.id)
        jobdir.mkdir(parents=True, exist_ok=True)
        # Workers run with REPRO_FAULT unset: the service's crashpoints
        # target the server, and must never fire inside a job and
        # masquerade as a compute failure.
        pid = self.pool.launch(
            job.id, job_worker_main, (job.spec, str(jobdir), attempt),
            env={faults.FAULT_ENV_VAR: None},
            heartbeat=self._heartbeat_file(job.id),
        )
        # Self-loop transition: same state, records the worker pid so a
        # later recovery can put the orphan down before requeueing.
        self.store.transition(job.id, to, worker_pid=pid)

    def drain(self, *, timeout_s: float = 60.0) -> bool:
        """Step until no queued/active jobs remain; True if fully drained."""
        deadline = time.monotonic() + timeout_s
        wait_s = 0.0
        while time.monotonic() < deadline:
            self._step(wait_s)
            counts = self.store.counts()
            if not any(counts[state] for state in ("queued", *ACTIVE_STATES)):
                return True
            wait_s = WAIT_S
        return False

    def run(self, guard=None) -> None:
        """Step until ``guard`` requests a stop (or forever)."""
        try:
            while guard is None or not guard.requested:
                self._step(WAIT_S)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful stop: park active jobs back in the queue, compact, close.

        A shutdown requeue does *not* consume a retry — stopping the
        server is not the job's failure — so a rolling restart never
        burns a job's budget.
        """
        with self._lock:
            running = self.pool.running()
            self.pool.close()
            for job_id in running:
                job = self.store.get(job_id)
                if job.state in ACTIVE_STATES:
                    self.store.transition(
                        job_id,
                        "queued",
                        worker_pid=None,
                        not_before=0.0,
                        error="requeued by server shutdown",
                    )
            try:
                self.store.compact()
            except JobStoreError:
                pass
            self.store.close()

    # -- observability -----------------------------------------------------

    def _heartbeat_file(self, job_id: str) -> Path:
        return heartbeat_path(self.store.job_dir(job_id) / "job")

    def metrics_text(self) -> str:
        """Prometheus exposition: job-state gauges + live job heartbeats.

        Heartbeats are read only for jobs with a live attempt, each
        labelled ``job="<id>"``, so every series is unique and a scrape
        costs the same however many jobs the service has served.
        """
        running = self.pool.running()
        beats = {job_id: read_heartbeat(self._heartbeat_file(job_id)) for job_id in running}
        live = [(job_id, beat) for job_id, beat in beats.items() if beat is not None]
        counts = self.store.counts()
        jobs = self.store.jobs()
        families = [
            MetricFamily(
                "repro_service_jobs", "gauge",
                "Jobs per lifecycle state.",
                [((("state", state),), float(counts[state]))
                 for state in JOB_STATES],
            ),
            MetricFamily(
                "repro_service_journal_seq", "gauge",
                "Last applied job-journal sequence number.",
                [((), float(self.store.seq))],
            ),
            MetricFamily(
                "repro_service_retries_total", "counter",
                "Worker attempts beyond the first, summed over jobs.",
                [((), float(sum(job.retries for job in jobs)))],
            ),
            MetricFamily(
                "repro_service_workers_busy", "gauge",
                "Worker processes currently attached to a job.",
                [((), float(len(running)))],
            ),
        ]
        families.extend(heartbeat_families(
            [beat for _, beat in live],
            extra_labels=[(("job", job_id),) for job_id, _ in live],
        ))
        return render_exposition(families)

    def job_document(self, job_id: str) -> Dict[str, Any]:
        """A job plus its live heartbeat, as served by the API."""
        job = self.store.get(job_id)
        doc = job.to_dict()
        beat = read_heartbeat(self._heartbeat_file(job_id))
        doc["heartbeat"] = beat.to_dict() if beat is not None else None
        return doc

    def trace_tail(self, job_id: str) -> Dict[str, Any]:
        """The last complete round of the job's trace (404 material if off)."""
        from repro.analysis.watch import tail_trace_round

        job = self.store.get(job_id)
        path = job_trace_path(self.store.job_dir(job_id), job.spec)
        if path is None:
            raise JobStoreError(
                f"job {job_id} was submitted without tracing "
                f"(spec 'trace' is null)"
            )
        tail = tail_trace_round(path) if path.exists() else None
        return {"job": job_id, "trace": str(path), "round": tail}


# ---------------------------------------------------------------------------
# HTTP layer


class _Handler(BaseHTTPRequestHandler):
    service: Service

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the service loop owns stderr; HTTP chatter stays quiet

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_text(
            status, json.dumps(payload, sort_keys=True),
            "application/json; charset=utf-8",
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode() or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise SpecError("request body must be a JSON object")
        return payload

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path in ("/", "/healthz"):
                self._send_json(200, {
                    "ok": True,
                    "pid": os.getpid(),
                    "root": str(service.root),
                    "counts": service.store.counts(),
                    "seq": service.store.seq,
                })
            elif url.path == "/metrics":
                self._send_text(
                    200,
                    service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif url.path == "/jobs":
                self._send_json(200, {
                    "jobs": [job.to_dict() for job in service.store.jobs()],
                    "counts": service.store.counts(),
                })
            elif len(parts) == 2 and parts[0] == "jobs":
                query = parse_qs(url.query)
                wait_s = float(query.get("wait_s", ["0"])[0])
                doc = self._wait_for_job(service, parts[1], wait_s)
                self._send_json(200, doc)
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                job = service.store.get(parts[1])
                if job.result is None:
                    self._send_json(404, {
                        "error": f"job {parts[1]} has no result "
                                 f"(state: {job.state})"
                    })
                else:
                    self._send_json(200, {"job": job.id, "result": job.result})
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                self._send_json(200, service.trace_tail(parts[1]))
            else:
                self._send_json(404, {"error": f"no such endpoint {url.path}"})
        except JobStoreError as exc:
            self._send_json(404, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": str(exc)})

    def _wait_for_job(self, service: Service, job_id: str, wait_s: float) -> Dict[str, Any]:
        """Long-poll: return early state changes, else the deadline's view."""
        deadline = time.monotonic() + min(max(wait_s, 0.0), 60.0)
        doc = service.job_document(job_id)
        initial = (doc["state"], doc["attempt"])
        while time.monotonic() < deadline:
            if doc["state"] in ("done", "failed", "cancelled"):
                break
            if (doc["state"], doc["attempt"]) != initial:
                break
            time.sleep(0.05)
            doc = service.job_document(job_id)
        return doc

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/jobs":
                payload = self._read_body()
                max_retries = payload.pop("max_retries", None)
                job = service.submit(payload, max_retries=max_retries)
                self._send_json(201, {"job": job.to_dict()})
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                job = service.cancel(parts[1])
                self._send_json(200, {"job": job.to_dict()})
            elif url.path == "/admin/compact":
                service.store.compact()
                self._send_json(200, {
                    "ok": True,
                    "seq": service.store.seq,
                    "journal_bytes": service.store.journal_path.stat().st_size,
                })
            else:
                self._send_json(404, {"error": f"no such endpoint {url.path}"})
        except SpecError as exc:
            self._send_json(400, {"error": str(exc)})
        except JobStoreError as exc:
            self._send_json(409, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": str(exc)})


class ServiceServer(MetricsServer):
    """The HTTP front: a daemon-threaded stdlib server bound to ``service``.

    ``port=0`` binds an ephemeral port at :meth:`start`; :attr:`url`
    reports the real one.  Start/stop and the context manager are
    :class:`repro.telemetry.prometheus.MetricsServer`'s, so the CLI
    manages both uniformly.
    """

    _path = ""

    def __init__(
        self, service: Service, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(service.metrics_text, port=port, host=host)
        self.service = service

    def _handler(self) -> type:
        return type("Handler", (_Handler,), {"service": self.service})


def serve(
    root,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: Optional[int] = None,
    config: Optional[ServiceConfig] = None,
    guard=None,
    stream=None,
) -> int:
    """Run the service until the guard asks to stop; returns an exit code.

    Prints ``service: listening on <url>`` (and ``metrics: serving
    <url>`` when a metrics port is requested) to ``stream`` — the
    machine-readable handshake `scripts/service_smoke.py` parses, in the
    same shape as the CLI's metrics announcement.
    """
    import sys

    out = sys.stderr if stream is None else stream
    service = Service(root, config)
    server = ServiceServer(service, host=host, port=port)
    server.start()
    print(f"service: listening on {server.url}", file=out, flush=True)
    metrics_server = None
    if metrics_port is not None:
        metrics_server = MetricsServer(
            service.metrics_text, port=metrics_port, host=host
        ).start()
        print(f"metrics: serving {metrics_server.url}", file=out, flush=True)
    try:
        service.run(guard)
    finally:
        server.stop()
        if metrics_server is not None:
            metrics_server.stop()
    return EXIT_OK
