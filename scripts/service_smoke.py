#!/usr/bin/env python
"""Kill-and-restart chaos smoke for the job service (`repro serve`).

For each supported site this script drives the full crash protocol
against a real server subprocess:

1. computes a baseline result for a fixed job spec with an in-process
   :class:`~repro.service.server.Service` (no HTTP, no faults);
2. starts ``python -m repro serve`` in a subprocess with ``REPRO_FAULT``
   armed (or, for the ``kill:mid_job`` site, unarmed) and submits the
   same spec over HTTP;
3. kills the server mid-job — either the armed crashpoint fires
   (``os._exit(86)``, the stdlib stand-in for SIGKILL) or, for
   ``kill:mid_job``, the smoke SIGKILLs the server *and* its worker the
   moment the job's first checkpoint exists;
4. restarts the server over the same root with no fault armed and waits
   for the journal to converge;
5. asserts **no job was lost or duplicated**, the job reached the state
   the crash shape demands, and the recovered result is **bit-identical**
   to the uninterrupted baseline.

Site-specific invariants:

``jobstore:mid_commit:2``
    The dispatch transition (commit 2: ``queued → running``) tears
    mid-frame.  Restart must salvage the torn tail, see the job still
    ``queued``, and run it to ``done`` on attempt 1.

``service:mid_dispatch:1``
    The ``running`` state is durable but the worker was never forked.
    Restart must detect the orphan, requeue with ``retries == 1``, and
    finish on attempt 2.

``jobstore:mid_compact:1``
    The job finishes first; the crash lands between snapshot publish and
    journal reset (``POST /admin/compact``).  Restart must replay the
    snapshot, skip the stale journal records idempotently, and preserve
    the completed job bit-for-bit.

``kill:mid_job``
    SIGKILL server + worker after the first checkpoint write.  Restart
    must requeue the orphan and resume **from the checkpoint**
    (``result["resumed"] is True``) to a bit-identical result.

Usage:
    PYTHONPATH=src python scripts/service_smoke.py jobstore:mid_commit:2
    PYTHONPATH=src python scripts/service_smoke.py service:mid_dispatch:1
    PYTHONPATH=src python scripts/service_smoke.py jobstore:mid_compact:1
    PYTHONPATH=src python scripts/service_smoke.py kill:mid_job

Exit 0 on pass, 1 on any violated invariant.  Driven by
``make service-smoke`` and the CI ``service-smoke`` matrix.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.execution.shutdown import EXIT_FAULT_INJECTED  # noqa: E402
from repro.service import Service, ServiceConfig  # noqa: E402

# Fixed job: small enough to finish in seconds, long enough that the
# kill:mid_job site has a wide window after the first checkpoint.
SPEC = {
    "kind": "ensemble",
    "protocol": "voter",
    "n": 96,
    "z": 1,
    "max_rounds": 5000,
    "replicas": 8,
    "seed": 7,
    "checkpoint_every": 1,
    "heartbeat_every_s": 0.1,
}
KILL_SPEC = {**SPEC, "replicas": 40}

SITES = (
    "jobstore:mid_commit:2",
    "service:mid_dispatch:1",
    "jobstore:mid_compact:1",
    "kill:mid_job",
)

TERMINAL = {"done", "failed", "cancelled"}


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def http_json(url: str, payload=None, timeout: float = 90.0):
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        method="GET" if payload is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode())


def start_server(root: pathlib.Path, fault: str | None):
    """Launch ``repro serve`` and parse the listening handshake."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_FAULT", None)
    if fault is not None:
        env["REPRO_FAULT"] = fault
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(root),
            "--port", "0", "--max-retries", "3",
            "--backoff-base", "0.05", "--backoff-cap", "0.2",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        if line.startswith("service: listening on "):
            url = line.split("service: listening on ", 1)[1].strip()
            break
    if url is None:
        process.kill()
        fail("server never printed its listening handshake")
    return process, url


def wait_exit(process, expected: int, what: str, timeout: float = 120.0) -> None:
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        fail(f"{what}: server did not exit within {timeout}s")
    if code != expected:
        fail(f"{what}: server exited {code}, expected {expected}")


def stop_server(process) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)


def wait_terminal(url: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = http_json(f"{url}/jobs/{job_id}?wait_s=10")
        if doc["state"] in TERMINAL:
            return doc
    fail(f"job {job_id} never reached a terminal state")


def baseline_stats(workdir: pathlib.Path, spec: dict) -> dict:
    service = Service(
        workdir / "baseline", ServiceConfig(workers=1)
    )
    try:
        job = service.submit(spec)
        if not service.drain(timeout_s=300):
            fail("baseline service did not drain")
        result = service.store.get(job.id).result
        if result is None:
            fail("baseline job produced no result")
        return result["stats"]
    finally:
        service.shutdown()


def assert_single_done_job(url: str, job_id: str, expected_stats: dict) -> dict:
    listing = http_json(f"{url}/jobs")
    ids = [job["id"] for job in listing["jobs"]]
    if ids != [job_id]:
        fail(f"expected exactly [{job_id}] after restart, found {ids}")
    doc = wait_terminal(url, job_id)
    if doc["state"] != "done":
        fail(f"job ended {doc['state']} ({doc.get('error')}), expected done")
    result = http_json(f"{url}/jobs/{job_id}/result")["result"]
    if result["stats"] != expected_stats:
        fail(
            "recovered stats diverged from baseline:\n"
            f"  baseline:  {expected_stats}\n"
            f"  recovered: {result['stats']}"
        )
    return {"doc": doc, "result": result}


def run_fault_leg(site: str, workdir: pathlib.Path, expected: dict) -> None:
    """Crashpoint legs: the armed server dies before/at dispatch."""
    root = workdir / "svc"
    process, url = start_server(root, fault=site)
    created = http_json(f"{url}/jobs", SPEC)
    job_id = created["job"]["id"]
    wait_exit(process, EXIT_FAULT_INJECTED, f"{site} (armed run)")

    process, url = start_server(root, fault=None)
    try:
        recovered = assert_single_done_job(url, job_id, expected)
        doc, result = recovered["doc"], recovered["result"]
        if site.startswith("service:mid_dispatch"):
            if doc["retries"] != 1:
                fail(f"mid_dispatch orphan should cost 1 retry, got {doc['retries']}")
            if result["attempt"] != 2:
                fail(f"mid_dispatch recovery should run attempt 2, got {result['attempt']}")
        if site.startswith("jobstore:mid_commit"):
            if doc["retries"] != 0 or result["attempt"] != 1:
                fail(
                    "mid_commit tears before the running state is durable; "
                    f"recovery must not burn a retry (retries={doc['retries']}, "
                    f"attempt={result['attempt']})"
                )
    finally:
        stop_server(process)


def run_compact_leg(site: str, workdir: pathlib.Path, expected: dict) -> None:
    """Finish the job, then crash between snapshot publish and journal reset."""
    root = workdir / "svc"
    process, url = start_server(root, fault=site)
    created = http_json(f"{url}/jobs", SPEC)
    job_id = created["job"]["id"]
    doc = wait_terminal(url, job_id)
    if doc["state"] != "done":
        fail(f"job ended {doc['state']} before the compact crash, expected done")
    pre_crash = http_json(f"{url}/jobs/{job_id}/result")["result"]
    try:
        http_json(f"{url}/admin/compact", payload={})
        fail("compact crashpoint never fired")
    except (urllib.error.URLError, ConnectionError, OSError):
        pass  # the server died mid-handler, as armed
    wait_exit(process, EXIT_FAULT_INJECTED, f"{site} (armed compact)")
    if not (root / "jobs.snapshot.json").exists():
        fail("mid_compact crash should leave the published snapshot behind")

    process, url = start_server(root, fault=None)
    try:
        recovered = assert_single_done_job(url, job_id, expected)
        if recovered["result"] != pre_crash:
            fail("result changed across the compact crash/restart")
    finally:
        stop_server(process)


def run_kill_leg(workdir: pathlib.Path, expected: dict) -> None:
    """SIGKILL server + worker mid-job; restart must resume the checkpoint."""
    root = workdir / "svc"
    process, url = start_server(root, fault=None)
    created = http_json(f"{url}/jobs", KILL_SPEC)
    job_id = created["job"]["id"]

    checkpoint = root / job_id / "job.ckpt"
    worker_pid = None
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        doc = http_json(f"{url}/jobs/{job_id}")
        worker_pid = doc.get("worker_pid")
        if doc["state"] in TERMINAL:
            fail("job finished before the kill window — widen KILL_SPEC")
        if doc["state"] == "running" and worker_pid and checkpoint.exists():
            break
        time.sleep(0.05)
    else:
        fail("job never produced a checkpoint to kill against")

    process.kill()  # SIGKILL: no shutdown handling, no requeue commit
    process.wait(timeout=30)
    try:
        os.kill(worker_pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # worker died with (or before) the server

    process, url = start_server(root, fault=None)
    try:
        recovered = assert_single_done_job(url, job_id, expected)
        doc, result = recovered["doc"], recovered["result"]
        if doc["retries"] < 1:
            fail("killed worker should have cost at least one retry")
        if result["attempt"] < 2:
            fail(f"recovery should rerun the job, got attempt {result['attempt']}")
        if result.get("resumed") is not True:
            fail("recovered attempt did not resume from the checkpoint")
    finally:
        stop_server(process)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in SITES:
        print(
            f"usage: service_smoke.py <site>   (one of: {', '.join(SITES)})",
            file=sys.stderr,
        )
        return 2
    site = argv[0]
    with tempfile.TemporaryDirectory(prefix="service_smoke_") as tmp:
        workdir = pathlib.Path(tmp)
        spec = KILL_SPEC if site == "kill:mid_job" else SPEC
        print(f"[service-smoke] baseline ({spec['replicas']} replicas)…")
        expected = baseline_stats(workdir, spec)
        print(f"[service-smoke] chaos leg: {site}")
        if site == "kill:mid_job":
            run_kill_leg(workdir, expected)
        elif site.startswith("jobstore:mid_compact"):
            run_compact_leg(site, workdir, expected)
        else:
            run_fault_leg(site, workdir, expected)
    print(f"PASS: {site} — restart recovered a bit-identical result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
