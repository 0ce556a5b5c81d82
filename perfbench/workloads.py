"""The three benchmark workloads: inputs from a seed, a timed loop, output checks.

Each ``run_<workload>`` function measures and returns an :class:`Outcome`;
the matching ``check_<workload>`` function, run after the timed window,
appends any failed output check to ``Outcome.problems`` (the durable
workload validates each call's merged trace inside its loop, between
timed calls).  Nothing here knows whether the run is traced: the traced
run installs its wrappers before calling in, and launches the service
through ``serve_traced.py``.

Load shape (host with ``nproc`` = 2): one client process; at most ``nproc``
threads (the workload thread plus the RSS sampler); ``nproc`` worker
processes in the supervisor pool and in the job service.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import os
import shutil
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple
from urllib.parse import urlparse

import numpy as np

WORKERS = 2
"""``nproc`` of the reference host; the pool size of both parallel workloads."""

# ensemble_batched: the ROADMAP profiling configuration plus an all-censored
# Minority run of the same size, so one pass covers two sample sizes and two
# response-probability regimes with a fixed amount of Minority work.
BATCHED = {"n": 1000, "z": 1, "x0": 500, "replicas": 1000, "max_rounds": 2000}
BATCHED_PROTOCOLS = ("voter", "minority")
LOOP_REPLAY_REPLICAS = 4
CENSOR_Z = 5.0

# ensemble_durable: tiny shards, so per-round fixed costs (scenario
# transform, checkpoint fsyncs, trace sink, heartbeats) and the supervisor's
# fork/wait/merge dominate.  The budget censors most replicas, which keeps
# the work per call close to fixed across seeds.
DURABLE = {"n": 256, "z": 1, "x0": 128, "replicas": 64, "shards": 8,
           "max_rounds": 400, "checkpoint_every": 25}
DURABLE_SCENARIO = "churn:period=8,amplitude=4+lossy:rate=0.1+flip-source:at=12"

# service_jobs: tiny jobs, so the job store, dispatch, publish and the
# scheduler's wait carry the latency.  Each kernel call costs ~150 us of
# fixed NumPy overhead on tiny arrays, so the round budget sets the kernel's
# share of worker time (near 30% at 400 rounds, 16% at 40); 8 rounds keep
# it to a few percent.  From x0 = 60 about 44% of replicas converge inside
# the budget, so the stats check compares real convergence times, and a
# checkpoint every 4 rounds keeps checkpoint writes in every job.
JOB_SPEC = {"kind": "ensemble", "protocol": "voter", "n": 64, "x0": 60,
            "replicas": 4, "max_rounds": 8, "checkpoint_every": 4}
MIN_JOBS = 100
CHECKED_JOBS = 4
POLL_S = 0.01
SERVE_START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """What a workload measured and checked.

    ``wall_s`` is the time throughput is divided by: the summed duration of
    the timed calls (passes, supervised calls) or of the service loop.
    """

    wall_s: float
    replica_rounds: float
    job_latencies_s: List[float]
    peak_rss_bytes: int
    attempted: int
    failed: int
    problems: List[str]
    status_reads_s: List[float] = dataclasses.field(default_factory=list)
    jobs_submitted: int = 0
    seen_done: Dict[str, float] = dataclasses.field(default_factory=dict)
    checked: list = dataclasses.field(default_factory=list)

    @property
    def jobs(self) -> int:
        return len(self.job_latencies_s)


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one call, a pure function of the run seed and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def replica_rounds(times: np.ndarray, budget: int) -> float:
    """Rounds executed over all replicas; a censored replica ran the budget."""
    return float(np.where(np.isnan(times), budget, times).sum())


# ---------------------------------------------------------------------------
# Peak RSS of a process tree


def _tree_pids(root: int) -> List[int]:
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as handle:
                    frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return pids


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class TreeRss:
    """Samples the summed RSS of ``root`` and its descendants every 50 ms."""

    INTERVAL_S = 0.05

    def __init__(self, root: int) -> None:
        self.root = root
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        self.peak = max(self.peak, sum(_rss_bytes(pid) for pid in _tree_pids(self.root)))

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self) -> "TreeRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


# ---------------------------------------------------------------------------
# Inputs


def prepare(workload: str, seed: int) -> dict:
    """Import what the workload calls and build its inputs from ``seed``.

    This is the set-up the benchmark times from a fresh interpreter.
    """
    if workload == "ensemble_batched":
        import repro.dynamics.run  # noqa: F401
        from repro.dynamics.config import Configuration
        from repro.protocols import minority, voter

        return {
            "protocols": {"voter": voter(1), "minority": minority(3)},
            "config": Configuration(n=BATCHED["n"], z=BATCHED["z"], x0=BATCHED["x0"]),
        }
    if workload == "ensemble_durable":
        import repro.execution.supervisor  # noqa: F401
        from repro.dynamics.config import Configuration
        from repro.dynamics.scenarios import make_scenario
        from repro.protocols import voter

        return {
            "protocol": voter(1),
            "config": Configuration(n=DURABLE["n"], z=DURABLE["z"], x0=DURABLE["x0"]),
            "scenario": make_scenario(DURABLE_SCENARIO, DURABLE["n"]),
        }
    if workload == "service_jobs":
        return {"specs": lambda index: job_spec(seed, index)}
    raise ValueError(f"unknown workload {workload!r}")


def job_spec(seed: int, index: int) -> dict:
    return dict(JOB_SPEC, seed=derived_seed(seed, index))


# ---------------------------------------------------------------------------
# ensemble_batched


def _censor_bound(p: float, replicas: int) -> float:
    return CENSOR_Z * math.sqrt(max(p * (1.0 - p), 0.0) / replicas) + 1.0 / replicas


def run_ensemble_batched(seed: int, seconds: float, inputs: dict) -> Outcome:
    from repro.dynamics import run as run_module
    from repro.dynamics.rng import make_rng

    cfg = BATCHED
    calls: List[Tuple[str, int, np.ndarray]] = []
    pass_times: List[float] = []
    rounds_done = 0.0
    with TreeRss(os.getpid()) as rss:
        start = time.perf_counter()
        while not pass_times or time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            for index, name in enumerate(BATCHED_PROTOCOLS):
                call_seed = derived_seed(seed, len(pass_times), index)
                times = run_module.simulate_ensemble(
                    inputs["protocols"][name], inputs["config"], cfg["max_rounds"],
                    make_rng(call_seed), cfg["replicas"],
                )
                calls.append((name, call_seed, times))
                rounds_done += replica_rounds(times, cfg["max_rounds"])
            pass_times.append(time.perf_counter() - pass_start)
    return Outcome(
        wall_s=sum(pass_times), replica_rounds=rounds_done, job_latencies_s=pass_times,
        peak_rss_bytes=rss.peak, attempted=len(calls), failed=0, problems=[],
        checked=calls,
    )


def check_ensemble_batched(inputs: dict, outcome: Outcome) -> None:
    """Censoring against the exact chain; loop-engine replay of a few replicas."""
    from repro.dynamics import run as run_module
    from repro.dynamics.rng import make_rng
    from repro.markov import absorption_time_cdf, count_chain

    cfg = BATCHED
    config = inputs["config"]
    target = config.target_count
    exceed = {}
    for name, protocol in inputs["protocols"].items():
        chain = count_chain(protocol, config.n, config.z)
        cdf = absorption_time_cdf(chain, [target], config.x0, cfg["max_rounds"]).cdf
        exceed[name] = 1.0 - float(cdf[-1])
    calls = outcome.checked
    problems = []
    for number, (name, call_seed, times) in enumerate(calls):
        censored = float(np.isnan(times).mean())
        bound = _censor_bound(exceed[name], cfg["replicas"])
        if abs(censored - exceed[name]) > bound:
            problems.append(
                f"call{number}: {name} censored fraction {censored:.4f} is more than "
                f"{bound:.4f} from the exact P(tau > budget) = {exceed[name]:.4f}"
            )
    for number, (name, call_seed, times) in enumerate(calls[: len(BATCHED_PROTOCOLS)]):
        replay = run_module.simulate_ensemble(
            inputs["protocols"][name], config, cfg["max_rounds"], make_rng(call_seed),
            LOOP_REPLAY_REPLICAS, engine="loop",
        )
        if not np.array_equal(replay, times[:LOOP_REPLAY_REPLICAS], equal_nan=True):
            problems.append(
                f"call{number}: {name} loop-engine replay {replay.tolist()} differs from "
                f"batched {times[:LOOP_REPLAY_REPLICAS].tolist()}"
            )
    outcome.problems.extend(problems)
    outcome.failed += len({p.split(":")[0] for p in problems})


# ---------------------------------------------------------------------------
# ensemble_durable


def run_ensemble_durable(seed: int, seconds: float, inputs: dict, workdir: Path) -> Outcome:
    from repro.dynamics.rng import make_rng
    from repro.execution import supervisor
    from repro.telemetry import validate_trace

    cfg = DURABLE
    pool = supervisor.SupervisorConfig(
        workers=WORKERS, shards=cfg["shards"], trace_format="columnar",
    )
    latencies: List[float] = []
    problems: List[str] = []
    rounds_done = 0.0
    shards_lost = 0
    with TreeRss(os.getpid()) as rss:
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            number = len(latencies)
            calldir = workdir / f"call{number}"
            calldir.mkdir(parents=True)
            call_start = time.perf_counter()
            result = supervisor.run_supervised_ensemble(
                inputs["protocol"], inputs["config"], cfg["max_rounds"],
                make_rng(derived_seed(seed, number)), cfg["replicas"],
                supervisor=pool,
                checkpoint_base=calldir / "run.ckpt",
                checkpoint_every=cfg["checkpoint_every"],
                trace_path=calldir / "run.ctrace",
                workdir=calldir / "scratch",
                scenario=inputs["scenario"],
            )
            latencies.append(time.perf_counter() - call_start)
            rounds_done += replica_rounds(result.times, cfg["max_rounds"])
            shards_lost += result.failed_shards
            if result.failed_shards:
                problems.append(f"call{number}: lost {result.failed_shards} shard(s)")
            try:
                validate_trace(calldir / "run.ctrace")
            except (OSError, ValueError) as exc:
                problems.append(f"call{number}: merged trace invalid: {exc}")
            shutil.rmtree(calldir)
    return Outcome(
        wall_s=sum(latencies), replica_rounds=rounds_done, job_latencies_s=latencies,
        peak_rss_bytes=rss.peak, attempted=len(latencies) * cfg["shards"],
        failed=shards_lost + sum("trace invalid" in p for p in problems),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# service_jobs


class ServiceClient:
    """One-connection-at-a-time JSON client for the job API."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self.host, self.port = parsed.hostname, parsed.port
        self.requests = 0
        self.non_2xx = 0

    def request(self, method: str, path: str, payload=None) -> Tuple[int, object, float]:
        body = None if payload is None else json.dumps(payload).encode()
        start = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        finally:
            conn.close()
        elapsed = time.perf_counter() - start
        self.requests += 1
        if not 200 <= status < 300:
            self.non_2xx += 1
        if response.getheader("Content-Type", "").startswith("application/json"):
            return status, json.loads(raw), elapsed
        return status, raw.decode(), elapsed


def start_server(root: Path, argv_prefix: List[str], env: dict) -> Tuple[subprocess.Popen, str, float]:
    """Launch the service and wait until ``/healthz`` answers.

    Returns the process, its URL and the seconds from launch to the first
    healthy reply.
    """
    root.mkdir(parents=True, exist_ok=True)
    log_path = root.with_name(root.name + ".log")
    start = time.perf_counter()
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            [*argv_prefix, "serve", str(root), "--workers", str(WORKERS)],
            stdout=subprocess.DEVNULL, stderr=log, env=env,
        )
    url = None
    deadline = start + SERVE_START_TIMEOUT_S
    try:
        while time.perf_counter() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    f"service exited {process.returncode}: {log_path.read_text()[-2000:]}"
                )
            if url is None:
                for line in log_path.read_text().splitlines():
                    if line.startswith("service: listening on "):
                        url = line.split("listening on ", 1)[1].strip()
            if url is not None:
                try:
                    status, _, _ = ServiceClient(url).request("GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return process, url, time.perf_counter() - start
            time.sleep(0.005)
        raise RuntimeError("service did not answer /healthz in time")
    except BaseException:
        stop_server(process)
        raise


def stop_server(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _job_replica_rounds(stats: dict) -> float:
    converged = stats["trials"] - stats["censored"]
    mean = stats["mean_converged"] if converged else 0.0
    return converged * mean + stats["censored"] * stats["budget"]


def run_service_jobs(
    seed: int, seconds: float, inputs: dict, process: subprocess.Popen, url: str,
) -> Outcome:
    """Closed loop of ``WORKERS`` jobs in flight against a running service."""
    client = ServiceClient(url)
    inflight: Dict[str, Tuple[float, dict]] = {}
    latencies: List[float] = []
    status_reads: List[float] = []
    seen_done: Dict[str, float] = {}
    done_results: Dict[str, Tuple[dict, dict]] = {}
    problems: List[str] = []
    submitted = 0
    jobs_not_done = 0
    rounds_done = 0.0

    def submit() -> None:
        nonlocal submitted
        spec = inputs["specs"](submitted)
        submitted += 1
        submit_at = time.perf_counter()
        status, doc, _ = client.request("POST", "/jobs", spec)
        if status != 201:
            problems.append(f"submit {submitted - 1}: HTTP {status} {doc}")
            return
        inflight[doc["job"]["id"]] = (submit_at, spec)
        status, _, elapsed = client.request("GET", "/metrics")
        status_reads.append(elapsed)

    with TreeRss(process.pid) as rss:
        start = time.perf_counter()
        for _ in range(WORKERS):
            submit()
        while inflight and time.perf_counter() - start < seconds + DRAIN_TIMEOUT_S:
            progressed = False
            for job_id in list(inflight):
                status, doc, elapsed = client.request("GET", f"/jobs/{job_id}")
                status_reads.append(elapsed)
                state = doc.get("state") if isinstance(doc, dict) else None
                if state not in ("done", "failed", "cancelled"):
                    continue
                now = time.perf_counter()
                submit_at, spec = inflight.pop(job_id)
                if state == "done":
                    latencies.append(now - submit_at)
                    seen_done[job_id] = time.time()
                    stats = doc["result"]["stats"]
                    rounds_done += _job_replica_rounds(stats)
                    done_results[job_id] = (spec, stats)
                else:
                    jobs_not_done += 1
                    problems.append(f"{job_id}: ended {state}: {doc.get('error')}")
                if now - start < seconds or submitted < MIN_JOBS:
                    submit()
                progressed = True
            if not progressed:
                time.sleep(POLL_S)
        wall = time.perf_counter() - start
    for job_id in inflight:
        jobs_not_done += 1
        problems.append(f"{job_id}: not done {DRAIN_TIMEOUT_S:.0f} s after the window")
    if client.non_2xx:
        problems.append(f"{client.non_2xx} non-2xx replies")
    return Outcome(
        wall_s=wall, replica_rounds=rounds_done, job_latencies_s=latencies,
        peak_rss_bytes=rss.peak, attempted=client.requests,
        failed=client.non_2xx + jobs_not_done, problems=problems,
        status_reads_s=status_reads, jobs_submitted=submitted, seen_done=seen_done,
        checked=[done_results[job_id] for job_id in sorted(done_results)[:CHECKED_JOBS]],
    )


def check_service_jobs(inputs: dict, outcome: Outcome) -> None:
    """The first jobs' published stats equal an in-process run of the same spec."""
    from repro.analysis.ensemble import convergence_ensemble
    from repro.cli import resolve_protocol
    from repro.dynamics.config import Configuration
    from repro.dynamics.rng import make_rng

    problems = outcome.problems
    if len(outcome.checked) < CHECKED_JOBS:
        problems.append(f"only {len(outcome.checked)} jobs finished; {CHECKED_JOBS} are checked")
        outcome.failed += 1
    for spec, published in outcome.checked:
        stats = convergence_ensemble(
            resolve_protocol(spec["protocol"], spec["n"]),
            Configuration(n=spec["n"], z=1, x0=spec["x0"]),
            spec["max_rounds"], make_rng(spec["seed"]), spec["replicas"],
        )
        expected = json.dumps(dataclasses.asdict(stats), sort_keys=True)
        if json.dumps(published, sort_keys=True) != expected:
            problems.append(f"seed {spec['seed']}: published stats {published} != in-process {expected}")
            outcome.failed += 1
