"""E13f — job service overhead: submission→completion vs a direct call.

The service exists for robustness (journaled state, crash recovery,
retries), not throughput — but robustness that taxes every job heavily
would push users back to bare ``convergence_ensemble`` calls and lose the
durability guarantees.  This experiment prices the machinery:

* **direct** — ``convergence_ensemble`` in-process with the *same*
  durability the worker composes (a :class:`Checkpointer` at the same
  cadence plus a :class:`HeartbeatRecorder`): what a careful user runs by
  hand today;
* **service** — the same spec submitted to an in-process
  :class:`~repro.service.server.Service` (``workers=1``) and drained to
  ``done``: everything the direct leg pays *plus* WAL commits for every
  state transition, a forked worker process, dispatch/reap polling, and
  an atomic result publish.

Both legs compute the identical ensemble (same protocol, configuration,
seed) with identical checkpoint/heartbeat IO, so the wall-clock
difference *is* the service tax — journal, fork, scheduling.  The
acceptance bar (ISSUE 10 / E13f): **under 10% overhead at smoke
sizing** — the robustness plumbing must be a rounding error next to the
simulation it protects.

The ledger record ``BENCH_E13f_service_overhead.json`` archives the
service-side wall clock (what the regression gate watches) plus both leg
timings and the overhead ratio as ``extra`` fields.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from pathlib import Path

from _harness import emit, note_field, pick, run_once
from repro.analysis.ensemble import convergence_ensemble
from repro.analysis.series import Table
from repro.dynamics.config import wrong_consensus_configuration
from repro.dynamics.rng import make_rng
from repro.execution import Checkpointer
from repro.protocols import voter
from repro.service import Service, ServiceConfig
from repro.telemetry import HeartbeatRecorder
from repro.telemetry.heartbeat import heartbeat_path

N_AGENTS = 96
MAX_ROUNDS = 5000
SEED = 7
CHECKPOINT_EVERY = 5
HEARTBEAT_EVERY_S = 0.5


def _spec(replicas: int) -> dict:
    return {
        "kind": "ensemble",
        "protocol": "voter",
        "n": N_AGENTS,
        "z": 1,
        "max_rounds": MAX_ROUNDS,
        "replicas": replicas,
        "seed": SEED,
        # Same durability cadence as the direct leg composes by hand.
        "checkpoint_every": CHECKPOINT_EVERY,
        "heartbeat_every_s": HEARTBEAT_EVERY_S,
    }


def _direct_leg(root: Path, replicas: int):
    root.mkdir(parents=True, exist_ok=True)
    beat = HeartbeatRecorder(
        heartbeat_path(root / "job"), role="job", interval_s=HEARTBEAT_EVERY_S
    )
    start = time.perf_counter()
    stats = convergence_ensemble(
        voter(1),
        wrong_consensus_configuration(N_AGENTS, 1),
        MAX_ROUNDS,
        make_rng(SEED),
        replicas,
        recorder=beat,
        checkpoint=Checkpointer(root / "job.ckpt", every=CHECKPOINT_EVERY),
    )
    return time.perf_counter() - start, dataclasses.asdict(stats)


def _service_leg(root: Path, replicas: int):
    service = Service(root, ServiceConfig(workers=1))
    try:
        start = time.perf_counter()
        job = service.submit(_spec(replicas))
        assert service.drain(timeout_s=600), "service never drained"
        wall = time.perf_counter() - start
        finished = service.store.get(job.id)
        assert finished.state == "done", finished.error
        return wall, finished.result["stats"]
    finally:
        service.shutdown()


def test_service_overhead(benchmark):
    """E13f — submission→completion overhead of the job service."""
    replicas = pick(1024, 256)
    # Interleaved min-of-3 per leg: host noise (shared runners, single
    # cores) is additive and spiky, so the minimum is the honest estimate
    # of each leg's intrinsic cost — one scheduler hiccup cannot fake a tax.
    reps = 3

    with tempfile.TemporaryDirectory(prefix="repro_e13f_") as scratch:
        scratch = Path(scratch)
        # Warm leg outside the timed region: imports, fork-context setup.
        direct_warm_s, _ = _direct_leg(scratch / "warmup", 1)

        def both_legs():
            direct_s, service_s = float("inf"), float("inf")
            direct_stats = service_stats = None
            for rep in range(reps):
                wall, direct_stats = _direct_leg(
                    scratch / f"direct{rep}", replicas
                )
                direct_s = min(direct_s, wall)
                wall, service_stats = _service_leg(
                    scratch / f"svc{rep}", replicas
                )
                service_s = min(service_s, wall)
            return direct_s, direct_stats, service_s, service_stats

        direct_s, direct_stats, service_s, service_stats = run_once(
            benchmark, both_legs, experiment="E13f_service_overhead"
        )

    overhead_ratio = service_s / direct_s
    note_field("replicas", replicas)
    note_field("direct_s", round(direct_s, 4))
    note_field("service_s", round(service_s, 4))
    note_field("overhead_ratio", round(overhead_ratio, 4))
    note_field("overhead_pct", round(100.0 * (overhead_ratio - 1.0), 2))
    note_field("warmup_s", round(direct_warm_s, 4))

    table = Table(
        f"job service overhead ({replicas} replicas, n={N_AGENTS}, "
        f"seed {SEED})",
        ["path", "wall s", "vs direct"],
    )
    table.add_row("direct call", round(direct_s, 4), "1.00x")
    table.add_row(
        "service job", round(service_s, 4), f"{overhead_ratio:.2f}x"
    )
    emit("E13f_service_overhead", table)

    # Correctness rail: the service leg computes the very same ensemble.
    assert service_stats == direct_stats, (
        "service job diverged from the direct call"
    )
    # The acceptance bar (ISSUE 10): the durability machinery costs under
    # 10% of the direct call at smoke sizing.
    assert overhead_ratio < 1.10, (
        f"service overhead {100 * (overhead_ratio - 1):.1f}% breaches the "
        "10% budget"
    )
