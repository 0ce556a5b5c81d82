"""The repository's benchmark: one workload per invocation, checked and measured.

    python3 perfbench/run.py --workload ensemble_batched --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the same workload runs with span
wrappers installed and the metrics are the per-layer ones.  A human
summary (sample counts, status-read latency, error rate, kernel share)
goes to standard error.  The exit code is 0 when every output check
passed, 1 when one failed, 2 when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKLOADS = ("ensemble_batched", "ensemble_durable", "service_jobs")
SETUP_REPEATS = 3
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_GROUPS = ("repro.core", "repro.markov", "repro.dynamics", "scipy", "numpy")


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Set-up time


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to inputs being ready."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        stdout=subprocess.PIPE, env=_program_env(), cwd=ROOT,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    process.stdout.close()
    if process.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def _import_times() -> dict:
    """Self import time per package group from ``python -X importtime``."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True, text=True, env=_program_env(), cwd=ROOT, check=True,
    )
    totals = {group: 0.0 for group in IMPORT_GROUPS}
    totals["repro.other"] = 0.0
    for line in result.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        group = next(
            (g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")),
            "repro.other" if name == "repro" or name.startswith("repro.") else None,
        )
        if group is not None:
            totals[group] += int(self_us) / 1e6
    return {f"import.{group}_s": value for group, value in totals.items()}


# ---------------------------------------------------------------------------
# Running one workload


def _run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Measure, then check, one workload.

    Returns ``(outcome, setup_s, recorder, dump_dir)``; ``recorder`` is
    ``None`` untraced, and ``setup_s`` is ``None`` traced except for the
    service, whose set-up is its launch.
    """
    import workloads

    recorder = None
    dump_dir = OUT_DIR / workload
    if trace:
        from spans import SpanRecorder
        import layers

        shutil.rmtree(dump_dir, ignore_errors=True)
        recorder = SpanRecorder(uuid.uuid4().hex, dump_dir)
        layers.install(recorder)

    if workload == "service_jobs":
        if trace:
            prefix = [sys.executable, str(HERE / "serve_traced.py"),
                      str(dump_dir), recorder.run_id]
        else:
            prefix = [sys.executable, "-m", "repro"]
        setups = []
        launches = 1 if trace else SETUP_REPEATS
        for attempt in range(launches):
            process, url, elapsed = workloads.start_server(
                workdir / f"service{attempt}", prefix, _program_env()
            )
            setups.append(elapsed)
            if attempt < launches - 1:
                workloads.stop_server(process)
        try:
            inputs = workloads.prepare(workload, seed)
            outcome = workloads.run_service_jobs(seed, seconds, inputs, process, url)
        finally:
            workloads.stop_server(process)
        setup = statistics.median(setups)
    else:
        setup = None
        if not trace:
            setup = statistics.median(
                _probe_setup(workload, seed) for _ in range(SETUP_REPEATS)
            )
        inputs = workloads.prepare(workload, seed)
        if workload == "ensemble_batched":
            outcome = workloads.run_ensemble_batched(seed, seconds, inputs)
        else:
            outcome = workloads.run_ensemble_durable(seed, seconds, inputs, workdir)
    if recorder is not None:
        recorder.active = False
    check = getattr(workloads, f"check_{workload}", None)
    if check is not None:
        check(inputs, outcome)
    return outcome, setup, recorder, dump_dir


def _with_units(values: dict, kind: str) -> dict:
    """Attach units from ``BENCHMARK.json``; every metric it lists must be present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec[kind]
    }


def _end_to_end(outcome, setup_s: float) -> dict:
    from workloads import percentile

    latencies_ms = [s * 1e3 for s in outcome.job_latencies_s]
    return _with_units({
        "setup_s": setup_s,
        "replica_rounds_per_s": outcome.replica_rounds / outcome.wall_s,
        "jobs_per_s": outcome.jobs / outcome.wall_s,
        "job_latency_p50_ms": percentile(latencies_ms, 50),
        "peak_rss_mb": outcome.peak_rss_bytes / 2**20,
    }, "end_to_end")


def _per_layer(workload: str, outcome, dump_dir: Path) -> dict:
    import layers
    from spans import load_dumps
    from workloads import WORKERS, percentile

    values = layers.layer_metrics(
        load_dumps(dump_dir),
        wall_s=outcome.wall_s,
        workers=1 if workload == "ensemble_batched" else WORKERS,
        jobs=outcome.jobs_submitted,
        seen_done=outcome.seen_done,
    )
    reads_ms = [s * 1e3 for s in outcome.status_reads_s]
    values["service.status_read_p50_ms"] = percentile(reads_ms, 50) if reads_ms else 0.0
    values["service.status_read_p90_ms"] = percentile(reads_ms, 90) if reads_ms else 0.0
    values["traced.replica_rounds_per_s"] = outcome.replica_rounds / outcome.wall_s
    latencies_ms = [s * 1e3 for s in outcome.job_latencies_s]
    values["traced.job_latency_p50_ms"] = percentile(latencies_ms, 50)
    values["traced.job_latency_p90_ms"] = percentile(latencies_ms, 90)
    values.update(_import_times())
    return _with_units(values, "per_layer")


def _summary(workload: str, outcome, metrics: dict) -> None:
    from workloads import percentile

    error_rate = outcome.failed / outcome.attempted
    latencies_ms = [s * 1e3 for s in outcome.job_latencies_s]
    _log(
        f"{workload}: {outcome.jobs} jobs in {outcome.wall_s:.2f} s, "
        f"{outcome.replica_rounds:.0f} replica-rounds, error_rate {error_rate:.4f} "
        f"({outcome.failed}/{outcome.attempted})"
    )
    _log(
        f"job latency: n={len(latencies_ms)} p50 {percentile(latencies_ms, 50):.1f} ms "
        f"p90 {percentile(latencies_ms, 90):.1f} ms"
    )
    if outcome.status_reads_s:
        reads_ms = [s * 1e3 for s in outcome.status_reads_s]
        _log(
            f"status reads: n={len(reads_ms)} p50 {percentile(reads_ms, 50):.2f} ms "
            f"p90 {percentile(reads_ms, 90):.2f} ms"
        )
    if "kernel_share" in metrics:
        _log(f"kernel share ({workload}): {metrics['kernel_share']['value']:.3f}")
    for problem in outcome.problems:
        _log(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"no program under {ROOT / 'src'}; run from the root of a checkout")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.setup_probe:
        import workloads

        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    workdir = WORK_DIR / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    try:
        outcome, setup_s, recorder, dump_dir = _run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        recorder.dump_aggregates()
        recorder.dump_spans()
        metrics = _per_layer(args.workload, outcome, dump_dir)
    else:
        metrics = _end_to_end(outcome, setup_s)
    _summary(args.workload, outcome, metrics)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
