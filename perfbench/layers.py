"""Which program functions the traced run wraps, and what it derives from them.

Every wrapper is installed from here, before any worker is forked, by
replacing the function object wherever a loaded ``repro`` module holds it
(modules import each other's functions by name).  Span names are the layer
names of the per-layer metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import statistics
import sys
import types
from typing import Dict, List

from spans import SpanRecorder, merge_counters, merge_layers

KERNEL_LAYERS = (
    "dynamics.batched.binomial_icdf",
    "dynamics.batched.counter_uniforms",
    "core.protocol.response_probabilities",
)


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro.*`` module global bound to ``original`` at ``replacement``."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"no module holds {original!r}; cannot trace it")


def _wrap_function(recorder: SpanRecorder, module, attr: str, name: str, on_return=None):
    original = getattr(module, attr)
    _replace_everywhere(original, recorder.wrap(original, name, on_return))


def _wrap_method(recorder: SpanRecorder, cls, attr: str, name: str, on_return=None):
    setattr(cls, attr, recorder.wrap(vars(cls)[attr], name, on_return))


def _count_draws(recorder, args, kwargs, result) -> None:
    recorder.add("dynamics.batched.binomial_icdf.draws", int(getattr(result, "size", 1)))


def _checkpoint_bytes(recorder, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    recorder.add("execution.checkpoint.save_checkpoint.bytes", os.path.getsize(path))


def _trace_record(recorder, args, kwargs, result) -> None:
    recorder.add("telemetry.trace_sink.records", 1)


def _trace_closed(recorder, args, kwargs, result) -> None:
    path = getattr(args[0], "_path", None)
    if path is not None and os.path.exists(path):
        recorder.add("telemetry.trace_sink.bytes", os.path.getsize(path))


def _job_transition(recorder, args, kwargs, result) -> None:
    recorder.event(result.id, result.state, result.updated_at)


class _CountingSpecial(types.ModuleType):
    """``scipy.special`` as seen by the batched engine, counting ``bdtr`` elements.

    The real module's names are copied in, so every other lookup costs what
    it did before; only ``bdtr`` is replaced.
    """

    def __init__(self, real, recorder: SpanRecorder) -> None:
        super().__init__(real.__name__)
        vars(self).update(
            (attr, value) for attr, value in vars(real).items() if not attr.startswith("__")
        )
        real_bdtr = real.bdtr

        def bdtr(k, n, p):
            out = real_bdtr(k, n, p)
            recorder.add("dynamics.batched.bdtr_evals", int(getattr(out, "size", 1)))
            return out

        self.bdtr = bdtr


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer; call once, before anything forks."""
    import repro  # noqa: F401  (loads the modules whose globals get patched)
    import repro.analysis.ensemble  # noqa: F401
    import repro.service.server  # noqa: F401
    from repro.core import protocol
    from repro.dynamics import batched, run, scenarios
    from repro.execution import checkpoint, supervisor
    from repro.service import jobstore, worker
    from repro.telemetry import columnar, heartbeat, jsonl

    _wrap_function(recorder, batched, "binomial_icdf",
                   "dynamics.batched.binomial_icdf", _count_draws)
    _wrap_function(recorder, batched, "counter_uniforms",
                   "dynamics.batched.counter_uniforms")
    batched.special = _CountingSpecial(batched.special, recorder)
    _wrap_method(recorder, protocol.Protocol, "response_probabilities",
                 "core.protocol.response_probabilities")
    _wrap_function(recorder, run, "simulate_ensemble", "dynamics.run.simulate_ensemble")
    _wrap_function(recorder, scenarios, "scenario_step_counts",
                   "dynamics.scenarios.scenario_step_counts")
    _wrap_function(recorder, checkpoint, "save_checkpoint",
                   "execution.checkpoint.save_checkpoint", _checkpoint_bytes)
    _wrap_method(recorder, jsonl.TraceWriterBase, "round_recorded",
                 "telemetry.trace_sink", _trace_record)
    for cls in (jsonl.JsonlTraceWriter, columnar.ColumnarTraceWriter):
        _wrap_method(recorder, cls, "flush", "telemetry.trace_sink")
        _wrap_method(recorder, cls, "close", "telemetry.trace_sink", _trace_closed)
    _wrap_function(recorder, heartbeat, "write_heartbeat",
                   "telemetry.heartbeat.write_heartbeat")
    _wrap_function(recorder, supervisor, "run_supervised_ensemble",
                   "execution.supervisor.parent")
    _wrap_function(recorder, supervisor, "_write_merged_trace",
                   "execution.supervisor.merge")
    _wrap_method(recorder, jobstore.JobStore, "submit",
                 "service.jobstore.commit", _job_transition)
    _wrap_method(recorder, jobstore.JobStore, "transition",
                 "service.jobstore.commit", _job_transition)
    _wrap_method(recorder, jobstore.JobStore, "compact", "service.jobstore.compact")
    _wrap_function(recorder, worker, "execute_job", "service.worker.execute_job")


# ---------------------------------------------------------------------------
# Per-layer metrics


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _job_phases(events: List[list], seen_done: Dict[str, float]) -> Dict[str, List[float]]:
    """Split each job into queue wait, run and notify from commit timestamps."""
    first: Dict[str, Dict[str, float]] = {}
    for job_id, state, at in events:
        first.setdefault(job_id, {}).setdefault(state, at)
    phases: Dict[str, List[float]] = {"queue": [], "run": [], "notify": []}
    for job_id, seen in seen_done.items():
        stamps = first.get(job_id, {})
        if not {"queued", "running", "done"} <= set(stamps):
            continue
        phases["queue"].append((stamps["running"] - stamps["queued"]) * 1e3)
        phases["run"].append((stamps["done"] - stamps["running"]) * 1e3)
        phases["notify"].append((seen - stamps["done"]) * 1e3)
    return phases


def layer_metrics(
    dumps: List[dict],
    *,
    wall_s: float,
    workers: int,
    jobs: int,
    seen_done: Dict[str, float],
) -> Dict[str, float]:
    """Turn per-process aggregates into the per-layer metric values.

    ``wall_s`` is the measured window; ``workers`` the processes that can
    run the kernel at once (1 in-process, the pool size otherwise), so the
    kernel share is kernel self time over the CPU time the workload could
    have given it.  ``jobs`` is the number of jobs submitted.
    """
    layers = merge_layers(dumps)
    counters = merge_counters(dumps)

    def get(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    draws = counters.get("dynamics.batched.binomial_icdf.draws", 0.0)
    kernel_s = sum(get(name, "self_s") for name in KERNEL_LAYERS)
    supervised_s = get("execution.supervisor.parent", "total_s")
    shard_busy = sum(
        dump["layers"].get("dynamics.run.simulate_ensemble", {}).get("total_s", 0.0)
        for dump in dumps
        if not dump["root"]
    )
    events = [event for dump in dumps for event in dump["events"]]
    phases = _job_phases(events, seen_done)
    out = {
        "dynamics.batched.binomial_icdf.self_s": get("dynamics.batched.binomial_icdf", "self_s"),
        "dynamics.batched.binomial_icdf.calls": get("dynamics.batched.binomial_icdf", "calls"),
        "dynamics.batched.binomial_icdf.draws": draws,
        "dynamics.batched.bdtr_per_draw": (
            counters.get("dynamics.batched.bdtr_evals", 0.0) / draws if draws else 0.0
        ),
        "dynamics.batched.counter_uniforms.self_s": get("dynamics.batched.counter_uniforms", "self_s"),
        "dynamics.batched.counter_uniforms.calls": get("dynamics.batched.counter_uniforms", "calls"),
        "core.protocol.response_probabilities.self_s": get("core.protocol.response_probabilities", "self_s"),
        "dynamics.run.simulate_ensemble.self_s": get("dynamics.run.simulate_ensemble", "self_s"),
        "dynamics.scenarios.scenario_step_counts.self_s": get("dynamics.scenarios.scenario_step_counts", "self_s"),
        "execution.checkpoint.save_checkpoint.calls": get("execution.checkpoint.save_checkpoint", "calls"),
        "execution.checkpoint.save_checkpoint.self_s": get("execution.checkpoint.save_checkpoint", "self_s"),
        "execution.checkpoint.save_checkpoint.bytes": counters.get("execution.checkpoint.save_checkpoint.bytes", 0.0),
        "telemetry.trace_sink.records": counters.get("telemetry.trace_sink.records", 0.0),
        "telemetry.trace_sink.self_s": get("telemetry.trace_sink", "self_s"),
        "telemetry.trace_sink.bytes": counters.get("telemetry.trace_sink.bytes", 0.0),
        "telemetry.heartbeat.write_heartbeat.calls": get("telemetry.heartbeat.write_heartbeat", "calls"),
        "telemetry.heartbeat.write_heartbeat.self_s": get("telemetry.heartbeat.write_heartbeat", "self_s"),
        "execution.supervisor.parent.self_s": get("execution.supervisor.parent", "self_s"),
        "execution.supervisor.merge_s": get("execution.supervisor.merge", "total_s"),
        "execution.supervisor.worker_busy_ratio": (
            shard_busy / (supervised_s * workers) if supervised_s else 0.0
        ),
        "service.jobstore.commit.calls_per_job": (
            get("service.jobstore.commit", "calls") / jobs if jobs else 0.0
        ),
        "service.jobstore.commit.self_s": get("service.jobstore.commit", "self_s"),
        "service.jobstore.compact.calls": get("service.jobstore.compact", "calls"),
        "service.jobstore.compact.self_s": get("service.jobstore.compact", "self_s"),
        "service.queue_wait_ms": _median(phases["queue"]),
        "service.run_ms": _median(phases["run"]),
        "service.notify_ms": _median(phases["notify"]),
        "service.worker.execute_job.self_s": get("service.worker.execute_job", "self_s"),
        "kernel_share": kernel_s / (wall_s * workers),
    }
    return out
