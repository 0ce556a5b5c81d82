"""Golden files for every durable on-disk format the simulator writes.

Each format is rebuilt from fixed inputs (no wall clocks, no pids) and
compared byte for byte with the committed copy under
``tests/data/durable/``; then the committed copy is loaded back through the
public readers.  Together the two checks pin "existing traces, journals,
checkpoints, heartbeats and results still load" across any change to the
writers.

Regenerate the goldens (only when a format change is intended) with::

    PYTHONPATH=src python tests/test_durable_goldens.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.execution.checkpoint import CheckpointState, load_checkpoint, save_checkpoint
from repro.service.jobstore import JobStore
from repro.service.worker import _publish_result, read_result
from repro.telemetry.columnar import (
    ColumnarTraceWriter,
    read_columnar_trace,
    write_trace_records,
)
from repro.telemetry.heartbeat import Heartbeat, read_heartbeat, write_heartbeat
from repro.telemetry.jsonl import JsonlTraceWriter, validate_trace
from repro.telemetry.recorder import RunProvenance
from repro.telemetry.spans import SpanRecord

GOLDEN_DIR = Path(__file__).parent / "data" / "durable"

GOLDEN_FILES = (
    "trace.ctrace",
    "trace.jsonl",
    "merged.ctrace",
    "service/jobs.journal",
    "service/jobs.snapshot.json",
    "run.ckpt",
    "run.heartbeat.json",
    "J000001/result.json",
)

SPEC = {"kind": "ensemble", "protocol": "voter", "n": 30, "replicas": 4,
        "max_rounds": 100, "seed": 1}

PROVENANCE = RunProvenance(
    runner="simulate_ensemble",
    protocol={"name": "voter(ell=1)", "ell": 1, "fingerprint": "0123abcd",
              "g0": [0.0, 1.0], "g1": [0.0, 1.0]},
    params={"n": 30, "x0": 15, "replicas": 4, "max_rounds": 100},
    rng={"bit_generator": "PCG64", "state_hash": "feedface"},
)


def _write_trace(writer) -> None:
    """One small run covering int, float, JSON-coded and sparse columns."""
    writer.run_started(PROVENANCE)
    for t in range(1, 11):
        extra = {"replicas_done": t // 4, "mean": 15.0 + t / 8}
        if t % 3 == 0:
            extra["population"] = 30 + t
        if t == 7:
            extra["scenario_event"] = "flip"
        writer.round_recorded(t, 15 + (t % 4), extra)
    writer.span_recorded(SpanRecord("steps", "ensemble/steps", 1, 0.0, {"rounds": 10}))
    writer.run_finished({"converged": 3, "censored": 1})
    writer.close()


def build_goldens(root: Path) -> None:
    """Write every golden file under ``root`` from fixed inputs."""
    root.mkdir(parents=True, exist_ok=True)
    _write_trace(ColumnarTraceWriter(root / "trace.ctrace", include_timings=False,
                                     chunk_rounds=4))
    _write_trace(JsonlTraceWriter(root / "trace.jsonl", include_timings=False))
    write_trace_records(root / "merged.ctrace",
                        read_columnar_trace(root / "trace.ctrace"),
                        "columnar", chunk_rounds=3)

    store = JobStore(root / "service")
    first = store.submit(SPEC, at=1.0)
    store.transition(first.id, "running", at=2.0, attempt=1, worker_pid=100)
    store.transition(first.id, "done", at=3.0, worker_pid=None,
                     result={"converged": 4})
    store.compact()
    second = store.submit({**SPEC, "seed": 2}, max_retries=1, at=4.0)
    store.transition(second.id, "running", at=5.0, attempt=1, worker_pid=101)
    store.transition(second.id, "queued", at=6.0, retries=1, worker_pid=None,
                     not_before=7.5, backoff_s=1.5, error="worker died")
    store.close()

    save_checkpoint(root / "run.ckpt", CheckpointState(
        runner="simulate_ensemble",
        round=25,
        rng_state=np.random.Generator(np.random.PCG64(7)).bit_generator.state,
        payload={"counts": np.arange(4, dtype=np.int64),
                 "times": np.array([3.0, np.nan])},
        signature="sig-0001",
        meta={"shard": 0},
    ))
    write_heartbeat(root / "run.heartbeat.json", Heartbeat(
        role="shard", pid=4242, updated_at=1700000000.5, round=25,
        max_rounds=100, replicas=4, replicas_done=1, rounds_per_second=812.5,
        shard=0, attempt=1,
    ))
    jobdir = root / "J000001"
    jobdir.mkdir(exist_ok=True)
    _publish_result(jobdir, {"attempt": 1, "kind": "ensemble", "resumed": False,
                             "stats": {"converged": 4, "mean": 41.25}})


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("durable")
    build_goldens(root)
    return root


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_writer_reproduces_golden_bytes(rebuilt, name):
    assert (rebuilt / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_no_tmp_files_left_behind(rebuilt):
    assert not list(rebuilt.rglob("*.tmp"))


def test_readers_load_the_goldens(tmp_path):
    records = validate_trace(GOLDEN_DIR / "trace.ctrace")
    assert validate_trace(GOLDEN_DIR / "trace.jsonl") == records
    assert validate_trace(GOLDEN_DIR / "merged.ctrace") == records
    assert [r["t"] for r in records if r["kind"] == "round"] == list(range(1, 11))

    # Open a copy: a writable JobStore may truncate a torn tail in place.
    shutil.copytree(GOLDEN_DIR / "service", tmp_path / "service")
    store = JobStore(tmp_path / "service", readonly=True)
    assert [(j.id, j.state) for j in store.jobs()] == [
        ("J000001", "done"), ("J000002", "queued")
    ]
    assert store.get("J000001").result == {"converged": 4}
    assert store.get("J000002").backoff_s == 1.5
    assert store.seq == 6 and store.salvaged_bytes == 0

    state = load_checkpoint(GOLDEN_DIR / "run.ckpt")
    assert state.round == 25 and state.signature == "sig-0001"
    np.testing.assert_array_equal(state.payload["counts"], np.arange(4))

    beat = read_heartbeat(GOLDEN_DIR / "run.heartbeat.json")
    assert beat is not None and beat.updated_at == 1700000000.5

    result = read_result(GOLDEN_DIR / "J000001", attempt=1)
    assert result is not None and result["stats"]["converged"] == 4


if __name__ == "__main__":
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    build_goldens(GOLDEN_DIR)
    print(f"wrote {len(GOLDEN_FILES)} golden files under {GOLDEN_DIR}", file=sys.stderr)
