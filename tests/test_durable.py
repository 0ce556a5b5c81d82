"""The durable-record layer, and every durable format damaged at every byte.

Three append formats share one salvage rule — the records whose frame (or
line) ends at or before the first damaged byte survive, nothing after it
does — and this module checks that rule exhaustively: each small file is
truncated at every offset and, separately, has one byte flipped at every
offset.  Salvaging readers must return exactly the surviving records,
strict readers must refuse anything damaged, and the job store must
reopen, truncate to the surviving prefix and accept new work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import durable
from repro.analysis.index import index_path, write_trace_index
from repro.service.jobstore import JOURNAL_MAGIC, JobStore, JobStoreError
from repro.service.worker import _publish_result, result_path
from repro.telemetry.columnar import read_columnar_trace
from repro.telemetry.jsonl import COLUMNAR_MAGIC, read_trace
from repro.telemetry.profiling import write_speedscope

GOLDEN_DIR = Path(__file__).parent / "data" / "durable"

SPEC = {"kind": "ensemble", "protocol": "voter", "n": 30, "replicas": 4,
        "max_rounds": 100, "seed": 1}


def _damages(data: bytes):
    """Every truncation and every one-byte flip: ``(kind, offset, bytes)``."""
    for offset in range(len(data)):
        yield "truncate", offset, data[:offset]
    for offset in range(len(data)):
        flipped = bytearray(data)
        flipped[offset] ^= 0xFF
        yield "flip", offset, bytes(flipped)


def _surviving(ends, offset: int) -> int:
    """How many records end at or before the damaged ``offset``."""
    return sum(1 for end in ends if end <= offset)


# ----------------------------------------------------------------------
# The codec itself
# ----------------------------------------------------------------------


class TestFrameCodec:
    def test_frames_round_trip_and_cover_the_buffer(self):
        bodies = [b"", b"a", b"hello world" * 9]
        data = b"".join(durable.frame(b"TEST", body) for body in bodies)
        scan = durable.scan_frames(data, b"TEST")
        frames = list(scan)
        assert [body for body, _, _ in frames] == bodies
        assert frames[0][1] == 0 and frames[-1][2] == len(data)
        assert all(a[2] == b[1] for a, b in zip(frames, frames[1:]))
        assert (scan.stop, scan.problem) == (len(data), None)


# ----------------------------------------------------------------------
# Every-offset salvage, per format
# ----------------------------------------------------------------------


def _columnar_ends(data: bytes, path: Path):
    """Frame end offsets, and the record count held by each frame prefix."""
    ends = [end for _, _, end in durable.scan_frames(data, COLUMNAR_MAGIC)]
    counts = {0: 0}
    for end in ends:
        path.write_bytes(data[:end])
        counts[end] = len(read_columnar_trace(path))
    return ends, counts


def test_columnar_trace_salvages_exactly_the_prefix_at_every_byte(tmp_path):
    data = (GOLDEN_DIR / "trace.ctrace").read_bytes()
    complete = read_trace(GOLDEN_DIR / "trace.ctrace")
    path = tmp_path / "damaged.ctrace"
    ends, counts = _columnar_ends(data, path)
    assert ends[-1] == len(data) and len(ends) > 3
    assert counts[ends[-1]] == len(complete)
    for kind, offset, damaged in _damages(data):
        path.write_bytes(damaged)
        prefix_end = max([0] + [end for end in ends if end <= offset])
        salvaged = read_trace(path, salvage=True)
        assert salvaged == complete[: counts[prefix_end]], (kind, offset)
        if kind == "truncate" and offset == prefix_end:
            assert read_columnar_trace(path) == salvaged
            continue
        with pytest.raises(ValueError, match="torn" if kind == "truncate" else "byte"):
            read_columnar_trace(path)


def test_jsonl_trace_salvages_exactly_the_prefix_at_every_byte(tmp_path):
    data = (GOLDEN_DIR / "trace.jsonl").read_bytes()
    complete = read_trace(GOLDEN_DIR / "trace.jsonl")
    # A line's record survives when its text (newline excluded) is intact.
    ends = [offset for offset, byte in enumerate(data) if byte == ord("\n")]
    assert len(ends) == len(complete)
    path = tmp_path / "damaged.jsonl"
    for kind, offset, damaged in _damages(data):
        path.write_bytes(damaged)
        survivors = _surviving(ends, offset)
        assert read_trace(path, salvage=True) == complete[:survivors], (kind, offset)
        whole_lines = offset == 0 or offset in ends or offset - 1 in ends
        if kind == "truncate" and whole_lines:
            assert read_trace(path) == complete[:survivors]
            continue
        with pytest.raises(ValueError):
            read_trace(path)


def _journal_history(root: Path):
    """Commit a few records; return the journal and the state after each."""
    store = JobStore(root)
    history = {0: {}}

    def commit(action):
        action()
        history[store.journal_path.stat().st_size] = {
            job.id: job.to_dict() for job in store.jobs()
        }

    commit(lambda: store.submit(SPEC, at=1.0))
    commit(lambda: store.transition("J000001", "running", at=2.0, attempt=1,
                                    worker_pid=7))
    commit(lambda: store.submit({**SPEC, "seed": 2}, at=3.0))
    commit(lambda: store.transition("J000001", "done", at=4.0,
                                    result={"converged": 4}))
    store.close()
    return store.journal_path.read_bytes(), history


def test_job_journal_salvages_exactly_the_prefix_at_every_byte(tmp_path):
    data, history = _journal_history(tmp_path / "built")
    ends = sorted(history)[1:]
    assert ends[-1] == len(data)
    root = tmp_path / "svc"
    root.mkdir()
    journal = root / "jobs.journal"
    for kind, offset, damaged in _damages(data):
        journal.write_bytes(damaged)
        if kind == "flip" and offset < len(JOURNAL_MAGIC):
            # A foreign first frame is refused, never truncated away.
            with pytest.raises(JobStoreError, match="bad magic"):
                JobStore(root)
            assert journal.read_bytes() == damaged
            continue
        prefix_end = max([0] + [end for end in ends if end <= offset])
        scan = durable.scan_frames(damaged, JOURNAL_MAGIC)
        list(scan)
        assert scan.stop == prefix_end, (kind, offset)
        assert (scan.problem is None) == (len(damaged) == prefix_end), (kind, offset)

        store = JobStore(root)
        assert {job.id: job.to_dict() for job in store.jobs()} == history[prefix_end]
        assert store.salvaged_bytes == len(damaged) - prefix_end
        assert journal.stat().st_size == prefix_end
        new = store.submit(SPEC, at=9.0)
        store.close()
        reopened = JobStore(root, readonly=True)
        assert reopened.get(new.id).state == "queued"
        assert reopened.salvaged_bytes == 0
        assert len(reopened.jobs()) == len(history[prefix_end]) + 1


# ----------------------------------------------------------------------
# Serialisation happens before any file is touched
# ----------------------------------------------------------------------


UNSERIALISABLE = {"payload": object()}


def _speedscope(root: Path):
    target = root / "s.json"
    return target, lambda: write_speedscope(target, UNSERIALISABLE)


def _trace_index(root: Path):
    return index_path(root), lambda: write_trace_index(root, UNSERIALISABLE)


def _job_result(root: Path):
    return result_path(root), lambda: _publish_result(root, UNSERIALISABLE)


def _job_snapshot(root: Path):
    store = JobStore(root)
    job = store.submit(SPEC, at=1.0)
    store.compact()
    job.result = UNSERIALISABLE

    def compact():
        try:
            store.compact()
        finally:
            store.close()

    return store.snapshot_path, compact


@pytest.mark.parametrize(
    "setup", [_speedscope, _trace_index, _job_result, _job_snapshot],
    ids=["speedscope", "trace_index", "job_result", "job_snapshot"],
)
def test_failed_serialisation_leaves_target_and_tmp_untouched(tmp_path, setup):
    target, write = setup(tmp_path)
    if not target.exists():
        target.write_bytes(b"previous\n")
    before = target.read_bytes()
    with pytest.raises(TypeError):
        write()
    assert target.read_bytes() == before
    assert not durable.tmp_path(target).exists()

