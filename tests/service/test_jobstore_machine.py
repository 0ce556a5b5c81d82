"""A Hypothesis state machine over :class:`JobStore`, checked against a model.

The model is a plain dict of the *committed* state: what every
acknowledged ``submit``/``transition`` promised.  Rules mix live commits,
refused commits, compaction, crashes that tear a half-written record onto
the journal tail, and clean restarts; after every step the live store, and
a read-only replay of what is on disk, must both equal the model.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.service.jobstore import (
    JOB_STATES,
    JOBSTORE_SCHEMA_VERSION,
    LEGAL_TRANSITIONS,
    Job,
    JobStore,
    JobStoreError,
    frame_record,
    load_jobs,
)

SPEC = {"kind": "ensemble", "protocol": "voter", "n": 30, "replicas": 4,
        "max_rounds": 100, "seed": 1}

FIELDS = st.fixed_dictionaries({}, optional={
    "attempt": st.integers(0, 5),
    "retries": st.integers(0, 3),
    "worker_pid": st.none() | st.integers(1, 99_999),
    "backoff_s": st.none() | st.sampled_from([0.25, 1.5]),
    "error": st.none() | st.text(max_size=8),
    "result": st.none() | st.dictionaries(st.sampled_from("ab"), st.integers(0, 9)),
})


class JobStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="jobstore-machine-"))
        # Small enough that some runs also compact automatically mid-commit.
        self.store = JobStore(self.root, compact_bytes=1500)
        self.model = {}
        self.seq = 0
        self.clock = 0.0

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _movable(self):
        return sorted(
            job_id for job_id, job in self.model.items()
            if LEGAL_TRANSITIONS[job["state"]]
        )

    @rule(seed=st.integers(0, 3), max_retries=st.integers(0, 2))
    def submit(self, seed, max_retries):
        at = self._tick()
        job = self.store.submit({**SPEC, "seed": seed}, max_retries=max_retries, at=at)
        assert job.id == f"J{len(self.model) + 1:06d}"
        self.model[job.id] = Job(
            id=job.id, spec={**SPEC, "seed": seed}, created_at=at, updated_at=at,
            max_retries=max_retries,
        ).to_dict()
        self.seq += 1

    @precondition(lambda self: self._movable())
    @rule(data=st.data(), fields=FIELDS)
    def legal_transition(self, data, fields):
        job_id = data.draw(st.sampled_from(self._movable()))
        legal = LEGAL_TRANSITIONS[self.model[job_id]["state"]]
        to = data.draw(st.sampled_from(sorted(legal)))
        at = self._tick()
        self.store.transition(job_id, to, at=at, **fields)
        self.model[job_id].update(fields, state=to, updated_at=at)
        self.seq += 1

    def _illegal(self, job_id):
        state = self.model[job_id]["state"] if job_id in self.model else None
        return [s for s in JOB_STATES if s not in LEGAL_TRANSITIONS.get(state, ())]

    @rule(data=st.data())
    def illegal_transition(self, data):
        # "J999999" is never submitted, so every transition of it is refused.
        candidates = [j for j in sorted(self.model) if self._illegal(j)] + ["J999999"]
        job_id = data.draw(st.sampled_from(candidates))
        to = data.draw(st.sampled_from(self._illegal(job_id)))
        size = self.store.journal_path.stat().st_size
        with pytest.raises(JobStoreError):
            self.store.transition(job_id, to, at=self._tick())
        assert self.store.journal_path.stat().st_size == size

    @rule()
    def compact(self):
        self.store.compact()
        assert self.store.journal_path.stat().st_size == 0

    @rule(data=st.data())
    def crash_mid_append(self, data):
        # The next commit's frame, cut short: what a crash inside the append
        # leaves behind.  It was never acknowledged, so the model is unchanged.
        record = {"schema": JOBSTORE_SCHEMA_VERSION, "seq": self.seq + 1,
                  "job": "J000001", "to": "cancelled", "at": self._tick(),
                  "fields": {}}
        frame = frame_record(json.dumps(record).encode())
        cut = data.draw(st.integers(1, len(frame) - 1))
        self.store.close()
        with open(self.store.journal_path, "ab") as handle:
            handle.write(frame[:cut])
        self.store = JobStore(self.root, compact_bytes=1500)
        assert self.store.salvaged_bytes == cut

    @rule()
    def restart(self):
        self.store.close()
        self.store = JobStore(self.root, compact_bytes=1500)
        assert self.store.salvaged_bytes == 0

    @invariant()
    def live_and_durable_state_equal_the_model(self):
        assert {job.id: job.to_dict() for job in self.store.jobs()} == self.model
        assert self.store.seq == self.seq
        on_disk = load_jobs(self.root)
        assert {job.id: job.to_dict() for job in on_disk.jobs()} == self.model
        assert on_disk.seq == self.seq


JobStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestJobStoreMachine = JobStoreMachine.TestCase
