"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that the benchmark installs around public
functions of the program (see ``layers.py``); nothing under ``src/`` knows
about them.  A span is ``(id, parent id, name, start, end)``; each thread
appends to its own buffer, and every span of one run shares ``run_id``.

Self time is a span's duration minus the time its direct child spans cover.
Children run on the same thread inside their parent, so that coverage is the
sum of their durations: each open span's stack frame adds up its children's
durations as they close, and a closing span adds its calls, duration and self
time to its thread's per-name totals.

Forked workers (supervisor shards, service jobs) inherit the wrappers.  An
``os.register_at_fork`` hook gives each child empty buffers, and every time
a child closes a root span it rewrites ``agg.<pid>.json`` in the dump
directory with its per-name totals, so nothing depends on how the child
exits (``os._exit`` skips ``atexit``).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

ReturnHook = Callable[["SpanRecorder", tuple, dict, object], None]


class _ThreadSpans:
    """One thread's open-span stack, per-name totals and closed spans."""

    def __init__(self) -> None:
        # One ``[span id, seconds covered by closed children]`` per open span.
        self.stack: List[list] = []
        # Name index -> ``[calls, total_s, self_s]``.
        self.totals: Dict[int, list] = {}
        self.ids = array("Q")
        self.parents = array("Q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")


class SpanRecorder:
    """Collects spans, counters and timestamped events for one run."""

    def __init__(self, run_id: str, dump_dir: Path) -> None:
        self.run_id = run_id
        self.dump_dir = Path(dump_dir)
        self.root_pid = os.getpid()
        self.active = True
        self.names: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.events: List[list] = []
        self._buffers: List[_ThreadSpans] = []
        self._local = threading.local()

    def _thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._buffers.append(spans)
        return spans

    @property
    def in_child(self) -> bool:
        return os.getpid() != self.root_pid

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def event(self, *fields) -> None:
        self.events.append(list(fields))

    def wrap(self, fn: Callable, name: str, on_return: Optional[ReturnHook] = None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_return`` runs after the span has closed, so the bookkeeping it
        does (a ``stat`` for a byte count, say) is not charged to the layer.
        While :attr:`active` is false (the output checks after the timed
        window) the wrapper records nothing.
        """
        recorder = self
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            spans = recorder._thread_spans()
            stack = spans.stack
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = spans.totals.get(name_index)
                if totals is None:
                    totals = spans.totals[name_index] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                spans.ids.append(span_id)
                spans.parents.append(parent)
                spans.names.append(name_index)
                spans.starts.append(start)
                spans.ends.append(end)
            if on_return is not None:
                on_return(recorder, args, kwargs, result)
            if not stack and recorder.in_child:
                recorder.dump_aggregates()
            return result

        return traced

    # -- output ------------------------------------------------------------

    def aggregates(self) -> dict:
        """Per-name ``calls``/``total_s``/``self_s`` plus counters and events."""
        layers: Dict[str, Dict[str, float]] = {}
        for spans in list(self._buffers):
            for index, (calls, total_s, self_s) in list(spans.totals.items()):
                entry = layers.setdefault(
                    self.names[index], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["total_s"] += total_s
                entry["self_s"] += self_s
        return {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "root": not self.in_child,
            "layers": layers,
            "counters": dict(self.counters),
            "events": list(self.events),
        }

    def dump_aggregates(self) -> Path:
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        target = self.dump_dir / f"agg.{os.getpid()}.json"
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(self.aggregates()))
        os.replace(tmp, target)
        return target

    def dump_spans(self) -> Path:
        """Write every span of this process to ``spans.<pid>.npz``."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        target = self.dump_dir / f"spans.{os.getpid()}.npz"
        buffers = list(self._buffers)

        def column(attr: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(b, attr), dtype=dtype) for b in buffers]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        np.savez(
            target,
            run_id=np.array(self.run_id),
            pid=np.array(os.getpid()),
            names=np.array(self.names),
            thread=np.concatenate(
                [np.full(len(b.ids), i, dtype=np.uint16) for i, b in enumerate(buffers)]
            ) if buffers else np.empty(0, dtype=np.uint16),
            id=column("ids", np.uint64),
            parent=column("parents", np.uint64),
            name=column("names", np.uint16),
            start=column("starts", np.float64),
            end=column("ends", np.float64),
        )
        return target


def load_dumps(dump_dir: Path) -> List[dict]:
    """Every ``agg.<pid>.json`` written under ``dump_dir``."""
    return [json.loads(path.read_text()) for path in sorted(Path(dump_dir).glob("agg.*.json"))]


def merge_layers(dumps: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Sum per-name aggregates over processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for dump in dumps:
        for name, entry in dump["layers"].items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
    return merged


def merge_counters(dumps: Iterable[dict]) -> Dict[str, float]:
    merged: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        for name, value in dump["counters"].items():
            merged[name] += value
    return dict(merged)
