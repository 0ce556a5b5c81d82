"""Run ``repro`` CLI arguments with the benchmark's layer wrappers installed.

    python perfbench/serve_traced.py DUMP_DIR RUN_ID serve ROOT --workers 2

The traced ``service_jobs`` run launches the service through this file so
that the job store, the scheduler and every forked job worker record spans.
On exit the server writes its aggregates and raw spans into ``DUMP_DIR``;
each job worker writes its own aggregates there as it finishes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    dump_dir, run_id, *cli_args = argv
    recorder = SpanRecorder(run_id, Path(dump_dir))
    layers.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump_aggregates()
        recorder.dump_spans()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
