"""Run every workload on ten seeds, twice, and record how steady each metric is.

    python3 perfbench/steadiness.py

Each of two sets runs seeds 1 to 10.  Within a set the workloads take turns,
seed by seed, so a slow drift of the host's speed reaches every workload
alike.  Seeds in ``TRACED_SEEDS`` also get a traced run right after their
untraced one, so the tracing overhead is each traced run against its
untraced neighbour rather than against a median taken minutes apart.

For each set, workload and end-to-end metric this prints and records the
median, the first and third quartile (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``; across the two sets it records how far the second
median is from the first, as a share of the first.  Per workload it records
the per-layer medians over the traced runs, and the paired tracing overhead
of ``replica_rounds_per_s`` and ``job_latency_p50_ms``.  Run from the root
of a checkout; the result goes to ``perfbench/STEADINESS.json``.  The exit
code is 0 when every spread but ``setup_s``'s and every median-to-median
change stays within its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = (1, 5, 9)
OVERHEAD_METRICS = ("replica_rounds_per_s", "job_latency_p50_ms")
OUT = HERE / "STEADINESS.json"


def _run(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    result = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {result.returncode}:\n{result.stderr[-3000:]}"
        )
    report = json.loads(result.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.perf_counter() - start
    if not report["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{result.stderr}")
    return report


def _stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def _host() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for module in ("numpy", "scipy", "numba"):
        try:
            facts[module] = __import__(module).__version__
        except ImportError:
            facts[module] = None
    return facts


def main() -> int:
    runs = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    for number in range(SETS):
        for seed in SEEDS:
            for workload in WORKLOADS:
                plain = _run(workload, seed, 0)
                values = {name: m["value"] for name, m in plain["metrics"].items()}
                runs[workload][number].append({
                    "seed": seed, "attempted": plain["attempted"],
                    "failed": plain["failed"], "elapsed_s": plain["elapsed_s"],
                    "metrics": values,
                })
                print(f"set {number + 1} {workload} seed {seed}: " + ", ".join(
                    f"{name}={value:.4g}" for name, value in values.items()
                ), file=sys.stderr, flush=True)
                if seed in TRACED_SEEDS:
                    layers = {n: m["value"] for n, m in _run(workload, seed, 1)["metrics"].items()}
                    traced[workload].append({"set": number + 1, "seed": seed, "untraced": values,
                                             "layers": layers})

    record = {"host": _host(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    accepted = True
    third = True
    for workload in WORKLOADS:
        entry = {"sets": [], "between_sets": {}}
        for number in range(SETS):
            stats_by_metric = {}
            for name, bound in BOUNDS.items():
                stats = _stats([r["metrics"][name] for r in runs[workload][number]])
                stats["bound"] = bound
                stats["within_bound"] = stats["spread"] <= bound
                stats["within_third_of_bound"] = stats["spread"] < bound / 3
                if name != "setup_s":
                    accepted &= stats["within_bound"]
                    third &= stats["within_third_of_bound"]
                stats_by_metric[name] = stats
                print(f"set {number + 1} {workload:17s} {name:22s} median {stats['median']:12.4f} "
                      f"spread {stats['spread']:.3f} (bound {bound})")
            entry["sets"].append({"runs": runs[workload][number], "end_to_end": stats_by_metric})
        for name, bound in BOUNDS.items():
            first, second = (s["end_to_end"][name]["median"] for s in entry["sets"][:2])
            change = (second - first) / first
            worse = change if BETTER[name] == "lower" else -change
            entry["between_sets"][name] = {"change": change, "bound": bound,
                                           "within_bound": worse <= bound}
            accepted &= worse <= bound
            print(f"{workload:17s} {name:22s} second median vs first {change:+.3f} (bound {bound})")

        pairs = traced[workload]
        entry["per_layer_median"] = {
            name: statistics.median(p["layers"][name] for p in pairs) for name in pairs[0]["layers"]
        }
        overhead = {}
        for name in OVERHEAD_METRICS:
            changes = [p["layers"][f"traced.{name}"] / p["untraced"][name] - 1 for p in pairs]
            overhead[name] = {"paired_changes": changes, "median": statistics.median(changes)}
        entry["tracing_overhead"] = overhead
        entry["traced_runs"] = [{"set": p["set"], "seed": p["seed"]} for p in pairs]
        print(f"{workload:17s} kernel share {entry['per_layer_median']['kernel_share']:.3f}; "
              "tracing overhead " + ", ".join(
                  f"{name} {o['median']:+.3f}" for name, o in overhead.items()))
        record["workloads"][workload] = entry
    record["accepted"] = accepted
    record["within_third_of_bound"] = third
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
