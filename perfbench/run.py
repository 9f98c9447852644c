"""specbound benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload {verify_small,bound_large,path_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every op is one in-process call of
``specbound.cli.main`` with its output captured and checked against an
oracle that does not use specbound (see workloads.py).  The workloads are
closed loops with one client; the load generator starts no threads, and
BLAS/OpenMP threads are capped at the number of usable CPUs.

``--trace 0`` reports the end-to-end metrics.  Set-up runs SETUP_SAMPLES
times, each in a fresh interpreter (the last one goes on to measure), and
setup_s is their median.  The measuring process runs whole cycles of its
workload for at least ``--seconds`` and at least 102 ops.

``--trace 1`` reports the per-layer metrics of layers.json.  It runs the
same fixed list of ops twice in fresh processes, untraced and traced, so the
counts repeat exactly for a seed and the tracing overhead is the difference
of the two throughputs.

The last line of stdout is the result; a fuller record, with the
environment and sample counts, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_CAP_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("verify_small", "bound_large", "path_sweep")
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # every run ends, result printed, within 180 s
# Nominal seconds of one traced plus one untraced round; sizes the traced run.
TRACE_ROUND_S = {"verify_small": 1.0, "bound_large": 2.0, "path_sweep": 1.5}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "fraction",
}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_CAP_VARS:
        env[var] = cap
    return env


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {extra} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {extra} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_record(latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "samples": len(latencies),
        "p50_ms": statistics.median(latencies),
        "p90_ms": p90,
        "beyond_p90": sum(x > p90 for x in latencies),
    }


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    setups = [run_worker(args, deadline, "--mode", "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    m = run_worker(args, deadline, "--mode", "measure", "--seconds", str(args.seconds))
    setups.append(m["setup_s"])
    lat = percentile_record(m["latencies_ms"])
    by_pool = {}
    for pool, ms in zip(m["pools"], m["latencies_ms"]):
        by_pool.setdefault(pool, []).append(ms)
    metrics = {
        "ops_per_s": m["attempted"] / m["elapsed_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_p90_ms": lat["p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": m["peak_rss_mb"],
        "correct_frac": (m["attempted"] - m["failed"]) / m["attempted"],
    }
    record = {
        "env": m["env"],
        "elapsed_s": m["elapsed_s"],
        "latency": lat,
        "latency_by_pool": {p: percentile_record(v) for p, v in by_pool.items()},
        "setup_samples_s": setups,
        "failed_frac": m["failed"] / m["attempted"],
        "failures": m["failures"],
    }
    return {"attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}, record


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    rounds = max(1, int(args.seconds / TRACE_ROUND_S[args.workload]))
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    spans_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    plain = run_worker(args, deadline, "--mode", "fixed", "--rounds", str(rounds))
    traced = run_worker(args, deadline, "--mode", "fixed", "--rounds", str(rounds), "--trace-out", str(spans_file))
    plain_rate = plain["attempted"] / plain["elapsed_s"]
    traced_rate = traced["attempted"] / traced["elapsed_s"]
    metrics = dict(traced["layers"], **{"trace.overhead_ops_per_s": traced_rate - plain_rate})
    record = {
        "env": traced["env"],
        "rounds": rounds,
        "ops_per_s_untraced": plain_rate,
        "ops_per_s_traced": traced_rate,
        "spans": traced["spans"],
        "spans_file": str(spans_file.relative_to(ROOT)),
        "missing_functions": traced["missing"],
        "failures": traced["failures"] + plain["failures"],
    }
    failed = plain["failed"] + traced["failed"]
    return {"attempted": plain["attempted"] + traced["attempted"], "failed": failed, "metrics": metrics}, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "specbound" / "__init__.py").is_file():
        print(f"error: no specbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        summary, record = (traced_run if args.trace else timed_run)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {n: spec["unit"] for n, spec in json.loads((HERE / "layers.json").read_text())["metrics"].items()}
    else:
        units = END_TO_END_UNITS
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         **result, **record}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
