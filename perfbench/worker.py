"""One benchmark process: set up a workload, then run its ops in-process.

run.py starts this file in a fresh interpreter for every sample, so each
setup includes the import of specbound and untraced samples never see a
patched library::

    python3 perfbench/worker.py --workload W --seed N --mode setup
    python3 perfbench/worker.py --workload W --seed N --mode measure --seconds S
    python3 perfbench/worker.py --workload W --seed N --mode fixed --rounds R [--trace-out FILE]

``setup`` only sets up; ``measure`` runs whole cycles of rounds for at least
``--seconds`` and at least MIN_ROUNDS rounds; ``fixed`` runs exactly
``--rounds`` rounds, traced when ``--trace-out`` is given.  The last line of
stdout is one JSON object.
"""

import time

_START = time.perf_counter()  # setup_s counts from here: imports are part of it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# 34 rounds of 3 ops is at least 102 ops, so 10 or more latencies lie beyond p90.
MIN_ROUNDS = 34
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_cli():
    """specbound.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from specbound import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"specbound was imported from {cli.__file__}, not from {src}")
    return cli


def run_op(cli, inst, workloads):
    """Run one CLI call with its output captured; (seconds, failure or None)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inst.argv))
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - start, f"{inst.label}: raised {exc!r}"
    seconds = time.perf_counter() - start
    problem = workloads.check(inst, code, out.getvalue())
    return seconds, None if problem is None else f"{inst.label}: {problem}"


def run_rounds(cli, workload, workloads, count, results, tracer=None):
    """Run the next count rounds, appending (pool, seconds, failure) per op."""
    first = len(results) // len(workload.slots)
    for r in range(first, first + count):
        for inst in workload.round(r):
            if tracer is not None:
                tracer.op = len(results)
            seconds, problem = run_op(cli, inst, workloads)
            results.append((inst.pool, seconds, problem))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_cap": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
    }


def summarize(results, elapsed: float) -> dict:
    failures = [p for _, _, p in results if p is not None]
    return {
        "elapsed_s": elapsed,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        "pools": [pool for pool, _, _ in results],
        "latencies_ms": [seconds * 1e3 for _, seconds, _ in results],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    workdir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = import_cli()
        import workloads

        workload = workloads.build(args.workload, args.seed, str(workdir))
        for inst in workload.warmup():
            run_op(cli, inst, workloads)
        report = {"setup_s": time.perf_counter() - _START}

        if args.mode == "measure":
            results = []
            start = time.perf_counter()
            while len(results) < MIN_ROUNDS * len(workload.slots) or time.perf_counter() - start < args.seconds:
                run_rounds(cli, workload, workloads, workload.cycle_rounds, results)
            report.update(summarize(results, time.perf_counter() - start))
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.mode == "fixed":
            tracer = None
            if args.trace_out:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            results = []
            start = time.perf_counter()
            try:
                run_rounds(cli, workload, workloads, args.rounds, results, tracer)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            report.update(summarize(results, elapsed))
            if tracer is not None:
                layers = json.loads((HERE / "layers.json").read_text())["metrics"]
                report["layers"] = tracer.metrics(n for n in layers if not n.startswith("trace."))
                report["missing"] = tracer.missing
                report["spans"] = len(tracer.spans)
                tracer.dump(args.trace_out)
        if args.mode != "setup":
            report["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
