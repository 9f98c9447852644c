"""One-shot figures to set against the benchmark's first recorded numbers.

    python3 perfbench/crosscheck.py

Re-measures, in one process, the one-shot baseline figures the project
started from: ``run_verification(42, 200)`` wall time (median of 5), one
``bound`` op on each n=150 host of bound_large (seed 1), by host family, and
the traced ``perron`` iteration count of one ``bound`` call on the path
P_200.  README.md compares them with the first recorded results.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time

import run
import worker
import workloads
from tracer import Tracer


def main() -> int:
    cli = worker.import_cli()
    from specbound import run_verification

    verify_s = []
    for _ in range(5):
        start = time.perf_counter()
        summary = run_verification(42, 200)
        verify_s.append(time.perf_counter() - start)
        if not summary.ok:
            raise SystemExit("run_verification(42, 200) reported failures")

    workdir = run.OUT / "tmp" / "crosscheck"
    workdir.mkdir(parents=True, exist_ok=True)
    bound_150 = {}
    for inst in workloads.build("bound_large", 1, str(workdir)).pools["n150"]:
        seconds, problem = worker.run_op(cli, inst, workloads)
        if problem is not None:
            raise SystemExit(problem)
        bound_150.setdefault(inst.label.split()[0], []).append(seconds)

    host = workdir / "P200.txt"
    host.write_text("200 199\n" + "".join(f"{i} {i + 1}\n" for i in range(199)))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["bound", str(host), "edge", "0", "199"])
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    calls, _ = tracer.layer_totals()
    record = {
        "env": worker.environment(),
        "run_verification_42_200_s": {"median": statistics.median(verify_s), "samples": verify_s},
        "bound_n150_s_by_family": {f: {"median": statistics.median(v), "samples": v} for f, v in bound_150.items()},
        "bound_P200_exit_code": code,
        "bound_P200_perron_calls": calls.get("spectral.perron", 0),
        "bound_P200_perron_iterations": tracer.perron_iterations,
    }
    (run.OUT / "results").mkdir(parents=True, exist_ok=True)
    (run.OUT / "results" / "crosscheck.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
