"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

1. The oracle trips: with correct references a sample of bound and path ops
   has failed_frac 0, and corrupting one reference by 1e-6 makes it > 0.
2. The tracer patches every binding of a traced function and restores them
   all, and no traced function is missing from the library.
3. BENCHMARK.json, layers.json and run.py name the same metrics and units.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import worker
import workloads
from tracer import TRACED, Tracer


def failed_frac(cli, instances) -> float:
    failures = [worker.run_op(cli, inst, workloads)[1] for inst in instances]
    return sum(f is not None for f in failures) / len(failures)


def check_oracle(cli, workdir: Path) -> list[str]:
    problems = []
    bound_ops = workloads.build("bound_large", 0, str(workdir)).pools["n12"]
    path_ops = workloads.build("path_sweep", 0, str(workdir)).pools["small"][:6]
    verify_ops = [workloads.build("verify_small", 0, str(workdir)).pools["verify"][0]]
    for name, ops, corrupt in (
        ("bound", bound_ops, "ref_f"),
        ("path", path_ops, "ref_i"),
        ("verify", verify_ops, None),
    ):
        clean = failed_frac(cli, ops)
        if clean != 0.0:
            problems.append(f"{name}: failed_frac {clean} with correct references")
        if corrupt is None:
            continue
        setattr(ops[0], corrupt, getattr(ops[0], corrupt) + 1e-6)
        tripped = failed_frac(cli, ops)
        if not tripped > 0.0:
            problems.append(f"{name}: a corrupted {corrupt} left failed_frac at {tripped}")
    return problems


def bindings(original) -> list[tuple[str, str]]:
    return [(name, attr) for name, module in sorted(sys.modules.items())
            if name.startswith("specbound") for attr, value in vars(module).items() if value is original]


def check_tracer() -> list[str]:
    problems = []
    targets = []
    for module_name, attr, _ in TRACED:
        owner_name, _, method = attr.rpartition(".")
        owner = sys.modules[module_name]
        owner = getattr(owner, owner_name) if owner_name else owner
        targets.append((f"{module_name}.{attr}", owner, method, getattr(owner, method)))
    before = [bindings(fn) for *_, fn in targets]
    tracer = Tracer()
    tracer.install()
    try:
        if tracer.missing:
            problems.append(f"traced functions missing from the library: {tracer.missing}")
        for name, owner, method, fn in targets:
            if getattr(owner, method) is fn or bindings(fn):
                problems.append(f"{name} is not traced at every binding: {bindings(fn)}")
    finally:
        tracer.uninstall()
    restored = all(getattr(owner, method) is fn for _, owner, method, fn in targets)
    if not restored or [bindings(fn) for *_, fn in targets] != before:
        problems.append("uninstall did not restore every binding")
    return problems


def check_names() -> list[str]:
    problems = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.HERE / "layers.json").read_text())["metrics"]
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if per_layer != {n: (s["unit"], s["better"]) for n, s in layers.items()}:
        problems.append("BENCHMARK.json per_layer differs from layers.json")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS) or sorted(names) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ between BENCHMARK.json, run.py and workloads.py")
    return problems


def main() -> int:
    cli = worker.import_cli()
    workdir = run.OUT / "tmp" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_oracle(cli, workdir) + check_tracer() + check_names()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
