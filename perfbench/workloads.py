"""Seeded inputs, oracle references and output checks for the three workloads.

Nothing in this module imports specbound.  Hosts are built here as edge
lists, written in the CLI's edge-list file format, and their initial and
final adjacency matrices are built here too, so the oracle
(``numpy.linalg.eigvalsh``) is independent of the library under test.

A workload is a list of *slots*; one *round* runs one op per slot, and each
slot draws the next instance from its pool in turn.  Pools are schedules,
not random draws: the seed picks the random details (edges, degrees, vertex
choices), while the mix of sizes, host families and perturbation kinds is
fixed, so the latency quantiles are comparable across seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

TOL = 1e-9
PATH_STEPS = 32
VERIFY_TRIALS = 30
# Perturbation keywords of the spec grammar; also the kind names ``verify``
# reports, in the order it cycles through them.
PERTURBATIONS = ("vertex", "edge", "pendant")


@dataclass
class Instance:
    """One op's CLI arguments and what its output must satisfy."""

    pool: str
    argv: list[str]
    ref_i: Optional[float] = None  # largest eigenvalue of the initial graph
    ref_f: Optional[float] = None  # largest eigenvalue of the final graph
    expect_equality: Optional[bool] = None  # only for constructed cones
    label: str = ""


# ---------------------------------------------------------------------------
# Host construction (independent of specbound)
# ---------------------------------------------------------------------------

def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _erdos_renyi(rnd: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
        if n == 1 or _connected(n, edges):
            return edges


def _circulant(n: int, delta: int, offset: int = 0) -> list[tuple[int, int]]:
    """Even-degree circulant: jumps 1..delta/2, vertices shifted by offset."""
    return [
        (offset + i, offset + (i + s) % n)
        for s in range(1, delta // 2 + 1)
        for i in range(n)
    ]


def _chain(n: int, closed: bool) -> list[tuple[int, int]]:
    edges = [(i, i + 1) for i in range(n - 1)]
    return edges + [(n - 1, 0)] if closed else edges


def _adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def _non_edge(rnd: random.Random, n: int, edges) -> tuple[int, int]:
    present = {(min(e), max(e)) for e in edges}
    while True:
        u, v = rnd.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in present:
            return u, v


def _random_host(rnd: random.Random, n: int, pert: str, p: float):
    """Erdos-Renyi host of order n (vertex n-1 isolated for a vertex connection)."""
    if pert == "vertex":
        edges = _erdos_renyi(rnd, n - 1, p)
        targets = sorted(rnd.sample(range(n - 1), rnd.randint(1, n - 1)))
        return n, edges, ["vertex", n - 1, *targets], False
    edges = _erdos_renyi(rnd, n, p)
    if pert == "edge":
        while len(edges) == n * (n - 1) // 2:  # complete: no edge to add
            edges = _erdos_renyi(rnd, n, p)
        return n, edges, ["edge", *_non_edge(rnd, n, edges)], False
    return n, edges, ["pendant", rnd.randrange(n)], False


def _cone_host(n: int, pert: str, delta: int):
    """Equality cases: cone / double cone over a delta-regular circulant."""
    if pert == "vertex":  # circulant plus an isolated apex joined to everything
        core = _circulant(n - 1, delta)
        return n, core, ["vertex", n - 1, *range(n - 1)], True
    if pert == "edge":  # double cone with apexes 0 and 1
        core = _circulant(n - 2, delta, offset=2)
        cross = [(a, w) for a in (0, 1) for w in range(2, n)]
        return n, core + cross, ["edge", 0, 1], True
    core = _circulant(n - 1, delta, offset=1)  # cone with apex 0, pendant at the apex
    return n, core + [(0, w) for w in range(1, n)], ["pendant", 0], True


def _chain_host(n: int, pert: str, closed: bool):
    """Paths and cycles: a small spectral gap, so power iteration is slow.

    The anchors are fixed fractions of n, because the cost of a solve on a
    chain depends strongly on where it is perturbed; the seed still relabels
    the vertices.
    """
    if pert == "vertex":
        return n, _chain(n - 1, closed), ["vertex", n - 1, n // 3, (2 * n) // 3], False
    if pert == "edge":
        return n, _chain(n, closed), ["edge", 0, n // 2], False
    return n, _chain(n, closed), ["pendant", n // 4], False


def _relabel(rnd: random.Random, host):
    """The same host under a random vertex permutation."""
    n, edges, spec, is_cone = host
    perm = list(range(n))
    rnd.shuffle(perm)
    kind, *vertices = spec
    return n, [(perm[i], perm[j]) for i, j in edges], [kind, *(perm[v] for v in vertices)], is_cone


def _final_edges(n: int, edges, spec) -> tuple[int, list]:
    kind, u, *rest = spec
    if kind == "vertex":
        return n, list(edges) + [(u, t) for t in rest]
    if kind == "edge":
        return n, list(edges) + [(u, rest[0])]
    return n + 1, list(edges) + [(u, n)]


def _write_host(path: str, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _instance(pool: str, index: int, workdir: str, command: list[str], host, label: str) -> Instance:
    n, edges, spec, is_cone = host
    path = os.path.join(workdir, f"{pool}-{index}.txt")
    _write_host(path, n, edges)
    n_final, final = _final_edges(n, edges, spec)
    return Instance(
        pool=pool,
        argv=[command[0], path, *command[1:], *map(str, spec)],
        ref_i=float(np.linalg.eigvalsh(_adjacency(n, edges))[-1]),
        ref_f=float(np.linalg.eigvalsh(_adjacency(n_final, final))[-1]),
        expect_equality=True if is_cone else None,
        label=f"{label} n={n} {spec[0]}",
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _bound_pool(rnd: random.Random, n: int, workdir: str) -> list[Instance]:
    """Twelve ops at order n: each perturbation kind on a random host, on a
    path or cycle, and on cones over circulants of two degrees.

    Cones are half the pool because they are the slowest family: the p90 of
    bound_large then falls inside the cones of the n=150 tier, not on the
    edge between two families, where it would jump from run to run.
    """
    pool = []
    for i, pert in enumerate(PERTURBATIONS * 4):
        family = ("random", "chain", "cone", "cone")[i // 3]
        if family == "random":
            host = _random_host(rnd, n, pert, p=rnd.uniform(0.1, 0.3) if n > 12 else 0.5)
        elif family == "chain":
            host = _chain_host(n, pert, closed=pert == "edge")
        else:
            host = _cone_host(n, pert, delta=2 if i < 9 else 6)
        pool.append(_instance(f"n{n}", i, workdir, ["bound"], _relabel(rnd, host), family))
    return pool


def _path_pools(rnd: random.Random, workdir: str) -> dict[str, list[Instance]]:
    command = ["path", "--steps", str(PATH_STEPS)]
    small = []
    # Orders 5..40 with three densities.  Every other op is a pendant, whose
    # RK4 comparison curve makes it the slowest kind, so op_p50_ms (the 75th
    # percentile of these ops) falls inside the pendant ops, not on their edge.
    for i, n in enumerate(range(5, 41)):
        pert = "pendant" if i % 2 else ("vertex", "edge")[i // 2 % 2]
        host = _random_host(rnd, n, pert, p=(0.25, 0.35, 0.45)[i % 3])
        small.append(_instance("small", i, workdir, command, host, "random"))
    chains = []
    for i, (n, closed) in enumerate([(56, False), (60, True), (64, False)] * 3):
        host = _chain_host(n, PERTURBATIONS[i // 3], closed)
        chains.append(_instance("chain", i, workdir, command, _relabel(rnd, host), "chain"))
    return {"small": small, "chain": chains}


class VerifyPool:
    """Endless stream of ``verify`` ops, each with a distinct seed."""

    def __init__(self, rnd: random.Random) -> None:
        self._base = rnd.randrange(1 << 40)

    def __getitem__(self, index: int) -> Instance:
        seed = self._base + index
        return Instance(
            pool="verify",
            argv=["verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS)],
            label=f"verify seed={seed}",
        )


@dataclass
class Workload:
    name: str
    slots: tuple[str, ...]  # pool name per op of a round
    pools: dict
    cycle_rounds: int  # rounds after which every pool has wrapped around

    def round(self, r: int) -> list[Instance]:
        """The ops of round r: slot s takes its pool's next instance in turn."""
        ops = []
        for s, pool_name in enumerate(self.slots):
            per_round = self.slots.count(pool_name)
            k = r * per_round + self.slots[:s].count(pool_name)
            pool = self.pools[pool_name]
            ops.append(pool[k] if isinstance(pool, VerifyPool) else pool[k % len(pool)])
        return ops

    def warmup(self) -> list[Instance]:
        """One op of each command, on the cheapest instance of the workload."""
        if self.name == "verify_small":
            return [Instance("warmup", ["verify", "--seed", "0", "--trials", "3"])]
        return [self.pools[self.slots[0]][0]]  # the first slot holds the smallest hosts


WORKLOADS = ("verify_small", "bound_large", "path_sweep")


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate a workload's inputs into workdir and compute their references."""
    rnd = random.Random(f"{name}:{seed}")
    if name == "verify_small":
        return Workload(name, ("verify",) * 3, {"verify": VerifyPool(rnd)}, cycle_rounds=1)
    if name == "bound_large":
        pools = {f"n{n}": _bound_pool(rnd, n, workdir) for n in (12, 40, 150)}
        return Workload(name, ("n12", "n40", "n150"), pools, cycle_rounds=12)
    if name == "path_sweep":
        return Workload(name, ("small", "small", "chain"), _path_pools(rnd, workdir), cycle_rounds=18)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check(inst: Instance, code: int, out: str) -> Optional[str]:
    """None if the op's exit code and output agree with the oracle, else why not."""
    if code != 0:
        return f"exit code {code}"
    command = inst.argv[0]
    try:
        if command == "bound":
            return _check_bound(inst, out)
        if command == "path":
            return _check_path(inst, out)
        return _check_verify(inst, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_bound(inst: Instance, out: str) -> Optional[str]:
    rep = json.loads(out)
    if abs(rep["lambda_I"] - inst.ref_i) > TOL:
        return f"lambda_I {rep['lambda_I']} != {inst.ref_i}"
    if abs(rep["lambda_F_exact"] - inst.ref_f) > TOL:
        return f"lambda_F_exact {rep['lambda_F_exact']} != {inst.ref_f}"
    if rep["bound"] < rep["lambda_F_exact"] - TOL:
        return f"bound {rep['bound']} < lambda_F_exact {rep['lambda_F_exact']}"
    if inst.expect_equality is not None and rep["equality_case"] is not inst.expect_equality:
        return f"equality_case {rep['equality_case']} != {inst.expect_equality}"
    return None


def _check_path(inst: Instance, out: str) -> Optional[str]:
    rows = [ln.split("\t") for ln in out.splitlines() if ln and not ln.startswith("#")]
    if len(rows) != PATH_STEPS + 1:
        return f"{len(rows)} rows, expected {PATH_STEPS + 1}"
    lam_0, lam_1 = float(rows[0][1]), float(rows[-1][1])
    if abs(lam_0 - inst.ref_i) > TOL:
        return f"lambda(0) {lam_0} != {inst.ref_i}"
    if abs(lam_1 - inst.ref_f) > TOL:
        return f"lambda(1) {lam_1} != {inst.ref_f}"
    worst = min(float(row[5]) for row in rows)
    if worst < -TOL:
        return f"margin {worst} < 0"
    return None


def _check_verify(inst: Instance, out: str) -> Optional[str]:
    summary = json.loads(out)
    trials = int(inst.argv[inst.argv.index("--trials") + 1])
    expected = {kind: len(range(i, trials, 3)) for i, kind in enumerate(PERTURBATIONS)}
    if summary["ok"] is not True or summary["failures"]:
        return f"verify reported failures: {summary['failures'][:1]}"
    if summary["instances"] != expected:
        return f"instances {summary['instances']} != {expected}"
    return None
