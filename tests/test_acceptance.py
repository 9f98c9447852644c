"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (visible with
``pytest -v -s`` or in failure output).  Expected values come from the
library-independent oracles: the library's LAPACK eigensolver is
cross-checked against pure-Python cyclic Jacobi and shifted power iteration
(``oracles.py``), closed forms against the eigensolver, and the first-integral
roots of the majorizing ODE against Runge-Kutta integration (``oracles.py``).

Criteria 1-2 share one corpus: every connected graph on at most 7 vertices
(up to isomorphism, via the networkx atlas) with exhaustive edge/pendant
perturbations and sampled vertex connections, plus 500 seeded random
connected instances per kind on up to 12 vertices.
"""

import math
import time

import networkx as nx
import numpy as np
import pytest

import specbound as sb
from oracles import MAJORANTS, jacobi_spectrum, power_perron, rk4
from specbound import Perturbation, PerturbationKind, graphs
from specbound.bounds import KIND_SPECS
from specbound.spectral import PERRON_TOL
from specbound.rng import SplitMix64, random_instance

SEED = 42
KINDS = (
    PerturbationKind.VERTEX_CONNECTION,
    PerturbationKind.EDGE_ADDITION,
    PerturbationKind.PENDANT_EDGE,
)
P_CYCLE = (0.3, 0.5, 0.8)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def _repro(host, pert) -> str:
    return f"{sb.format_perturbation_spec(pert)} on {sb.format_edge_list(host)!r}"


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_hosts():
    """All connected graphs on 1..7 vertices, one per isomorphism class."""
    hosts = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 1 or n > 7 or not nx.is_connected(g):
            continue
        hosts.append(sb.from_edge_list(n, [(int(a), int(b)) for a, b in g.edges()]))
    assert len(hosts) == 996  # 1+1+2+6+21+112+853
    return hosts


def _vertex_target_sets(n: int, host_index: int) -> list[tuple[int, ...]]:
    if n <= 4:
        return [
            tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
        ]
    sets = {tuple(range(n))} | {(v,) for v in range(n)}
    rng = SplitMix64.spawn(SEED * 1000 + 17, host_index)
    for _ in range(4 if n == 7 else 6):
        sets.add(tuple(rng.nonempty_subset(n)))
    return sorted(sets)


def _evaluate(host, pert, lam_i):
    """One corpus row; lambda_F comes from the full spectrum of the final graph."""
    final = sb.apply_perturbation(host, pert)
    bound = sb.perturbation_bound(pert.kind, lam_i, **sb.bound_parameters(host, pert))
    lam_f = float(sb.full_spectrum(final.adjacency())[0])
    return {
        "kind": pert.kind,
        "host": host,
        "pert": pert,
        "lambda_i": lam_i,
        "lambda_f": lam_f,
        "bound": bound,
        "equality": sb.equality_case(host, pert),
    }


@pytest.fixture(scope="module")
def bound_corpus(small_hosts):
    t0 = time.perf_counter()
    rows = []
    for idx, h in enumerate(small_hosts):
        lam_host = sb.spectral_radius(h.adjacency()) if h.m else 0.0
        vc_host = sb.Graph(h.n + 1, h.edges)  # vertex h.n is isolated
        for targets in _vertex_target_sets(h.n, idx):
            rows.append(
                _evaluate(vc_host, Perturbation.vertex_connection(h.n, targets), lam_host)
            )
        for u in range(h.n):
            for v in range(u + 1, h.n):
                if not h.has_edge(u, v):
                    rows.append(_evaluate(h, Perturbation.edge_addition(u, v), lam_host))
        if h.m > 0:  # pendant bound needs lambda_I > 0
            for u in range(h.n):
                rows.append(_evaluate(h, Perturbation.pendant_edge(u), lam_host))
    for kind in KINDS:
        for i in range(500):
            rng = SplitMix64.spawn(SEED + 1000 * KINDS.index(kind), i)
            host, pert = random_instance(rng, kind, 12, P_CYCLE[i % 3])
            lam_i = sb.spectral_radius(host.adjacency()) if host.m else 0.0
            rows.append(_evaluate(host, pert, lam_i))
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "seconds": elapsed}


def _feasible_regular_pairs(n_max=8):
    return [
        (n, delta)
        for n in range(1, n_max + 1)
        for delta in range(n)
        if (n * delta) % 2 == 0
    ]


def _equality_instance(kind, n, delta):
    core = sb.circulant_graph(n, delta)
    if kind is PerturbationKind.VERTEX_CONNECTION:
        return sb.Graph(n + 1, core.edges), Perturbation.vertex_connection(n, range(n))
    if kind is PerturbationKind.EDGE_ADDITION:
        return sb.join(sb.empty_graph(2), core), Perturbation.edge_addition(0, 1)
    return sb.join(sb.empty_graph(1), core), Perturbation.pendant_edge(0)


@pytest.fixture(scope="module")
def path_corpus():
    """50 random paths per kind (20 interior points each) plus the equality
    constructions, classified by the structural recognizer."""
    random_paths = []
    for kind in KINDS:
        for i in range(50):
            rng = SplitMix64.spawn(SEED + 77 * (KINDS.index(kind) + 1), i)
            host, pert = random_instance(rng, kind, 10, P_CYCLE[i % 3])
            path = sb.sample_path(host, pert, steps=21)
            random_paths.append((host, pert, path, sb.equality_case(host, pert)))
    equality_paths = []
    for kind in KINDS:
        for n, delta in ((1, 0), (3, 2), (4, 2), (5, 0), (6, 3)):
            host, pert = _equality_instance(kind, n, delta)
            path = sb.sample_path(host, pert, steps=21)
            assert sb.equality_case(host, pert)
            equality_paths.append((host, pert, path, True))
    return random_paths, equality_paths


# ---------------------------------------------------------------------------
# Criterion 1: bound validity
# ---------------------------------------------------------------------------

def test_criterion_1_bound_validity(bound_corpus):
    rows = bound_corpus["rows"]
    worst = max(r["lambda_f"] - r["bound"] for r in rows)
    bad = [r for r in rows if r["lambda_f"] - r["bound"] > 1e-9]
    detail = (
        f"{len(rows)} instances, max lambda_F - bound = {worst:.3e}, "
        f"corpus built in {bound_corpus['seconds']:.1f}s"
    )
    if bad:
        detail += f"; first failure: {_repro(bad[0]['host'], bad[0]['pert'])}"
    _verdict(1, "bound validity over exhaustive + random corpus", not bad, detail)
    assert bound_corpus["seconds"] < 120.0, "runtime target exceeded"


# ---------------------------------------------------------------------------
# Criterion 2: equality characterization
# ---------------------------------------------------------------------------

def test_criterion_2_equality_dichotomy(bound_corpus):
    failures = []
    # constructible equality cases: cones / double cones over regular circulants
    eq_count = 0
    for kind in KINDS:
        for n, delta in _feasible_regular_pairs(8):
            host, pert = _equality_instance(kind, n, delta)
            lam_i = sb.spectral_radius(host.adjacency()) if host.m else 0.0
            row = _evaluate(host, pert, lam_i)
            eq_count += 1
            if not row["equality"]:
                failures.append(f"recognizer missed {kind.value} n={n} delta={delta}")
            if abs(row["bound"] - row["lambda_f"]) > 1e-8:
                failures.append(
                    f"{kind.value} n={n} delta={delta}: |bound-lambda_F| = "
                    f"{abs(row['bound'] - row['lambda_f']):.3e}"
                )
    # zero-degree perturbations of edgeless hosts (d = 0, lambda_I = 0): K2 is
    # a cone over K1 and a double cone over 2K1, and its index 1 the bound
    for host, pert in (
        (sb.empty_graph(1), Perturbation.pendant_edge(0)),
        (sb.empty_graph(2), Perturbation.edge_addition(0, 1)),
    ):
        row, rep = _evaluate(host, pert, 0.0), sb.bound_report(host, pert)
        eq_count += 1
        if not (row["equality"] and rep.equality_case):
            failures.append(f"recognizer missed {_repro(host, pert)}")
        if (row["bound"], row["lambda_f"], rep.bound, rep.lambda_f_exact, rep.slack) != (1.0, 1.0, 1.0, 1.0, 0.0):
            failures.append(f"degenerate {_repro(host, pert)}: {rep}")
    # dichotomy across the criterion-1 corpus
    min_strict = math.inf
    max_equality_gap = 0.0
    for r in bound_corpus["rows"]:
        gap = r["bound"] - r["lambda_f"]
        if r["equality"]:
            max_equality_gap = max(max_equality_gap, abs(gap))
            if abs(gap) > 1e-8:
                failures.append(f"equality instance with gap {gap:.3e}: {_repro(r['host'], r['pert'])}")
        else:
            min_strict = min(min_strict, gap)
            if gap < 1e-7:
                failures.append(f"strict instance with slack {gap:.3e}: {_repro(r['host'], r['pert'])}")
    detail = (
        f"{eq_count} constructions, max equality gap {max_equality_gap:.2e}, "
        f"min strict slack {min_strict:.2e}"
    )
    if failures:
        detail += f"; {failures[0]}"
    _verdict(2, "equality dichotomy", not failures, detail)


def _every_small_instance():
    """Every perturbation of every graph on at most 6 vertices, connected or
    not, whose final graph is connected: each target set of a new isolated
    vertex, each missing edge and each pendant edge, with the final graph."""
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if not 1 <= n <= 6:
            continue
        host = sb.from_edge_list(n, [(int(a), int(b)) for a, b in g.edges()])
        with_u = sb.Graph(n + 1, host.edges)  # vertex n is isolated
        cases = [
            (with_u, Perturbation.vertex_connection(n, [v for v in range(n) if mask >> v & 1]))
            for mask in range(1, 1 << n)
        ]
        cases += [(host, Perturbation.edge_addition(u, v)) for u in range(n) for v in range(u + 1, n)
                  if not host.has_edge(u, v)]
        cases += [(host, Perturbation.pendant_edge(u)) for u in range(n)]
        for h, pert in cases:
            final = sb.apply_perturbation(h, pert)
            if sb.is_connected(final):
                yield h, pert, final


def _equality_core(host, pert, final):
    """The regular core of an equality case, as ``(n, delta)``: the final
    graph without the ends of the added edges (``u`` alone for a vertex
    connection).  Each core vertex is joined to every apex, one per degree
    keyword of the kind."""
    ends = graphs._ends(pert, host.n)
    left_out = ends[:1] if pert.kind is PerturbationKind.VERTEX_CONNECTION else ends
    core = [v for v in range(final.n) if v not in left_out]
    return len(core), (final.degree(core[0]) - len(KIND_SPECS[pert.kind].params) if core else 0)


def test_equality_dichotomy_on_every_instance_of_at_most_6_vertices():
    # Every instance of every host on at most 6 vertices whose final graph
    # is connected, disconnected hosts included, solved in blocks with grid
    # points, so lambda_F is the certified root at t = 1: it matches LAPACK's
    # top eigenvalue of the final graph, the recognizer fires iff the bound
    # is attained, and each equality case is its closed-form join.
    t0 = time.perf_counter()
    cases = list(_every_small_instance())
    counts, equal, failures = {kind: 0 for kind in KINDS}, 0, []
    min_strict, max_equality_gap, max_root_error = math.inf, 0.0, 0.0
    for first in range(0, len(cases), 500):
        block = cases[first : first + 500]
        insts = graphs._instances([(h, pert) for h, pert, _ in block], PERRON_TOL, 2)
        for (host, pert, final), inst in zip(block, insts, strict=True):
            counts[pert.kind] += 1
            exact = float(sb.full_spectrum(final.adjacency())[0])
            error = abs(inst.lambda_f - exact) / max(1.0, inst.lambda_f)
            max_root_error = max(max_root_error, error)
            if error > 1e-12:
                failures.append(f"lambda_F {inst.lambda_f!r} against {exact!r}: {_repro(host, pert)}")
            gap = sb.perturbation_bound(pert.kind, inst.lambda_i, **inst.params) - inst.lambda_f
            if inst.equality != sb.equality_case(host, pert):
                failures.append(f"set-up recognizer disagrees: {_repro(host, pert)}")
            if inst.equality:
                equal += 1
                max_equality_gap = max(max_equality_gap, abs(gap))
                n, delta = _equality_core(host, pert, final)
                join = sb.closed_form_join(pert.kind, n, delta, 1.0).value if n else 1.0  # K2 over no core
                if abs(gap) > 1e-8 or abs(inst.lambda_f - join) > 1e-12 * max(1.0, join):
                    failures.append(f"equality case off its join (gap {gap:.3e}): {_repro(host, pert)}")
            else:
                min_strict = min(min_strict, gap)
                if gap < 1e-7:
                    failures.append(f"strict instance with slack {gap:.3e}: {_repro(host, pert)}")
    detail = (
        ", ".join(f"{kind.value} {count}" for kind, count in counts.items())
        + f"; {equal} equality cases, max equality gap {max_equality_gap:.2e}, min strict slack "
        f"{min_strict:.2e}, max lambda_F error {max_root_error:.1e}, {time.perf_counter() - t0:.2f} s"
    )
    if failures:
        detail += f"; {failures[0]}"
    _verdict(2, "equality dichotomy on every instance of at most 6 host vertices", not failures, detail)


def _perturbations(host):
    """Every perturbation that applies to ``host``: each vertex connection of
    an isolated vertex, each missing edge and each pendant edge."""
    n = host.n
    degrees = host.degrees()
    for u in (v for v in range(n) if degrees[v] == 0):
        others = [v for v in range(n) if v != u]
        for mask in range(1, 1 << len(others)):
            yield Perturbation.vertex_connection(u, [v for i, v in enumerate(others) if mask >> i & 1])
    for u in range(n):
        for v in range(u + 1, n):
            if not host.has_edge(u, v):
                yield Perturbation.edge_addition(u, v)
        yield Perturbation.pendant_edge(u)


def test_connectivity_rule_matches_the_final_graph(bound_corpus):
    # A_I + P is connected iff the added edges reach every component of A_I;
    # check that rule against a search of the final graph: on the criterion-1
    # corpus, and on every perturbation of every disconnected graph on at
    # most 6 vertices.
    cases = [(r["host"], r["pert"]) for r in bound_corpus["rows"]]
    for g in nx.graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 6 and not nx.is_connected(g):
            host = sb.from_edge_list(g.number_of_nodes(), [(int(a), int(b)) for a, b in g.edges()])
            cases += [(host, pert) for pert in _perturbations(host)]
    verdicts = {True: 0, False: 0}
    for host, pert in cases:
        padding = graphs.perturbed_dimension(host, pert) - host.n  # the pendant vertex
        comps = sb.connected_components(np.pad(host.adjacency(), (0, padding)))
        connected = sb.is_connected(sb.apply_perturbation(host, pert))
        assert graphs._joins_components(comps, pert, host.n) == connected, _repro(host, pert)
        verdicts[connected] += 1
    assert min(verdicts.values()) > 1000


# ---------------------------------------------------------------------------
# Criterion 3: named closed-form values
# ---------------------------------------------------------------------------

def test_criterion_3_named_values():
    failures = []
    # cone over the 4-cycle: two routes to 1 + sqrt(5)
    via_inverse = sb.h_inv(2.0, 4)
    via_join = sb.closed_form_vertex_join(4, 2, 1.0).value
    if abs(via_inverse - via_join) > 1e-12:
        failures.append(f"cone routes differ by {abs(via_inverse - via_join):.2e}")
    wheel = sb.join(sb.empty_graph(1), sb.cycle_graph(4))
    lam_wheel = float(sb.full_spectrum(wheel.adjacency())[0])
    if abs(via_inverse - lam_wheel) > 1e-9:
        failures.append(f"cone bound vs oracle: {abs(via_inverse - lam_wheel):.2e}")
    if abs(via_inverse - (1 + math.sqrt(5))) > 1e-12:
        failures.append("cone value is not 1 + sqrt(5)")

    # 3-path -> triangle via the edge-addition chain
    lam_p3 = float(sb.full_spectrum(sb.path_graph(3).adjacency())[0])
    bound_tri = sb.bound_edge_addition(lam_p3, 1, 1)
    lam_tri = float(sb.full_spectrum(sb.cycle_graph(3).adjacency())[0])
    if abs(bound_tri - 2.0) > 1e-9 or abs(bound_tri - lam_tri) > 1e-9:
        failures.append(f"triangle bound {bound_tri!r}")

    # pendant on one endpoint of an edge, via the cubic with its root floor
    lam_k2 = float(sb.full_spectrum(sb.complete_graph(2).adjacency())[0])
    bound_p3 = sb.bound_pendant_edge(lam_k2, 1)
    if abs(bound_p3 - math.sqrt(2)) > 1e-9 or abs(bound_p3 - lam_p3) > 1e-9:
        failures.append(f"pendant bound {bound_p3!r}")
    if abs(sb.l2_inv(0.0, 1) - math.sqrt(2)) > 1e-12:
        failures.append("cubic root floor sqrt(delta_u + 1) not honored")

    _verdict(3, "named closed-form values", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# Criterion 4: derivative identity along paths
# ---------------------------------------------------------------------------

def test_criterion_4_derivative_identity(path_corpus):
    random_paths, _ = path_corpus
    worst = 0.0
    for _, _, path, _ in random_paths:
        interior = [s for s in path.samples if s.derivative_lhs is not None]
        assert len(interior) == 20
        worst = max(worst, max(abs(s.derivative_lhs - s.derivative_rhs) for s in interior))
    _verdict(
        4,
        "derivative identity <Px,x> vs the secular equation's slope",
        worst <= 1e-6,
        f"150 paths x 20 interior points, max |slope - form| = {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: differential inequalities
# ---------------------------------------------------------------------------

def test_criterion_5_differential_inequalities(path_corpus):
    random_paths, equality_paths = path_corpus
    failures = []
    worst_violation = -math.inf
    for host, pert, path, is_eq in random_paths + equality_paths:
        slacks = [
            sb.inequality_rhs(path.kind, s.t, s.value, **path.params()) - s.derivative_rhs
            for s in path.samples
            if s.derivative_rhs is not None
        ]
        worst_violation = max(worst_violation, -min(slacks))
        if min(slacks) < -1e-6:
            failures.append(f"violation {-min(slacks):.3e}: {_repro(host, pert)}")
        if is_eq:
            if max(abs(s) for s in slacks) > 1e-6:
                failures.append(f"equality path not tight: {_repro(host, pert)}")
        else:
            if min(slacks) < 1e-7:
                failures.append(f"strict path with slack {min(slacks):.3e}: {_repro(host, pert)}")
    _verdict(
        5,
        "differential inequalities (tight exactly on equality cases)",
        not failures,
        f"max violation {worst_violation:.3e}" + (f"; {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 6: comparison-solution dominance
# ---------------------------------------------------------------------------

def test_criterion_6_comparison_dominance(path_corpus):
    random_paths, equality_paths = path_corpus
    failures = []
    worst = -math.inf
    for host, pert, path, is_eq in random_paths + equality_paths:
        comp = sb.check_comparison(path, tolerance=1e-9)
        worst = max(worst, comp.max_violation)
        if not comp.ok:
            failures.append(f"dominance violated by {comp.max_violation:.3e}: {_repro(host, pert)}")
        interior_margins = [m for s, m in zip(path.samples, comp.margins) if s.t > 0.0]
        if is_eq:
            if max(abs(m) for m in comp.margins) > 1e-7:
                failures.append(f"equality margins not flat: {_repro(host, pert)}")
        elif min(interior_margins) <= 1e-10:
            failures.append(
                f"strict margin {min(interior_margins):.3e} not positive: {_repro(host, pert)}"
            )
    _verdict(
        6,
        "comparison solution dominates every path",
        not failures,
        f"max lambda - u = {worst:.3e}" + (f"; {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 7: asymptotics
# ---------------------------------------------------------------------------

def test_criterion_7_asymptotics():
    failures = []
    lams = [25.0, 50.0, 100.0, 500.0, 1000.0]
    eps = 2.3e-16
    # concrete regular hosts for the two smallest levels: complete graphs
    for lam in (25, 50):
        top = float(sb.full_spectrum(sb.complete_graph(lam + 1).adjacency())[0])
        if abs(top - lam) > 1e-9:
            failures.append(f"K_{lam + 1} index {top!r}")

    def evaluate(bound_fn, gap_fn):
        ratios, noise = [], []
        for l in lams:
            gap = gap_fn(l)
            ratios.append((bound_fn(l) - l) / gap)
            # the measured gap is bound - lambda_I with bound stored to
            # eps * lambda_I absolute, so the ratio carries this uncertainty
            noise.append(eps * l / gap)
        return ratios, noise

    # monotone approach is asserted where it holds mathematically: for the
    # edge kind the error term peaks at lambda = 2(du+dv)+1, so degree sums
    # above 12 enter the grid non-monotonically and are range-checked only
    cases = []
    for g in (1, 2, 5, 10):
        cases.append(
            (
                f"vertex g={g}",
                True,
                evaluate(
                    lambda l, g=g: sb.bound_vertex_connection(l, g),
                    lambda l, g=g: sb.asymptotic_gap(PerturbationKind.VERTEX_CONNECTION, l, g=g),
                ),
            )
        )
    for du, dv in ((1, 1), (2, 3), (5, 5), (6, 6), (10, 10)):
        cases.append(
            (
                f"edge du={du} dv={dv}",
                du + dv <= 12,
                evaluate(
                    lambda l, du=du, dv=dv: sb.bound_edge_addition(l, du, dv),
                    lambda l, du=du, dv=dv: sb.asymptotic_gap(
                        PerturbationKind.EDGE_ADDITION, l, delta_u=du, delta_v=dv
                    ),
                ),
            )
        )
    for du in (1, 2, 5, 10):
        cases.append(
            (
                f"pendant du={du}",
                True,
                evaluate(
                    lambda l, du=du: sb.bound_pendant_edge(l, du),
                    lambda l, du=du: sb.asymptotic_gap(PerturbationKind.PENDANT_EDGE, l, delta_u=du),
                ),
            )
        )
    worst_ratio_err = 0.0
    for label, check_monotone, (rs, noise) in cases:
        errs = [abs(r - 1.0) for r in rs]
        worst_ratio_err = max(worst_ratio_err, errs[0])
        if not all(0.95 <= r <= 1.05 for r in rs):
            failures.append(f"{label}: ratios {rs}")
        if check_monotone:
            for k in range(len(errs) - 1):
                allowance = 8.0 * max(noise[k], noise[k + 1]) + 1e-12
                if errs[k + 1] > errs[k] + allowance:
                    failures.append(f"{label}: |ratio-1| not monotone {errs}")
                    break
    # the three gaps separate by orders of magnitude at unit parameters
    for lam in (100.0, 500.0, 1000.0):
        pend = sb.bound_pendant_edge(lam, 1) - lam
        edge = sb.bound_edge_addition(lam, 1, 1) - lam
        vert = sb.bound_vertex_connection(lam, 1) - lam
        if not pend < edge < vert:
            failures.append(f"gap ordering broken at {lam}: {pend}, {edge}, {vert}")
    _verdict(
        7,
        "first-order gap ratios in [0.95, 1.05], monotone, ordered",
        not failures,
        f"max |ratio-1| at lambda=25: {worst_ratio_err:.3f}" + (f"; {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 8: coclique iteration
# ---------------------------------------------------------------------------

def _coclique_host_instances():
    # complete core with three pairwise nonadjacent attachments
    h1 = sb.from_edge_list(
        10,
        [(i, j) for i in range(7) for j in range(i + 1, 7)]
        + [(7, 0), (7, 1), (8, 2), (8, 3), (8, 4), (9, 5)],
    )
    # denser 12-vertex variant
    h2 = sb.from_edge_list(
        12,
        [(i, j) for i in range(8) for j in range(i + 1, 8)]
        + [(8, 0), (8, 1), (8, 2), (9, 3), (9, 4), (10, 5), (10, 6), (10, 7), (11, 0)],
    )
    return [(h1, (7, 8, 9)), (h2, (8, 9, 10))]


def test_criterion_8_coclique_formula():
    failures = []
    # value agreement with the first-order formula at lambda_I = 100
    worst_rel = 0.0
    for d1 in range(1, 6):
        for d2 in range(d1, 6):
            for d3 in range(d2, 6):
                res = sb.coclique_bound(100.0, [d1, d2, d3])
                rel = abs(res.iterated - res.asymptotic) / res.asymptotic
                worst_rel = max(worst_rel, rel)
                if rel > 0.05:
                    failures.append(f"degrees {(d1, d2, d3)}: relative gap {rel:.3e}")
                if res.iterated < 100.0:
                    failures.append(f"degrees {(d1, d2, d3)}: iterated below lambda_I")
    # validity on explicit instances
    for host, coclique in _coclique_host_instances():
        assert all(not host.has_edge(u, v) for u in coclique for v in coclique if u < v)
        lam_i = sb.spectral_radius(host.adjacency())
        degrees = [host.degree(u) for u in coclique]
        res = sb.coclique_bound(lam_i, degrees)
        edges = set(host.edges)
        for a in range(3):
            for b in range(a + 1, 3):
                edges.add(tuple(sorted((coclique[a], coclique[b]))))
        final = sb.Graph(host.n, frozenset(edges))
        lam_f = float(sb.full_spectrum(final.adjacency())[0])
        if lam_f > res.iterated + 1e-9:
            failures.append(f"coclique bound violated: {lam_f} > {res.iterated}")
    _verdict(
        8,
        "coclique iteration tracks the first-order formula and stays valid",
        not failures,
        f"max relative value gap {worst_rel:.2e}" + (f"; {failures[0]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 9: solver cross-check
# ---------------------------------------------------------------------------

def _random_nonneg_connected_matrix(rng: SplitMix64, dim: int, density: float) -> np.ndarray:
    a = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.uniform() < density:
                a[i, j] = a[j, i] = rng.uniform()
    if rng.uniform() < 0.25:  # sometimes a nonnegative diagonal
        for i in range(dim):
            a[i, i] = rng.uniform()
    order = list(range(dim))
    for i in range(dim - 1, 0, -1):  # Fisher-Yates
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    for u, v in zip(order, order[1:]):  # overlay a spanning path: connected
        if a[u, v] == 0.0:
            a[u, v] = a[v, u] = 0.5 + 0.5 * rng.uniform()
    return a


def test_criterion_9_solver_cross_check():
    worst = 0.0
    for i in range(1000):
        rng = SplitMix64.spawn(SEED * 9 + 1, i)
        dim = rng.randint(2, 30)
        a = _random_nonneg_connected_matrix(rng, dim, P_CYCLE[i % 3] - 0.1)
        power = power_perron(a, tol=1e-11).value
        jacobi = float(jacobi_spectrum(a)[0])
        lapack = (sb.perron(a, tol=1e-11).value, float(sb.full_spectrum(a)[0]))
        worst = max(worst, abs(power - jacobi), *(abs(x - jacobi) for x in lapack))
    _verdict(
        9,
        "power iteration vs Jacobi vs LAPACK on 1000 random matrices (dim <= 30)",
        worst <= 1e-9,
        f"max |difference| = {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: integrated majorizing ODE vs first-integral roots
# ---------------------------------------------------------------------------

def test_criterion_10_pendant_ode_consistency():
    # name kept from when only the pendant curve was integrated; every kind
    # is checked now, against a Runge-Kutta oracle sharing no library code
    degree_params = {
        PerturbationKind.VERTEX_CONNECTION: lambda d: {"g": d},
        PerturbationKind.EDGE_ADDITION: lambda d: {"delta_u": d // 2, "delta_v": d - d // 2},
        PerturbationKind.PENDANT_EDGE: lambda d: {"delta_u": d},
    }
    worst = 0.0
    for kind in KINDS:
        f = MAJORANTS[kind.value]
        for lam in (1.0, 2.0, 5.0, 10.0):
            for d in (1, 2, 5):
                params = degree_params[kind](d)
                y, t_prev = lam, 0.0
                for t in (0.25, 0.5, 1.0):
                    y = rk4(lambda s, v: f(s, v, d), y, t_prev, t, round(10_000 * (t - t_prev)))
                    t_prev = t
                    worst = max(worst, abs(y - sb.comparison_solution(kind, lam, t, **params)))
    _verdict(
        10,
        "integrated majorizing ODE matches the first-integral roots",
        worst <= 1e-9,
        f"max |rk4 - root| = {worst:.3e} over 3 kinds x 12 parameter pairs x 3 times",
    )
