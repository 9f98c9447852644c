"""The secular solve of a perturbation path ``A(t) = A_I + t P``.

Every point of a path is the root above ``lambda_max(A_I)`` of the rank-2
secular equation in the eigendecomposition of ``A_I``, and every grid point
gets its vector from the same eigendecomposition, or from a shifted solve
where that vector fails its certificate.  The roots are checked here
against ``numpy.linalg.eigvalsh`` of each matrix, and the grid pairs against
their residual and positivity certificate, recomputed from the matrices.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specbound as sb
from oracles import lollipop_graph
from specbound import Perturbation, PerturbationKind, graphs, spectral

EPS = np.finfo(float).eps
TOL = 1e-11
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def path_matrices(host, pert):
    p_mat = sb.perturbation_matrix(host, pert)
    a_initial = np.zeros_like(p_mat)
    a_initial[: host.n, : host.n] = host.adjacency()
    return a_initial, p_mat


def solved_points(host, pert, steps):
    """The instance of one path and every point its secular solve took, with the roots."""
    seen = []
    original = spectral._secular_roots

    def capture(systems, ts):
        roots = original(systems, ts)
        seen.append((ts, roots))
        return roots

    spectral._secular_roots = capture
    try:
        inst = graphs._instances([(host, pert)], TOL, steps, final=False)[0]
    finally:
        spectral._secular_roots = original
    ((ts, roots),) = seen
    return inst, ts, roots[0]


def assert_path_solved(host, pert, steps=8):
    # Each root within 8 eps ||A(t)||_1 of LAPACK's top eigenvalue, and each
    # grid pair certified at the solve tolerance.
    inst, ts, roots = solved_points(host, pert, steps)
    a_initial, p_mat = path_matrices(host, pert)
    assert len(ts) == 3 * steps - 2  # the grid, then both sides of each interior point
    for t, root in zip(ts, roots, strict=True):
        a = a_initial + t * p_mat
        assert abs(root - np.linalg.eigvalsh(a)[-1]) <= 8 * EPS * np.abs(a).sum(axis=0).max()
    assert_grid_certified(inst, host, pert)


def assert_grid_certified(inst, host, pert):
    # Each grid pair within the solve tolerance of A(t), all entries positive.
    a_initial, p_mat = path_matrices(host, pert)
    for t, value, x in zip(inst.grid, inst.values, inst.vectors, strict=True):
        a = a_initial + t * p_mat
        assert np.linalg.norm(a @ x - value * x) <= TOL
        assert x.min() > 0.0


@st.composite
def connected_graphs(draw, max_n=10):
    """A random spanning tree on 1..max_n vertices, plus random chords."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    chords = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(i, j), max(i, j)) for i, j in chords if i != j}
    return sb.from_edge_list(n, edges)


@st.composite
def path_instances(draw):
    """A perturbation of each kind whose final graph is connected."""
    host = draw(connected_graphs())
    kind = draw(st.sampled_from(list(PerturbationKind)))
    n = host.n
    if kind is PerturbationKind.VERTEX_CONNECTION:
        targets = draw(st.sets(st.integers(0, n - 1), min_size=1))
        return sb.Graph(n + 1, host.edges), Perturbation.vertex_connection(n, sorted(targets))
    if kind is PerturbationKind.EDGE_ADDITION:
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if not host.has_edge(i, j)]
        assume(missing)
        return host, Perturbation.edge_addition(*draw(st.sampled_from(missing)))
    return host, Perturbation.pendant_edge(draw(st.integers(0, n - 1)))


@PROPERTY
@given(path_instances())
def test_secular_roots_match_lapack_on_drawn_paths(instance):
    assert_path_solved(*instance)


def tied_components():
    # K_{1,4} and C4 both have index 2, so A_I has a double top eigenvalue.
    return sb.disjoint_union(sb.star_graph(4), sb.cycle_graph(4))


@pytest.mark.parametrize(
    "host, pert",
    [
        (tied_components(), Perturbation.edge_addition(1, 6)),
        (sb.disjoint_union(tied_components(), sb.empty_graph(1)), Perturbation.vertex_connection(9, [1, 6])),
        (sb.cycle_graph(4), Perturbation.pendant_edge(0)),
        # The Perron entry at the tail's end is 6e-21, so lambda(t) - lambda_I
        # is near 1e-42 for the pendant: its root sits at mu_top to rounding.
        (lollipop_graph(20, 20), Perturbation.pendant_edge(39)),
        (lollipop_graph(20, 20), Perturbation.edge_addition(0, 39)),
        (sb.empty_graph(1), Perturbation.pendant_edge(0)),
        (sb.empty_graph(2), Perturbation.edge_addition(0, 1)),
        (sb.empty_graph(5), Perturbation.vertex_connection(0, [1, 2, 3, 4])),
    ],
    ids=["ties-edge", "ties-vertex", "C4-pendant", "lollipop-pendant", "lollipop-edge", "K1-pendant",
         "2K1-edge", "5K1-star"],
)
def test_secular_roots_match_lapack_on_hard_paths(host, pert):
    assert_path_solved(host, pert, steps=16)


@pytest.mark.parametrize(
    "host, pert",
    [
        (sb.empty_graph(1), Perturbation.pendant_edge(0)),
        (sb.empty_graph(2), Perturbation.edge_addition(0, 1)),
        (sb.empty_graph(4), Perturbation.vertex_connection(0, [1, 2, 3])),
        (sb.path_graph(4), Perturbation.pendant_edge(1)),
        (sb.cycle_graph(60), Perturbation.pendant_edge(0)),
        (tied_components(), Perturbation.edge_addition(1, 6)),
    ],
    ids=["K1-pendant", "2K1-edge", "4K1-star", "P4-pendant", "C60-pendant", "ties-edge"],
)
def test_paths_solve_without_floating_point_exceptions(host, pert):
    # The root search never divides at a pole: with every floating-point
    # exception raised, pendant paths (whose start vector is zero on the new
    # vertex) and edgeless hosts (A_I = 0, where lambda(t) = t |s|) still solve.
    with np.errstate(all="raise"):
        path = sb.sample_path(host, pert, steps=8)
        rep = sb.bound_report(host, pert)
    assert path.lambda_f == pytest.approx(rep.lambda_f_exact, abs=1e-12)


def test_edgeless_host_path_is_exactly_linear():
    # A_I = 0: the secular equation is linear in lambda, lambda(t) = t sqrt(g).
    path = sb.sample_path(sb.empty_graph(5), Perturbation.vertex_connection(0, [1, 2, 3, 4]), steps=4)
    assert [s.value for s in path.samples] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_secular_bits_do_not_depend_on_the_other_paths():
    # Solved alone or among other paths of other sizes, a path's roots and
    # vectors keep every bit: each point sums over its own terms only.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (tied_components(), Perturbation.edge_addition(1, 6)),
        (sb.cycle_graph(7), Perturbation.pendant_edge(3)),
        (lollipop_graph(6, 9), Perturbation.pendant_edge(14)),
    ]
    together = graphs._instances(instances, TOL, 8)
    for pair, inst in zip(instances, together, strict=True):
        (alone,) = graphs._instances([pair], TOL, 8)
        assert alone.values.tobytes() == inst.values.tobytes()
        assert alone.vectors.tobytes() == inst.vectors.tobytes()
        assert alone.forms.tobytes() == inst.forms.tobytes()
        assert alone.lhs.tobytes() == inst.lhs.tobytes()
        assert alone.lambda_f == inst.lambda_f


def test_shifted_solve_takes_exactly_the_points_the_eigenbasis_fails(monkeypatch):
    # On the lollipop's tail pendant the root lies at mu_top to rounding, so
    # lambda - mu is 0 and the eigenbasis vectors fail their certificate:
    # those points, and only those, go to the shifted solve, and every pair
    # that comes back is certified.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (lollipop_graph(20, 20), Perturbation.pendant_edge(39)),
        (lollipop_graph(20, 20), Perturbation.edge_addition(0, 39)),
    ]
    passed, retried = [], []
    eigenbasis, shifted = spectral._eigenbasis_pairs, spectral._shifted_pairs

    def record_eigenbasis(*args):
        pairs, ok = eigenbasis(*args)
        passed.append(ok.copy())
        return pairs, ok

    def record_shifted(pencils, *args):
        retried.append([(len(a), ts.tolist()) for a, _, ts in pencils])
        return shifted(pencils, *args)

    monkeypatch.setattr(spectral, "_eigenbasis_pairs", record_eigenbasis)
    monkeypatch.setattr(spectral, "_shifted_pairs", record_shifted)
    insts = graphs._instances(instances, TOL, 16, final=False)
    (ok,), (retry,) = passed, retried
    assert not ok[1].any() and ok[0].all()
    failing = [(len(inst.vector), inst.grid[~row].tolist()) for inst, row in zip(insts, ok) if not row.all()]
    assert retry == failing
    for (host, pert), inst in zip(instances, insts, strict=True):
        assert_grid_certified(inst, host, pert)


def test_a_point_failing_both_routes_raises_in_caller_order(monkeypatch):
    # Points 1 and 2 of the second and third paths fail both certificates.
    # The second path is solved after the third (size 5 comes after size 12
    # in the stacks), but its failure is the one named.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (sb.cycle_graph(5), Perturbation.edge_addition(0, 2)),
        (sb.path_graph(12), Perturbation.edge_addition(0, 6)),
    ]
    eigenbasis, shifted = spectral._eigenbasis_pairs, spectral._shifted_pairs

    def failing_eigenbasis(*args):
        pairs, ok = eigenbasis(*args)
        ok[1, 1] = ok[2, 2] = False
        return pairs, ok

    def failing_shifted(pencils, values, fixes, tol):
        shifted(pencils, values, fixes, tol)
        for k, (x, res) in enumerate(fixes):  # the retried paths, in caller order
            fixes[k] = x, res + (k + 1) * 1e-3
        return False

    monkeypatch.setattr(spectral, "_eigenbasis_pairs", failing_eigenbasis)
    monkeypatch.setattr(spectral, "_shifted_pairs", failing_shifted)
    with pytest.raises(RuntimeError, match=r"residual 1\.000e-03"):
        graphs._instances(instances, TOL, 8, final=False)
