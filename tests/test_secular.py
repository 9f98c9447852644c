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
from specbound.verify import EQUALITY_GAP_TOL

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
    original = spectral._grid_points

    def capture(*args):  # ..., ts, tol
        roots, *rest = original(*args)
        seen.append((args[-2], roots))
        return (roots, *rest)

    spectral._grid_points = capture
    try:
        inst = graphs._instances([(host, pert)], TOL, steps)[0]
    finally:
        spectral._grid_points = original
    ((ts, roots),) = seen
    return inst, ts, roots[0]


def assert_path_solved(host, pert, steps=8):
    # Each root within 8 eps ||A(t)||_1 of LAPACK's top eigenvalue, each
    # grid pair certified at the solve tolerance, and each interior slope
    # within reach of <P x, x> of the public certified solve.  A unit vector
    # with residual r lies within 2 r / (gap - r) of the eigenvector
    # (Davis-Kahan), and <P x, x> moves by at most 2 ||P|| per unit of that
    # distance: the slope is <P x, x> of the vector of its own root.
    inst, ts, roots = solved_points(host, pert, steps)
    a_initial, p_mat = path_matrices(host, pert)
    assert len(ts) == steps  # one root per grid point, none off the grid
    for t, root in zip(ts, roots, strict=True):
        a = a_initial + t * p_mat
        assert abs(root - np.linalg.eigvalsh(a)[-1]) <= 8 * EPS * np.abs(a).sum(axis=0).max()
    assert_grid_certified(inst, host, pert)
    for t, value, x, slope in zip(inst.grid, inst.values, inst.vectors, inst.lhs):  # the interior grid
        a = a_initial + t * p_mat
        pair, top = sb.perron(a), np.linalg.eigvalsh(a)
        both = residual(a, value, x) + pair.residual + 4 * EPS * np.abs(a).sum(axis=0).max()
        distance = 2.0 * both / (top[-1] - top[-2] - both)
        form = pair.vector @ p_mat @ pair.vector
        assert abs(slope - form) <= 2.0 * np.linalg.norm(p_mat, 2) * distance + 4 * EPS


def residual(a, value, x) -> float:
    return float(np.linalg.norm(a @ x - value * x))


def assert_grid_certified(inst, host, pert):
    # Each grid pair within the solve tolerance of A(t), all entries positive.
    a_initial, p_mat = path_matrices(host, pert)
    for t, value, x in zip(inst.grid, inst.values, inst.vectors, strict=True):
        assert residual(a_initial + t * p_mat, value, x) <= TOL
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


@PROPERTY
@given(path_instances())
def test_bound_report_holds_on_drawn_paths(instance):
    # The bound is never below lambda_F, and meets it in the equality cases.
    rep = sb.bound_report(*instance)
    assert rep.slack >= -1e-9
    if rep.equality_case:
        assert abs(rep.slack) <= EQUALITY_GAP_TOL


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


def test_a_root_at_mu_top_takes_the_zero_slope():
    # On the lollipop's tail pendant every root lies within 2 ulps of mu_top,
    # where <P x, x> is near 1e-53: the slope takes the limit delta -> 0, 0,
    # where 1 / (t^2 (-theta')) read 151.6.
    inst, ts, _ = solved_points(lollipop_graph(20, 20), Perturbation.pendant_edge(39), 16)
    assert len(ts) == 16
    assert inst.lhs.tolist() == [0.0] * 15
    assert np.abs(inst.forms).max() < 1e-50


def test_secular_bits_do_not_depend_on_the_other_paths():
    # Solved alone or among other paths, a path's roots and vectors keep
    # every bit: each point sums over its own terms only.  The three paths
    # of final size 8, a vertex kind with its isolated anchor and two
    # pendants with their padded rows, share one set-up stack.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (tied_components(), Perturbation.edge_addition(1, 6)),
        (sb.cycle_graph(7), Perturbation.pendant_edge(3)),
        (sb.disjoint_union(sb.path_graph(7), sb.empty_graph(1)), Perturbation.vertex_connection(7, [0, 3, 6])),
        (lollipop_graph(6, 9), Perturbation.pendant_edge(14)),
        (sb.star_graph(6), Perturbation.pendant_edge(2)),
    ]
    together = graphs._instances(instances, TOL, 8)
    for pair, inst in zip(instances, together, strict=True):
        (alone,) = graphs._instances([pair], TOL, 8)
        assert alone.values.tobytes() == inst.values.tobytes()
        assert alone.vectors.tobytes() == inst.vectors.tobytes()
        assert alone.forms.tobytes() == inst.forms.tobytes()
        assert alone.lhs.tobytes() == inst.lhs.tobytes()
        assert alone.lambda_f == inst.lambda_f


def test_the_eigensolve_lays_out_the_terms_the_secular_solve_reads(monkeypatch):
    # One layout, one row per vertex in path order, then component order:
    # the eigenvalues mu of A_I, b = Q^T W and W's own rows.  The vertex
    # paths split into components of several sizes, the pendant paths hold
    # their new vertex alone, and every size's Q^T W is one product, so it
    # holds the bits of that product taken from the W rows as laid out.
    instances = [
        (sb.disjoint_union(sb.disjoint_union(sb.path_graph(3), sb.cycle_graph(4)), sb.empty_graph(1)),
         Perturbation.vertex_connection(7, [1, 5])),
        (sb.path_graph(7), Perturbation.edge_addition(0, 6)),
        (sb.cycle_graph(5), Perturbation.pendant_edge(2)),
        (sb.disjoint_union(sb.star_graph(3), sb.empty_graph(1)), Perturbation.vertex_connection(4, [0, 2])),
        (sb.path_graph(3), Perturbation.pendant_edge(0)),
        # components {0, 2, 4} and {1, 3} interleave, so component order is not vertex order
        (sb.Graph(6, frozenset({(0, 2), (2, 4), (1, 3)})), Perturbation.vertex_connection(5, [0, 1])),
    ]
    seen = []
    grid_points = spectral._grid_points

    def recorded(paths, mu, b, w, bases, ts, tol):
        seen.append((paths, mu, b, w, bases))
        return grid_points(paths, mu, b, w, bases, ts, tol)

    monkeypatch.setattr(spectral, "_grid_points", recorded)
    graphs._instances(instances, TOL, 8)
    ((paths, mu, b, w, bases),) = seen
    terms = sum(len(a) for a, _, _ in paths)
    assert len(mu) == len(b) == len(w) == terms
    assert len({len(comp) for _, _, comps in paths for comp in comps}) >= 4
    at = 0
    for a, path_w, comps in paths:
        assert w[at : at + len(a)].tobytes() == path_w[np.concatenate(comps)].tobytes()
        at += len(a)
    assert np.sort(np.concatenate([rows for rows, _, _ in bases])).tolist() == list(range(terms))
    for rows, q, stack in bases:
        k, n = q.shape[:2]
        product = q.transpose(0, 2, 1) @ w[rows].reshape(k, n, 2)
        assert b[rows].tobytes() == product.reshape(-1, 2).tobytes()
        np.testing.assert_allclose(stack @ q, q * mu[rows].reshape(k, 1, n), rtol=0, atol=1e-12)


def test_shifted_solve_takes_exactly_the_points_the_eigenbasis_fails(monkeypatch):
    # On the lollipop's tail pendant the root lies at mu_top to rounding, so
    # lambda - mu is 0 and the eigenbasis vectors fail their certificate:
    # those points, and only those, go to the shifted solve, each as the
    # matrix A(t) with its root, and every pair that comes back is certified.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (lollipop_graph(20, 20), Perturbation.pendant_edge(39)),
        (lollipop_graph(20, 20), Perturbation.edge_addition(0, 39)),
    ]
    passed, retried = [], []
    grid_points, shifted = spectral._grid_points, spectral._shifted_pairs

    def record_grid_points(*args):
        roots, slopes, pairs, ok = grid_points(*args)
        passed.append(ok.copy())
        return roots, slopes, pairs, ok

    def record_shifted(points, tol):
        points = list(points)
        retried.append([(a.copy(), value) for a, value in points])
        return shifted(iter(points), tol)

    monkeypatch.setattr(spectral, "_grid_points", record_grid_points)
    monkeypatch.setattr(spectral, "_shifted_pairs", record_shifted)
    insts = graphs._instances(instances, TOL, 16)
    (ok,), (retry,) = passed, retried
    assert not ok[1].any() and ok[0].all()
    failing = []
    for (host, pert), inst, row in zip(instances, insts, ok, strict=True):
        a_initial, p_mat = path_matrices(host, pert)
        failing += [(a_initial + t * p_mat, value) for t, value in zip(inst.grid[~row], inst.values[~row])]
    assert len(retry) == len(failing) > 0
    for (a, value), (expected, root) in zip(retry, failing):
        assert a.tobytes() == expected.tobytes() and value == root
    for (host, pert), inst in zip(instances, insts, strict=True):
        assert_grid_certified(inst, host, pert)


def test_a_point_failing_both_routes_raises_in_caller_order(monkeypatch):
    # Points 1 and 2 of the second and third paths fail both certificates.
    # The second path's components are solved after the third's (size 5
    # comes after size 12), but its failure is the one named.
    instances = [
        (sb.path_graph(12), Perturbation.edge_addition(0, 11)),
        (sb.cycle_graph(5), Perturbation.edge_addition(0, 2)),
        (sb.path_graph(12), Perturbation.edge_addition(0, 6)),
    ]
    grid_points, shifted = spectral._grid_points, spectral._shifted_pairs

    def failing_grid_points(*args):
        roots, slopes, pairs, ok = grid_points(*args)
        ok[1, 1] = ok[2, 2] = False
        return roots, slopes, pairs, ok

    def failing_shifted(points, tol):
        pairs, _ = shifted(points, tol)  # the retried points, in caller order
        return [(x, res + (k + 1) * 1e-3) for k, (x, res) in enumerate(pairs)], False

    monkeypatch.setattr(spectral, "_grid_points", failing_grid_points)
    monkeypatch.setattr(spectral, "_shifted_pairs", failing_shifted)
    with pytest.raises(RuntimeError, match=r"residual 1\.000e-03"):
        graphs._instances(instances, TOL, 8)
