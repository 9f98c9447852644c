"""Eigensolvers: the LAPACK-backed library solver, the pure-Python oracles,
and the graph search behind every connectivity check."""

import math

import networkx as nx
import numpy as np
import pytest

import specbound as sb
from oracles import jacobi_spectrum, lollipop_graph, power_perron
from specbound import spectral
from specbound.rng import SplitMix64, random_connected_graph
from specbound.spectral import perron_components

SQRT2 = math.sqrt(2.0)


def test_perron_k2():
    pair = sb.perron(sb.complete_graph(2).adjacency())
    assert pair.value == pytest.approx(1.0, abs=1e-11)
    assert np.allclose(pair.vector, [1 / SQRT2, 1 / SQRT2], atol=1e-9)


def test_perron_c4_regular():
    pair = sb.perron(sb.cycle_graph(4).adjacency())
    assert pair.value == pytest.approx(2.0, abs=1e-11)
    assert np.allclose(pair.vector, [0.5] * 4, atol=1e-9)


def test_perron_p3():
    # characteristic polynomial x (x^2 - 2): top root sqrt(2)
    pair = sb.perron(sb.path_graph(3).adjacency())
    assert pair.value == pytest.approx(SQRT2, abs=1e-10)


def test_perron_single_vertex():
    pair = sb.perron(np.array([[0.0]]))
    assert pair.value == 0.0 and pair.vector.tolist() == [1.0]


def test_perron_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sb.perron(np.zeros((2, 2)))  # disconnected
    for solve in (sb.perron, sb.spectral_radius, perron_components):
        with pytest.raises(ValueError):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
        with pytest.raises(ValueError):
            solve(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative entries
        with pytest.raises(ValueError):
            solve(sb.complete_graph(2).adjacency(), tol=0.0)


_P4_EDGE = (sb.path_graph(4), sb.Perturbation.edge_addition(0, 2))
_TOL_SOLVES = {
    "bound_report": lambda tol: sb.bound_report(*_P4_EDGE, tol=tol),
    "sample_path": lambda tol: sb.sample_path(*_P4_EDGE, tol=tol),
    "perron": lambda tol: sb.perron(sb.complete_graph(3).adjacency(), tol=tol),
    "perron_components": lambda tol: perron_components(np.zeros((2, 2)), tol=tol),
    "spectral_radius": lambda tol: sb.spectral_radius(sb.path_graph(3).adjacency(), tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, "1", pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("name", sorted(_TOL_SOLVES))
def test_solves_refuse_a_meaningless_tolerance(name, tol):
    # No certificate passes at tol <= 0 or nan, and every one passes at inf:
    # refused up front, not by a RuntimeError from the first certificate, a
    # TypeError from comparing a string or an OverflowError from an integer
    # beyond the float range.
    with pytest.raises(ValueError) as excinfo:
        _TOL_SOLVES[name](tol)
    assert str(excinfo.value) == f"tolerance must be a finite positive number, got {tol!r}"


def test_component_solves_are_certified():
    # A residual above tol fails every component solve, as it fails perron.
    block = np.zeros((6, 6))
    block[:4, :4] = sb.path_graph(4).adjacency()
    block[4:, 4:] = sb.path_graph(2).adjacency()
    for solve in (sb.spectral_radius, perron_components):
        with pytest.raises(RuntimeError, match="not certified"):
            solve(block, tol=1e-300)


def test_spectral_radius_is_the_largest_component_value():
    # C4 and the star K_{1,4} both have index 2; LAPACK's two values can
    # differ in the last bits, and spectral_radius returns the larger one exactly.
    c4, star = sb.cycle_graph(4), sb.star_graph(4)
    for first, second in ((c4, star), (star, c4)):
        block = sb.disjoint_union(first, second).adjacency()
        expected = max(sb.perron(c4.adjacency()).value, sb.perron(star.adjacency()).value)
        assert sb.spectral_radius(block) == expected


def test_perron_residual_contract():
    rng = SplitMix64(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10), 0.5)
        a = g.adjacency()
        pair = sb.perron(a, tol=1e-11)
        assert np.linalg.norm(a @ pair.vector - pair.value * pair.vector) <= 1e-11
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        assert pair.vector.min() > 0.0


def test_full_spectrum_examples():
    assert np.allclose(sb.full_spectrum(sb.complete_graph(2).adjacency()), [1, -1], atol=1e-12)
    # 4-cycle: characteristic polynomial roots 2, 0, 0, -2
    assert np.allclose(sb.full_spectrum(sb.cycle_graph(4).adjacency()), [2, 0, 0, -2], atol=1e-10)
    assert np.allclose(sb.full_spectrum(np.zeros((3, 3))), [0, 0, 0], atol=0)


_ENTRY_POINTS = {
    "perron": sb.perron,
    "perron_components": perron_components,
    "spectral_radius": sb.spectral_radius,
    "full_spectrum": sb.full_spectrum,
    "connected_components": sb.connected_components,
}


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_non_finite_entries(name, entry):
    # Symmetric in its bits, so only the entry itself can refuse it; inf
    # used to reach numpy's inf - inf, and nan to count as an edge.
    m = sb.path_graph(3).adjacency()
    m[0, 2] = m[2, 0] = entry
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        _ENTRY_POINTS[name](m)


def test_full_spectrum_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        sb.full_spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_full_spectrum_matches_numpy_on_random_symmetric():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 9, 14, 20):
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2  # signed entries: the oracle works on any symmetric matrix
        ours = jacobi_spectrum(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(ours - ref)) <= 1e-10


def test_perron_agrees_with_jacobi_on_random_graphs():
    rng = SplitMix64(23)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 12), 0.5)
        a = g.adjacency()
        jacobi = float(jacobi_spectrum(a)[0])
        assert power_perron(a).value == pytest.approx(jacobi, abs=1e-9)
        assert sb.perron(a).value == pytest.approx(jacobi, abs=1e-9)


def test_adjacency_spectrum_is_traceless():
    rng = SplitMix64(31)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10), 0.5)
        assert abs(sb.full_spectrum(g.adjacency()).sum()) <= 1e-9


def test_one_search_splits_matrices_and_edge_lists_like_networkx():
    # Orders cross the byte and 64-bit word edges of the packed rows;
    # diagonal entries and non-unit weights do not change the pattern.
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 130):
        for density in (0.0, 1.5 / n, 4.0 / n, 0.5):
            upper = np.triu(rng.random((n, n)) < density, 1)
            a = (upper | upper.T) * rng.choice([1.0, 0.5, 3.0], size=(n, n))
            a = np.maximum(a, a.T) + np.diag(rng.random(n) < 0.3)
            host = nx.Graph(list(zip(*np.nonzero(upper))))
            host.add_nodes_from(range(n))
            expected = sorted(sorted(c) for c in nx.connected_components(host))
            assert sb.connected_components(a) == expected
            graph = sb.from_edge_list(n, [(int(i), int(j)) for i, j in host.edges])
            assert sb.is_connected(graph) == (len(expected) == 1)


def test_spectral_radius_handles_components():
    block = np.zeros((6, 6))
    block[:4, :4] = sb.cycle_graph(4).adjacency()
    block[4:, 4:] = sb.complete_graph(2).adjacency()
    assert sb.spectral_radius(block) == pytest.approx(2.0, abs=1e-10)
    assert sb.spectral_radius(np.zeros((3, 3))) == 0.0


def test_strict_growth_under_perturbation():
    rng = SplitMix64(47)
    for kind in sb.PerturbationKind:
        for _ in range(5):
            host, pert = sb.random_instance(rng, kind, 8, 0.5)
            lam_0 = sb.spectral_radius(host.adjacency()) if host.m else 0.0
            lam_1 = sb.perron(sb.apply_perturbation(host, pert).adjacency()).value
            assert lam_1 > lam_0


def test_warm_start_accepts_seed_vector():
    a = sb.cycle_graph(5).adjacency()
    cold = power_perron(a)
    warm = power_perron(a, x0=cold.vector)
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert warm.iterations <= cold.iterations


def test_perron_components_ties_pick_first_component():
    rng = SplitMix64(61)
    np_rng = np.random.default_rng(61)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 25), 0.5)
        a = g.adjacency()
        n = g.n
        perm = np_rng.permutation(n)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = a
        block[n:, n:] = a[np.ix_(perm, perm)]  # isomorphic, relabelled
        value, vector = perron_components(block)
        assert value == pytest.approx(float(sb.full_spectrum(a)[0]), abs=1e-9)
        assert np.all(vector[n:] == 0.0)
        assert vector[:n].min() > 0.0


def whole(m: np.ndarray) -> tuple:
    """A path of ``spectral._solve_paths`` without points: ``m`` taken as
    one component, connected or not."""
    return m, None, [list(range(len(m)))]


def test_stacked_perron_solves_each_matrix_as_alone():
    # Only the lollipop in the middle needs the positivity fix-up.
    mats = [g.adjacency() for g in (sb.path_graph(40), lollipop_graph(20, 20), sb.complete_graph(40))]
    solved = spectral._solve_paths([whole(m) for m in mats], (), 1e-11)
    assert len(solved.lambda_i) == len(solved.residuals) == len(mats)
    for k, m in enumerate(mats):
        pair = sb.perron(m)
        assert (solved.lambda_i[k], solved.residuals[k]) == (pair.value, pair.residual)
        assert np.array_equal(solved.start(k), pair.vector)


def test_stacked_perron_reports_the_first_uncertified_matrix():
    # Both residuals are near 1e-15, so a tolerance of 1e-300 refuses both.
    c5, p5 = sb.cycle_graph(5).adjacency(), sb.path_graph(5).adjacency()
    messages = []
    for first, second in ((c5, p5), (p5, c5)):
        with pytest.raises(RuntimeError) as alone:
            sb.perron(first, tol=1e-300)
        with pytest.raises(RuntimeError) as stacked:
            spectral._solve_paths([whole(first), whole(second)], (), 1e-300)
        assert str(stacked.value) == str(alone.value)
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    # K3 + K2: the top vector is zero on K2, which no fix-up step can change.
    split = sb.disjoint_union(sb.complete_graph(3), sb.complete_graph(2)).adjacency()
    with pytest.raises(RuntimeError, match=r"min entry 0\.000e\+00"):
        spectral._solve_paths([whole(c5), whole(split), whole(p5)], (), 1e-11)


def test_solves_by_size_report_the_first_uncertified_matrix_in_order():
    # Grouped by size, the 4-vertex matrices are solved first, but the error
    # names the 5-vertex matrix that comes first in order, as lone solves do.
    # Each failing matrix has a top vector that is zero on its isolated vertex.
    good4 = sb.path_graph(4).adjacency()
    bad5 = sb.disjoint_union(sb.complete_graph(4), sb.empty_graph(1)).adjacency()
    bad4 = sb.disjoint_union(sb.complete_graph(3), sb.empty_graph(1)).adjacency()
    alone = []
    for m in (bad5, bad4):
        with pytest.raises(RuntimeError) as excinfo:
            spectral._solve_paths([whole(m)], (), 1e-11)
        alone.append(str(excinfo.value))
    assert alone[0] != alone[1]
    with pytest.raises(RuntimeError) as excinfo:
        spectral._solve_paths([whole(m) for m in (good4, bad5, bad4)], (), 1e-11)
    assert str(excinfo.value) == alone[0]


@pytest.mark.parametrize("k, tail", [(20, 20), (20, 40), (30, 100)])
def test_perron_certifies_lollipops_with_tiny_entries(k, tail):
    # The true Perron entries at the tail end reach 1e-144, far below roundoff.
    lollipop = lollipop_graph(k, tail)
    n = lollipop.n
    pair = sb.perron(lollipop.adjacency())
    assert pair.vector.min() > 0.0
    assert pair.residual <= 1e-11
    assert pair.value == pytest.approx(float(jacobi_spectrum(lollipop.adjacency())[0]), abs=1e-9)

    with_isolated = sb.from_edge_list(n + 1, sorted(lollipop.edges))
    instances = [
        (with_isolated, sb.Perturbation.vertex_connection(n, [n - 1])),
        (lollipop, sb.Perturbation.edge_addition(0, n - 1)),
        (lollipop, sb.Perturbation.pendant_edge(n - 1)),
    ]
    for host, pert in instances:
        final = sb.perron(sb.apply_perturbation(host, pert).adjacency())
        assert final.vector.min() > 0.0 and final.residual <= 1e-11
        rep = sb.bound_report(host, pert)
        assert rep.slack >= 0.0
        path = sb.sample_path(host, pert, steps=8)
        assert all(s.vector.min() >= 0.0 for s in path.samples)
        assert sb.check_comparison(path).ok
