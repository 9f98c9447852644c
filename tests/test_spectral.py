"""Eigensolvers: the LAPACK-backed library solver, the pure-Python oracles,
the derivative identity."""

import math

import numpy as np
import pytest

import specbound as sb
from oracles import jacobi_spectrum, power_perron
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


def test_spectral_radius_handles_components():
    block = np.zeros((6, 6))
    block[:4, :4] = sb.cycle_graph(4).adjacency()
    block[4:, 4:] = sb.complete_graph(2).adjacency()
    assert sb.spectral_radius(block) == pytest.approx(2.0, abs=1e-10)
    assert sb.spectral_radius(np.zeros((3, 3))) == 0.0


def test_rayleigh_quotient():
    c4 = sb.cycle_graph(4).adjacency()
    assert sb.rayleigh_quotient(c4, np.ones(4)) == pytest.approx(2.0)
    pair = sb.perron(sb.path_graph(3).adjacency())
    assert sb.rayleigh_quotient(sb.path_graph(3).adjacency(), pair.vector) == pytest.approx(
        pair.value, abs=1e-12
    )
    assert sb.rayleigh_quotient(np.zeros((2, 2)), np.ones(2)) == 0.0
    with pytest.raises(ValueError):
        sb.rayleigh_quotient(c4, np.zeros(4))


def test_lambda_derivative_basics():
    assert sb.lambda_derivative(np.zeros((2, 2)), np.array([1 / SQRT2, 1 / SQRT2])) == 0.0
    p = np.zeros((2, 2))
    p[0, 1] = p[1, 0] = 1.0
    assert sb.lambda_derivative(p, np.array([1 / SQRT2, 1 / SQRT2])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sb.lambda_derivative(p, np.array([1.0, 1.0]))  # not unit norm


def test_lambda_derivative_matches_finite_difference():
    # chord addition on the 4-cycle, evaluated mid-path
    a0 = sb.cycle_graph(4).adjacency()
    p = np.zeros((4, 4))
    p[0, 2] = p[2, 0] = 1.0
    t, h = 0.5, 1e-5
    x = sb.perron(a0 + t * p, tol=1e-12).vector
    identity = sb.lambda_derivative(p, x)
    fd = (sb.perron(a0 + (t + h) * p).value - sb.perron(a0 + (t - h) * p).value) / (2 * h)
    assert identity == pytest.approx(fd, abs=1e-6)


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


def _lollipop(k: int, tail: int) -> sb.Graph:
    """K_k with a path of ``tail`` extra vertices hanging off vertex k-1."""
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    path = [(v, v + 1) for v in range(k - 1, k + tail - 1)]
    return sb.from_edge_list(k + tail, clique + path)


@pytest.mark.parametrize("k, tail", [(20, 20), (20, 40), (30, 100)])
def test_perron_certifies_lollipops_with_tiny_entries(k, tail):
    # The true Perron entries at the tail end reach 1e-144, far below roundoff.
    lollipop = _lollipop(k, tail)
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
