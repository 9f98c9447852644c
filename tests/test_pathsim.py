"""Continuous-perturbation paths, differential certificates, closed forms."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

import specbound as sb
from oracles import MAJORANTS, lollipop_graph, pendant_normalization_constant, rk4
from specbound import Perturbation, PerturbationKind, spectral
from specbound.rng import SplitMix64, random_instance
from specbound.spectral import perron_components

SQRT2 = math.sqrt(2.0)


def eig_max(matrix) -> float:
    return float(np.linalg.eigvalsh(np.asarray(matrix, float))[-1])


def c4_plus_isolated():
    return sb.disjoint_union(sb.cycle_graph(4), sb.empty_graph(1))


# ---------------------------------------------------------------------------
# sample_path
# ---------------------------------------------------------------------------

def test_path_vertex_connection_endpoints():
    path = sb.sample_path(c4_plus_isolated(), Perturbation.vertex_connection(4, [0, 1, 2, 3]), steps=10)
    assert len(path.samples) == 11
    assert path.lambda_i == pytest.approx(2.0, abs=1e-10)
    assert path.lambda_f == pytest.approx(1 + math.sqrt(5), abs=1e-10)


def test_path_edge_addition_endpoints():
    path = sb.sample_path(sb.path_graph(3), Perturbation.edge_addition(0, 2), steps=10)
    assert path.lambda_i == pytest.approx(SQRT2, abs=1e-10)
    assert path.lambda_f == pytest.approx(2.0, abs=1e-10)


def test_path_pendant_endpoints():
    # the initial matrix is padded with the isolated pendant vertex
    path = sb.sample_path(sb.complete_graph(2), Perturbation.pendant_edge(0), steps=4)
    assert path.lambda_i == pytest.approx(1.0, abs=1e-10)
    assert path.lambda_f == pytest.approx(SQRT2, abs=1e-10)


def test_path_values_strictly_increase():
    for host, pert in (
        (c4_plus_isolated(), Perturbation.vertex_connection(4, [0])),
        (sb.path_graph(4), Perturbation.edge_addition(0, 3)),
        (sb.path_graph(3), Perturbation.pendant_edge(0)),
    ):
        values = [s.value for s in sb.sample_path(host, pert, steps=12).samples]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_path_derivative_identity():
    for host, pert in (
        (c4_plus_isolated(), Perturbation.vertex_connection(4, [0, 2])),
        (sb.path_graph(5), Perturbation.edge_addition(0, 4)),
        (sb.cycle_graph(5), Perturbation.pendant_edge(2)),
    ):
        path = sb.sample_path(host, pert, steps=16)
        for s in path.samples:
            if s.derivative_lhs is not None:
                assert s.derivative_lhs == pytest.approx(s.derivative_rhs, abs=1e-6)


def test_path_endpoint_derivatives_are_none():
    path = sb.sample_path(sb.path_graph(3), Perturbation.edge_addition(0, 2), steps=4)
    assert path.samples[0].derivative_lhs is None
    assert path.samples[-1].derivative_rhs is None
    assert all(s.derivative_lhs is not None for s in path.samples[1:-1])


def test_path_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sb.sample_path(sb.path_graph(3), Perturbation.edge_addition(0, 2), steps=1)
    # host with two components, new vertex attached to only one of them
    host = sb.disjoint_union(sb.disjoint_union(sb.cycle_graph(3), sb.complete_graph(2)), sb.empty_graph(1))
    with pytest.raises(ValueError):
        sb.sample_path(host, Perturbation.vertex_connection(5, [0]))


@pytest.mark.parametrize("steps", [2.5, 3.0, True])
def test_path_rejects_non_integer_steps(steps):
    with pytest.raises(ValueError, match="steps must be an integer >= 2"):
        sb.sample_path(sb.path_graph(3), Perturbation.edge_addition(0, 2), steps=steps)


def test_path_accepts_numpy_integer_steps():
    host, pert = sb.path_graph(5), Perturbation.edge_addition(0, 4)
    path = sb.sample_path(host, pert, steps=np.int64(4))
    ref = sb.sample_path(host, pert, steps=4)
    assert [s.t for s in path.samples] == [s.t for s in ref.samples] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(type(s.t) is float for s in path.samples)
    assert [s.derivative_lhs for s in path.samples] == [s.derivative_lhs for s in ref.samples]


def _reference_samples(host, pert, steps):
    """Every grid point rebuilt with the public, fully checked solvers."""
    p_mat = sb.perturbation_matrix(host, pert)
    a_initial = np.zeros_like(p_mat)
    a_initial[: host.n, : host.n] = host.adjacency()
    rows = []
    for k in range(steps + 1):
        t = k / steps
        if k == 0:
            value, vector = perron_components(a_initial)
        else:
            pair = sb.perron(a_initial + t * p_mat)
            value, vector = pair.value, pair.vector
        form = float(vector @ (p_mat @ vector)) if 0 < k < steps else None
        rows.append((value, vector, form))
    return rows


def _residual(a, value, vector) -> float:
    return float(np.linalg.norm(a @ vector - value * vector))


def _assert_path_agrees_with_the_public_solves(host, pert, steps):
    # The t = 0 pair is the public solve itself.  Past it, the path's pairs
    # are secular roots with shifted-solve vectors: a unit vector with
    # residual r has an eigenvalue within r of its value, and lies within
    # r / gap of that eigenvector (Davis-Kahan), so the path and the lone
    # certified solve agree within the sum of their residuals, plus the
    # rounding of the residuals themselves.  Both derivatives are <P x, x>
    # of a vector within that distance of the reference's, which moves it by
    # at most 2 ||P|| per unit of distance: the quadratic form of the path's
    # vector, and the slope of the secular equation at its root.
    path = sb.sample_path(host, pert, steps=steps)
    reference = _reference_samples(host, pert, steps)
    p_mat = sb.perturbation_matrix(host, pert)
    a_initial = np.zeros_like(p_mat)
    a_initial[: host.n, : host.n] = host.adjacency()
    eps = np.finfo(float).eps
    assert (path.samples[0].value, path.samples[0].vector.tolist()) == (
        reference[0][0],
        reference[0][1].tolist(),
    )
    for s, (value, vector, form) in zip(path.samples[1:], reference[1:], strict=True):
        a = a_initial + s.t * p_mat
        norm = float(np.abs(a).sum(axis=0).max())  # ||A||_1
        both = _residual(a, s.value, s.vector) + _residual(a, value, vector) + 4 * eps * norm
        assert abs(s.value - value) <= both
        top = np.linalg.eigvalsh(a)
        reach = 2.0 * both / (top[-1] - top[-2] - both)
        distance = float(np.linalg.norm(s.vector - vector))
        assert distance <= reach
        if form is not None:
            assert abs(s.derivative_lhs - form) <= 2.0 * np.linalg.norm(p_mat, 2) * reach + 4 * eps
            assert abs(s.derivative_rhs - form) <= 2.0 * np.linalg.norm(p_mat, 2) * distance + 4 * eps


def test_path_samples_agree_with_the_public_solves():
    for kind in PerturbationKind:
        for i in range(20):
            rng = SplitMix64.spawn(4041 + 100 * list(PerturbationKind).index(kind), i)
            host, pert = random_instance(rng, kind, 12, (0.25, 0.5, 0.8)[i % 3])
            _assert_path_agrees_with_the_public_solves(host, pert, 8)


@pytest.mark.parametrize(
    "host, pert",
    [
        (sb.path_graph(64), Perturbation.edge_addition(0, 32)),
        (sb.cycle_graph(60), Perturbation.pendant_edge(0)),
        # The Perron entries along the tail fall far below roundoff, so every
        # grid point takes the shifted solve, and its positivity is tested.
        (lollipop_graph(20, 20), Perturbation.pendant_edge(39)),
    ],
    ids=["P64-edge", "C60-pendant", "K20+P20-pendant"],
)
def test_long_paths_equal_the_public_solves(host, pert):
    _assert_path_agrees_with_the_public_solves(host, pert, 32)


def _count_lapack_calls(monkeypatch):
    """Record the ``numpy.linalg`` eigensolver and linear-solve calls made
    from now on, as (routine, matrix size) pairs."""
    calls = []
    for name in ("eigh", "eigvalsh", "solve"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_path_solves_in_a_few_lapack_calls(monkeypatch):
    # The eigensolver runs once per component size of A_I (1x1 components
    # need none), whatever the step count: every later point is a secular
    # root, each grid vector comes from the same eigendecompositions, and
    # no eigvalsh or linear solve is left.
    calls = _count_lapack_calls(monkeypatch)
    for kind in PerturbationKind:
        for i in range(10):
            rng = SplitMix64.spawn(5051 + 100 * list(PerturbationKind).index(kind), i)
            host, pert = random_instance(rng, kind, 12, (0.25, 0.5, 0.8)[i % 3])
            a_initial = np.zeros_like(sb.perturbation_matrix(host, pert))
            a_initial[: host.n, : host.n] = host.adjacency()
            sizes = {len(c) for c in spectral.connected_components(a_initial)} - {1}
            for steps in (8, 32):
                calls.clear()
                sb.sample_path(host, pert, steps=steps)
                assert sorted(calls) == sorted(("eigh", n) for n in sizes)


def _warm_peak(solve, warm=None):
    """The tracemalloc peak, in bytes, of ``solve()`` after ``(warm or solve)()``."""
    (warm or solve)()
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_path_memory_stays_bounded():
    # The eigenbasis vectors and the secular roots peak near 360 KiB here;
    # one stack of all 94 matrices A(t) would peak near 2.1 MiB.
    host, pert = sb.path_graph(64), Perturbation.edge_addition(0, 32)
    assert _warm_peak(lambda: sb.sample_path(host, pert, steps=32)) < 1 << 20


def test_path_memory_beyond_its_vectors_does_not_grow_with_steps():
    # The eigenbasis vectors go in passes of about 2^12 terms: at steps 1024
    # the path peaks near 970 KiB, 512 KiB of it the vectors returned.  All
    # points in one pass peaked near 3.9 MiB.
    host, pert = sb.path_graph(64), Perturbation.edge_addition(0, 32)
    assert _warm_peak(lambda: sb.sample_path(host, pert, steps=1024)) < 1536 << 10


@pytest.mark.parametrize("steps, passes", [(32, 1), (1024, 16)])
def test_eigenbasis_passes_give_the_bits_of_one_pass(monkeypatch, steps, passes):
    # P_64 has 64 terms, so a pass holds 64 points: steps 32 stays one pass.
    # Split or forced into one pass, the roots, slopes, vectors, residuals
    # and certificate flags keep every byte.
    host, pert = sb.path_graph(64), Perturbation.edge_addition(0, 32)
    split, solved = [], []
    original, grid_points = spectral._passes, spectral._grid_points

    def counted(points, terms):
        split.append(list(original(points, terms)))
        return iter(split[-1])

    def recorded(*args):
        roots, slopes, pairs, passed = grid_points(*args)
        arrays = [roots, slopes, passed] + [a for pair in pairs for a in pair]
        solved.append([a.tobytes() for a in arrays])
        return roots, slopes, pairs, passed

    monkeypatch.setattr(spectral, "_grid_points", recorded)
    monkeypatch.setattr(spectral, "_passes", counted)
    sb.sample_path(host, pert, steps=steps)
    assert len(split) == 1 and len(split[0]) == passes
    monkeypatch.setattr(spectral, "_passes", lambda points, terms: iter([(0, points)]))
    sb.sample_path(host, pert, steps=steps)
    assert solved[0] == solved[1]


def test_shifted_solve_memory_does_not_grow_with_its_points():
    # Every grid point of the lollipop's tail pendant takes the shifted
    # solve, one matrix at a time: the path peaks near 320 KiB here, and a
    # stack of its 64 matrices A(t) would add about 860 KiB.
    host, pert = lollipop_graph(20, 20), Perturbation.pendant_edge(39)
    assert _warm_peak(lambda: sb.sample_path(host, pert, steps=64)) < 512 << 10


def test_verify_memory_stays_bounded():
    # Blocks of about 2^16 matrix entries peak near 850 KiB here, whatever
    # the trial count; solving all 300 trials as one block peaks near 1.8 MiB.
    peak = _warm_peak(lambda: sb.run_verification(42, 300), lambda: sb.run_verification(42, 30))
    assert peak < 1 << 20


def _count_connectivity_passes(monkeypatch):
    """Count calls of ``connected_components`` through every name bound to it."""
    calls = []
    original = spectral.connected_components

    def counted(a):
        calls.append(1)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("specbound") and getattr(module, "connected_components", None) is original:
            monkeypatch.setattr(module, "connected_components", counted)
    return calls


@pytest.mark.parametrize("pert", [Perturbation.edge_addition(0, 5), Perturbation.pendant_edge(0)])
def test_path_checks_connectivity_once_per_path(monkeypatch, pert):
    calls = _count_connectivity_passes(monkeypatch)
    per_path = []
    for steps in (4, 32):
        calls.clear()
        sb.sample_path(sb.path_graph(6), pert, steps=steps)
        per_path.append(len(calls))
    assert per_path[0] == per_path[1] <= 2
    calls.clear()
    sb.spectral_radius(sb.path_graph(6).adjacency())
    assert len(calls) == 1


def test_path_and_report_agree_on_tied_components():
    # K_{1,4} and C4 both have index 2: the t = 0 value is the largest
    # component value, as in bound_report, not the first one within tol.
    # One instance per kind: the pendant edge pads A_I with a zero row, and
    # the vertex connection starts from an isolated anchor.
    ties = sb.disjoint_union(sb.star_graph(4), sb.cycle_graph(4))
    instances = [
        (ties, Perturbation.edge_addition(1, 6)),
        (sb.cycle_graph(4), Perturbation.pendant_edge(0)),
        (sb.disjoint_union(ties, sb.empty_graph(1)), Perturbation.vertex_connection(9, [1, 6])),
    ]
    for host, pert in instances:
        assert sb.sample_path(host, pert, steps=4).lambda_i == sb.bound_report(host, pert).lambda_i


def test_disconnected_result_raises_disconnected_error():
    host = sb.disjoint_union(sb.disjoint_union(sb.cycle_graph(3), sb.complete_graph(2)), sb.empty_graph(1))
    for solve in (sb.sample_path, sb.bound_report):
        with pytest.raises(sb.DisconnectedError, match="the perturbed graph is disconnected"):
            solve(host, Perturbation.vertex_connection(5, [0]))


def test_path_grid_solves_stay_certified():
    # t = 0 is the zero matrix (exact 1x1 solves); every t > 0 has a residual
    # near 1e-16, so a tolerance of 1e-300 must be refused past t = 0.
    with pytest.raises(RuntimeError, match="not certified"):
        sb.sample_path(sb.empty_graph(4), Perturbation.vertex_connection(3, [0, 1, 2]), steps=4, tol=1e-300)


# ---------------------------------------------------------------------------
# differential inequality
# ---------------------------------------------------------------------------

def test_inequality_equality_case_is_tight_pointwise():
    # cone path: the inequality holds with equality along the whole path
    path = sb.sample_path(
        c4_plus_isolated(), Perturbation.vertex_connection(4, [0, 1, 2, 3]), steps=16
    )
    assert sb.check_differential_inequality(path) <= 1e-6
    for s in path.samples:
        if s.derivative_rhs is None:
            continue
        f = sb.inequality_rhs(path.kind, s.t, s.value, **path.params())
        assert abs(s.derivative_rhs - f) <= 1e-6


def test_inequality_strict_case_has_positive_slack():
    path = sb.sample_path(sb.path_graph(3), Perturbation.pendant_edge(0), steps=16)
    assert sb.check_differential_inequality(path) < -1e-7
    for s in path.samples:
        if s.derivative_rhs is None:
            continue
        f = sb.inequality_rhs(path.kind, s.t, s.value, **path.params())
        assert f - s.derivative_rhs >= 1e-7


# ---------------------------------------------------------------------------
# comparison solution
# ---------------------------------------------------------------------------

def test_comparison_solution_closed_forms():
    assert sb.comparison_solution(
        PerturbationKind.VERTEX_CONNECTION, 2.0, 1.0, g=4
    ) == pytest.approx(1 + math.sqrt(5), abs=1e-14)
    assert sb.comparison_solution(
        PerturbationKind.EDGE_ADDITION, SQRT2, 1.0, delta_u=1, delta_v=1
    ) == pytest.approx(2.0, abs=1e-12)
    assert sb.comparison_solution(
        PerturbationKind.PENDANT_EDGE, 1.0, 1.0, delta_u=1
    ) == pytest.approx(sb.l2_inv(0.0, 1), abs=1e-6)


def test_comparison_solution_initial_condition():
    lams = [1.7] + np.linspace(0.05, 40.0, 400).tolist()
    for kind, params in (
        (PerturbationKind.VERTEX_CONNECTION, {"g": 3}),
        (PerturbationKind.EDGE_ADDITION, {"delta_u": 2, "delta_v": 1}),
        (PerturbationKind.PENDANT_EDGE, {"delta_u": 2}),
    ):
        for lam in lams:
            assert sb.comparison_solution(kind, lam, 0.0, **params) == lam
    # the initial value is still validated before it is returned
    with pytest.raises(ValueError):
        sb.comparison_solution(PerturbationKind.EDGE_ADDITION, 0.0, 0.0, delta_u=1, delta_v=1)
    with pytest.raises(ValueError):
        sb.comparison_solution(PerturbationKind.VERTEX_CONNECTION, -1.0, 0.0, g=1)


def test_comparison_solution_domain_errors():
    with pytest.raises(ValueError):
        sb.comparison_solution(PerturbationKind.EDGE_ADDITION, 2.0, 1.5, delta_u=1, delta_v=1)
    with pytest.raises(ValueError):
        sb.comparison_solution(PerturbationKind.EDGE_ADDITION, 0.0, 0.5, delta_u=1, delta_v=1)
    with pytest.raises(ValueError):
        sb.comparison_solution(PerturbationKind.PENDANT_EDGE, -1.0, 0.5, delta_u=1)


def test_comparison_matches_bounds_at_t1():
    # the end of the majorizing solution is exactly the closed-form bound
    assert sb.comparison_solution(
        PerturbationKind.VERTEX_CONNECTION, 1.3, 1.0, g=5
    ) == sb.bound_vertex_connection(1.3, 5)
    assert sb.comparison_solution(
        PerturbationKind.EDGE_ADDITION, 2.7, 1.0, delta_u=2, delta_v=3
    ) == sb.bound_edge_addition(2.7, 2, 3)
    for lam, du in ((1.0, 1), (2.5, 2), (10.0, 5)):
        assert sb.comparison_solution(
            PerturbationKind.PENDANT_EDGE, lam, 1.0, delta_u=du
        ) == sb.bound_pendant_edge(lam, du)
    for kind, params in (
        (PerturbationKind.VERTEX_CONNECTION, {"g": 3}),
        (PerturbationKind.EDGE_ADDITION, {"delta_u": 2, "delta_v": 1}),
        (PerturbationKind.PENDANT_EDGE, {"delta_u": 2}),
    ):
        for lam in (1.5, 2.0, 3.7, 11.0):
            assert sb.comparison_solution(kind, lam, 1.0, **params) == sb.perturbation_bound(
                kind, lam, **params
            )


def test_check_comparison_equality_profile():
    # star construction: empty host on 3 vertices plus the new vertex
    host = sb.empty_graph(4)
    path = sb.sample_path(host, Perturbation.vertex_connection(0, [1, 2, 3]), steps=8)
    comp = sb.check_comparison(path)
    assert comp.ok
    assert comp.margins[0] == 0.0  # shared initial condition
    assert max(abs(m) for m in comp.margins) <= 1e-7


def test_check_comparison_strict_profile():
    path = sb.sample_path(sb.path_graph(4), Perturbation.edge_addition(0, 3), steps=8)
    comp = sb.check_comparison(path)
    assert comp.ok
    assert comp.margins[0] == 0.0
    assert all(m > 1e-10 for m, s in zip(comp.margins[1:], path.samples[1:]))


def test_comparison_curve_consistent_with_pointwise():
    path = sb.sample_path(sb.cycle_graph(4), Perturbation.pendant_edge(0), steps=8)
    curve = sb.comparison_curve(path)
    for s, u in zip(path.samples, curve):
        direct = sb.comparison_solution(path.kind, path.lambda_i, s.t, **path.params())
        assert u == pytest.approx(direct, abs=1e-10)


def test_pendant_rk4_converges_to_cubic_root():
    for lam, du in ((1.0, 1), (SQRT2, 1), (2.0, 2), (5.0, 5)):
        y1 = rk4(lambda t, y: MAJORANTS["pendant"](t, y, du), lam, 0.0, 1.0, 10_000)
        assert y1 == pytest.approx(sb.l2_inv(sb.l1(lam, du), du), abs=1e-8)


# ---------------------------------------------------------------------------
# closed-form equality-case eigenpairs
# ---------------------------------------------------------------------------

def test_closed_form_vertex_join_values():
    assert sb.closed_form_vertex_join(4, 2, 1.0).value == pytest.approx(1 + math.sqrt(5), abs=1e-14)
    assert sb.closed_form_vertex_join(3, 0, 1.0).value == pytest.approx(math.sqrt(3), abs=1e-14)
    sol = sb.closed_form_vertex_join(5, 2, 0.7)
    assert sol.alpha > 0 and sol.beta > 0
    assert sol.alpha**2 + 5 * sol.beta**2 == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-10


def test_closed_form_edge_join_values():
    assert sb.closed_form_edge_join(1, 0, 1.0).value == pytest.approx(2.0, abs=1e-14)
    # double cone over two isolated vertices is the 4-cycle; adding the apex
    # edge gives the 4-cycle plus a chord
    sol = sb.closed_form_edge_join(2, 0, 1.0)
    assert sol.value == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-12)
    chord = sb.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert sol.value == pytest.approx(eig_max(chord.adjacency()), abs=1e-9)
    assert 2 * sol.alpha**2 + 2 * sol.gamma**2 == pytest.approx(1.0, abs=1e-12)


def test_closed_form_pendant_join_values():
    assert sb.closed_form_pendant_join(1, 0, 1.0).value == pytest.approx(SQRT2, abs=1e-12)
    # pendant at the apex of the cone over the 4-cycle: largest root of
    # x^3 - 2x^2 - 5x + 2 (numpy.roots oracle), equal to the 6-vertex index
    sol = sb.closed_form_pendant_join(4, 2, 1.0)
    oracle_root = max(r.real for r in np.roots([1.0, -2.0, -5.0, 2.0]))
    assert sol.value == pytest.approx(oracle_root, abs=1e-10)
    cone = sb.join(sb.empty_graph(1), sb.cycle_graph(4))
    final = sb.apply_perturbation(cone, Perturbation.pendant_edge(0))
    assert sol.value == pytest.approx(eig_max(final.adjacency()), abs=1e-9)
    assert sol.alpha**2 + sol.beta**2 + 4 * sol.gamma**2 == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-10


def test_pendant_join_normalization_constant_gap():
    # the paper's closed-form normalization constant matches the direct
    # squared norm of the eigenvector direction only at t = 1; off the
    # endpoint the eigenvector must be normalized directly (which
    # closed_form_pendant_join does)
    def gap(n, delta, t):
        lam = sb.closed_form_pendant_join(n, delta, t).value
        direction = (t * (lam - delta), lam * (lam - delta), lam)
        norm_sq = direction[0] ** 2 + direction[1] ** 2 + n * direction[2] ** 2
        return abs(pendant_normalization_constant(n, delta, t, lam) - norm_sq)

    assert gap(4, 2, 1.0) == pytest.approx(0.0, abs=1e-9)
    assert gap(4, 2, 0.5) > 0.1
    assert gap(3, 0, 0.5) == pytest.approx(0.0, abs=1e-9)


ALL_FEASIBLE_CORES = [
    (n, delta) for n in range(1, 9) for delta in range(n) if (n * delta) % 2 == 0
]


@pytest.mark.parametrize("n,delta", ALL_FEASIBLE_CORES)
@pytest.mark.parametrize("t", [0.25, 0.5, 0.75, 1.0])
def test_closed_forms_match_perron_along_path(n, delta, t):
    core = sb.circulant_graph(n, delta)

    host_v = sb.disjoint_union(core, sb.empty_graph(1))
    pv = sb.perturbation_matrix(host_v, Perturbation.vertex_connection(n, range(n)))
    a0 = np.zeros((n + 1, n + 1))
    a0[:n, :n] = core.adjacency()
    assert sb.closed_form_vertex_join(n, delta, t).value == pytest.approx(
        sb.perron(a0 + t * pv).value, abs=1e-9
    )

    host_e = sb.join(sb.empty_graph(2), core)
    pe = sb.perturbation_matrix(host_e, Perturbation.edge_addition(0, 1))
    assert sb.closed_form_edge_join(n, delta, t).value == pytest.approx(
        sb.perron(host_e.adjacency() + t * pe).value, abs=1e-9
    )

    host_p = sb.join(sb.empty_graph(1), core)
    pp = sb.perturbation_matrix(host_p, Perturbation.pendant_edge(0))
    b0 = np.zeros((n + 2, n + 2))
    b0[: n + 1, : n + 1] = host_p.adjacency()
    # closed form orders the vector (pendant, apex, core); the matrix here
    # orders (apex, core..., pendant) -- the spectral radius is what matches
    assert sb.closed_form_pendant_join(n, delta, t).value == pytest.approx(
        sb.perron(b0 + t * pp).value, abs=1e-9
    )


def test_closed_form_domain_errors():
    with pytest.raises(ValueError):
        sb.closed_form_vertex_join(3, 3, 1.0)
    with pytest.raises(ValueError):
        sb.closed_form_edge_join(3, 1, 0.0)
    with pytest.raises(ValueError):
        sb.closed_form_pendant_join(0, 0, 1.0)
    # fractional orders and degrees have no regular core
    with pytest.raises(ValueError):
        sb.closed_form_edge_join(3.5, 1, 1.0)
    with pytest.raises(ValueError):
        sb.closed_form_pendant_join(4, 1.5, 1.0)
    with pytest.raises(ValueError):
        sb.closed_form_join(PerturbationKind.VERTEX_CONNECTION, 4, 0.5, 1.0)


def _equality_instance(kind, core):
    """Host, perturbation and the vertex of each closed-form cell, in cell
    order, for the equality path of ``kind`` over ``core``."""
    n = core.n
    if kind is PerturbationKind.VERTEX_CONNECTION:
        host = sb.disjoint_union(core, sb.empty_graph(1))
        return host, Perturbation.vertex_connection(n, range(n)), ([n], range(n))
    if kind is PerturbationKind.EDGE_ADDITION:
        host = sb.join(sb.empty_graph(2), core)
        return host, Perturbation.edge_addition(0, 1), ([0, 1], range(2, n + 2))
    host = sb.join(sb.empty_graph(1), core)
    return host, Perturbation.pendant_edge(0), ([n + 1], [0], range(1, n + 1))


@pytest.mark.parametrize("kind", list(PerturbationKind))
@pytest.mark.parametrize("n,delta", ALL_FEASIBLE_CORES)
def test_closed_form_join_is_the_equality_profile(kind, n, delta):
    host, pert, cells = _equality_instance(kind, sb.circulant_graph(n, delta))
    p_mat = sb.perturbation_matrix(host, pert)
    a_initial = np.zeros_like(p_mat)
    a_initial[: host.n, : host.n] = host.adjacency()
    lambda_i = sb.bound_report(host, pert).lambda_i
    params = sb.bound_parameters(host, pert)
    for t in (0.25, 0.5, 0.75, 1.0):
        sol = sb.closed_form_join(kind, n, delta, t)
        # the cells, lifted to the full vertex order, are the Perron vector
        entries = [e for e in (sol.alpha, sol.beta, sol.gamma) if e is not None]
        lifted = np.zeros(p_mat.shape[0])
        for entry, vertices in zip(entries, cells):
            lifted[list(vertices)] = entry
        assert np.max(np.abs(lifted - sb.perron(a_initial + t * p_mat).vector)) <= 1e-9
        # and the value is the comparison solution from the host's index
        u = sb.comparison_solution(kind, lambda_i, t, **params)
        assert sol.value == pytest.approx(u, rel=1e-12)


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------

def test_format_path_dump_shape_and_precision():
    host = sb.empty_graph(4)
    path = sb.sample_path(host, Perturbation.vertex_connection(0, [1, 2, 3]), steps=8)
    dump = sb.format_path_dump(path)
    lines = dump.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [ln.split("\t") for ln in lines[1:]]
    assert len(rows) == 9
    assert all(len(r) == 6 for r in rows)
    assert rows[0][2] == "nan" and rows[-1][3] == "nan"
    # margin column stays at the equality profile
    for r in rows:
        assert abs(float(r[5])) <= 1e-7
    # 12 significant digits survive a round trip
    lam_mid = float(rows[4][1])
    assert lam_mid == pytest.approx(path.samples[4].value, rel=1e-11)
