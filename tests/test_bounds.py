"""Closed-form bounds: exact values, oracle comparisons, round trips.

Expected eigenvalues marked "oracle" are computed in-test with
``numpy.linalg.eigvalsh`` (independent of the library's own solvers), and
cubic roots with ``numpy.roots``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specbound as sb
from specbound import PerturbationKind, bounds, report

SQRT2 = math.sqrt(2.0)
GOLDEN = (1 + math.sqrt(5)) / 2


def eig_max(graph) -> float:
    return float(np.linalg.eigvalsh(graph.adjacency())[-1])


# ---------------------------------------------------------------------------
# h
# ---------------------------------------------------------------------------

def test_h_fn_values():
    assert sb.h_fn(math.sqrt(4), 4) == pytest.approx(0.0, abs=1e-15)
    assert sb.h_fn(1 + math.sqrt(5), 4) == pytest.approx(2.0, abs=1e-12)
    assert sb.h_fn(3.0, 1) == pytest.approx(8.0 / 3.0)
    with pytest.raises(ValueError):
        sb.h_fn(0.0, 1)
    with pytest.raises(ValueError):
        sb.h_fn(1.0, 0)


def test_h_inv_values():
    assert sb.h_inv(0.0, 3) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert sb.h_inv(2.0, 4) == pytest.approx(1 + math.sqrt(5), abs=1e-14)
    for x in (0.5, 1.0, 7.3):
        for g in (1, 2, 10):
            assert sb.h_inv(sb.h_fn(x, g), g) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# k
# ---------------------------------------------------------------------------

def test_k_values():
    assert sb.k_fn(SQRT2, 2) == pytest.approx(0.0, abs=1e-15)
    assert sb.k_inv(-1.0, 2) == pytest.approx(1.0, abs=1e-14)
    for x in (0.3, 1.0, 9.7):
        for d in (1, 2, 11):
            assert sb.k_inv(sb.k_fn(x, d), d) == pytest.approx(x, abs=1e-12)
    with pytest.raises(ValueError):
        sb.k_fn(-1.0, 2)


# ---------------------------------------------------------------------------
# l1 / l2 / cubic inverse
# ---------------------------------------------------------------------------

def test_l_values():
    assert sb.l1(1.0, 1) == 0.0
    assert sb.l2(SQRT2, 1) == pytest.approx(0.0, abs=1e-15)
    assert sb.l1(2.5, 0) == 2.5
    with pytest.raises(ValueError):
        sb.l1(0.0, 1)
    with pytest.raises(ValueError):
        sb.l2(1.0, 1)


def test_l2_inv_exact_root():
    # cubic v^3 - 2v has roots {-sqrt2, 0, sqrt2}; only sqrt2 exceeds 1
    assert sb.l2_inv(0.0, 1) == pytest.approx(SQRT2, abs=1e-12)


def test_l2_inv_round_trip():
    for x in (1.5, 2.0, 10.0):
        for d in (1, 3):
            assert sb.l2_inv(sb.l2(x, d), d) == pytest.approx(x, abs=1e-10)


def test_l2_inv_matches_polynomial_oracle():
    for y in (-4.0, -1.0, 0.0, 1 / SQRT2, 1.5, 4.8, 9.9):
        for d in (1, 2, 5, 10):
            roots = np.roots([1.0, -y, -(d + 1.0), y])
            above_one = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 1.0]
            assert len(above_one) == 1  # l2 is a bijection from (1, inf)
            assert sb.l2_inv(y, d) == pytest.approx(above_one[0], abs=1e-10)


def test_l2_inv_value_exceeds_p4_index():
    # pendant at an endpoint of the 3-path: bound root vs. 4-path index
    nu = sb.l2_inv(sb.l1(SQRT2, 1), 1)
    assert nu == pytest.approx(1.6566967996302286, abs=1e-9)
    assert nu > eig_max(sb.path_graph(4)) == pytest.approx(GOLDEN, abs=1e-12)


def test_l2_inv_degenerate_degree():
    assert sb.l2_inv(3.0, 0) == 3.0
    with pytest.raises(ValueError):
        sb.l2_inv(0.5, 0)


def test_cubic_root_uniqueness_in_graph_regime():
    # for graph inputs (lambda >= sqrt(delta)), exactly one real root
    # of the cubic reaches sqrt(delta + 1)
    for d in (1, 2, 5, 10):
        for lam in (1.0, 1.5, 2.0, 5.0, 25.0):
            if lam < math.sqrt(d):
                continue
            y = sb.l1(lam, d)
            roots = np.roots([1.0, -y, -(d + 1.0), y])
            hits = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real >= math.sqrt(d + 1) - 1e-9]
            assert len(hits) == 1


# ---------------------------------------------------------------------------
# The three bounds against the eigensolver oracle
# ---------------------------------------------------------------------------

def test_bound_vertex_connection_star():
    bound = sb.bound_vertex_connection(0.0, 3)
    assert bound == pytest.approx(math.sqrt(3), abs=1e-14)
    assert bound == pytest.approx(eig_max(sb.star_graph(3)), abs=1e-9)


def test_bound_vertex_connection_cone_over_c4():
    bound = sb.bound_vertex_connection(2.0, 4)
    cone = sb.join(sb.empty_graph(1), sb.cycle_graph(4))
    assert bound == pytest.approx(1 + math.sqrt(5), abs=1e-14)
    assert bound == pytest.approx(eig_max(cone), abs=1e-9)


def test_bound_vertex_connection_strict_case():
    # 4-cycle plus an isolated vertex, connected to a single cycle vertex
    bound = sb.bound_vertex_connection(2.0, 1)
    assert bound == pytest.approx(1 + SQRT2, abs=1e-12)
    final = sb.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    lam_f = eig_max(final)
    assert lam_f == pytest.approx(2.1357792050698574, abs=1e-12)
    assert bound - lam_f > 1e-7  # the final graph is not a cone


def test_bound_edge_addition_triangle_equality():
    bound = sb.bound_edge_addition(SQRT2, 1, 1)
    assert bound == pytest.approx(2.0, abs=1e-12)
    assert bound == pytest.approx(eig_max(sb.cycle_graph(3)), abs=1e-9)


def test_bound_edge_addition_p4_chord_strict():
    bound = sb.bound_edge_addition(eig_max(sb.path_graph(4)), 1, 1)
    assert bound == pytest.approx(2.1385642651101726, abs=1e-9)
    assert bound - eig_max(sb.cycle_graph(4)) > 1e-7  # the 4-path is not a double cone


def test_bound_edge_addition_symmetric_in_degrees():
    for lam in (1.5, 3.0, 8.0):
        assert sb.bound_edge_addition(lam, 2, 5) == sb.bound_edge_addition(lam, 5, 2)


def test_bound_pendant_edge_p3_equality():
    bound = sb.bound_pendant_edge(1.0, 1)
    assert bound == pytest.approx(SQRT2, abs=1e-12)
    assert bound == pytest.approx(eig_max(sb.path_graph(3)), abs=1e-9)


def test_bound_pendant_edge_p3_endpoint_strict():
    bound = sb.bound_pendant_edge(SQRT2, 1)
    assert bound == pytest.approx(1.6566967996302286, abs=1e-9)
    assert bound - eig_max(sb.path_graph(4)) > 1e-7


def test_bound_pendant_edge_c4_strict():
    bound = sb.bound_pendant_edge(2.0, 2)
    tadpole = sb.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert bound == pytest.approx(2.1700864866260354, abs=1e-9)
    assert bound - eig_max(tadpole) > 1e-7


def test_bound_domain_errors():
    with pytest.raises(ValueError):
        sb.bound_vertex_connection(-0.5, 1)
    with pytest.raises(ValueError):
        sb.bound_vertex_connection(1.0, 0)
    with pytest.raises(ValueError):
        sb.bound_edge_addition(0.0, 1, 1)
    with pytest.raises(ValueError):
        sb.bound_pendant_edge(0.0, 1)
    with pytest.raises(ValueError):
        sb.bound_edge_addition(0.5, 0, 0)


PENDANT, EDGE = PerturbationKind.PENDANT_EDGE, PerturbationKind.EDGE_ADDITION
NON_FINITE_CALLS = {
    "bound": lambda x: sb.perturbation_bound(PENDANT, x, delta_u=1),
    "comparison": lambda x: sb.comparison_solution(PENDANT, x, 0.5, delta_u=1),
    "gap": lambda x: sb.asymptotic_gap(PerturbationKind.VERTEX_CONNECTION, x, g=2),
    "input": lambda x: bounds.BoundInput(EDGE, x, delta_u=1, delta_v=1),
    "coclique": lambda x: sb.coclique_bound(x, [1, 2]),
    "l2_inv": lambda x: sb.l2_inv(x, 2),
    "h_fn": lambda x: sb.h_fn(x, 2),
    "h_inv": lambda x: sb.h_inv(x, 2),
    "k_fn": lambda x: sb.k_fn(x, 2),
    "k_inv": lambda x: sb.k_inv(x, 2),
    "l1": lambda x: sb.l1(x, 2),
    "l2": lambda x: sb.l2(x, 2),
    "rhs_t": lambda x: sb.inequality_rhs(PENDANT, x, 3.0, delta_u=2),
    "rhs_lambda": lambda x: sb.inequality_rhs(EDGE, 0.5, x, delta_u=1, delta_v=1),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200], ids=str)
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_values_are_refused_by_name(call, value):
    # nan fails both lambda_i < 0 and lambda_i == 0, and the pendant root
    # gave a finite bound from it.  Past 2^256 a value leaves the range of
    # every map: h_inv and k_inv returned inf at 1e200, where y * y
    # overflows, and the maps returned nan on nan and inf on inf.
    with pytest.raises(ValueError, match=f"got {re.escape(str(value))}$"):
        call(value)


@pytest.mark.parametrize("kind, t, lam", [(PENDANT, 2.0, 3.0), (EDGE, -0.5, 1.0)], ids=str)
def test_inequality_rhs_refuses_a_time_off_the_path(kind, t, lam):
    # comparison_solution refuses these t; the majorant gave 0.3158 at the first.
    with pytest.raises(ValueError, match=rf"t must lie in \[0, 1\], got {t}$"):
        sb.inequality_rhs(kind, t, lam, delta_u=1, delta_v=1)


def test_extreme_finite_lambda_gives_a_bound_or_names_the_range():
    # At 5e16, c + d + 2 rounds to c and the cubic's bracket is widened by
    # one float; past [2^-256, 2^256] the gap d / lambda_i^p leaves float
    # range, which raised OverflowError and ZeroDivisionError.
    bound = sb.perturbation_bound(PENDANT, 5e16, delta_u=3)
    assert bound == pytest.approx(5e16, rel=1e-15) and bound >= 5e16
    for kind, lam, degrees in [
        (EDGE, 1e155, {"delta_u": 3, "delta_v": 2}),
        (PENDANT, 1e-110, {"delta_u": 3}),
        (EDGE, 1e-200, {"delta_u": 3, "delta_v": 2}),
    ]:
        with pytest.raises(ValueError, match=r"lie in \[2\^-256, 2\^256\], got "):
            sb.perturbation_bound(kind, lam, **degrees)
    for lam in (2.0**-256, 2.0**256):  # the ends of the range solve
        assert math.isfinite(sb.perturbation_bound(PENDANT, lam, delta_u=3))
        assert math.isfinite(sb.asymptotic_gap(PENDANT, lam, delta_u=3))


# ---------------------------------------------------------------------------
# Round trips and monotonicity over grids
# ---------------------------------------------------------------------------

def test_inverse_round_trips_over_grid():
    ys = [-50.0, -12.5, -1.0, 0.0, 0.5, 7.25, 50.0]
    for param in range(1, 21):
        for y in ys:
            assert sb.h_fn(sb.h_inv(y, param), param) == pytest.approx(y, abs=1e-10)
            assert sb.k_fn(sb.k_inv(y, param), param) == pytest.approx(y, abs=1e-10)
            assert sb.l2(sb.l2_inv(y, param), param) == pytest.approx(y, abs=1e-10)


def test_bounds_monotone_in_lambda_and_parameters():
    lams = [1.0, 1.4, 2.0, 3.5, 6.0, 12.0]
    for g in (1, 2, 5):
        vals = [sb.bound_vertex_connection(l, g) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for l in lams:
        by_g = [sb.bound_vertex_connection(l, g) for g in range(1, 6)]
        assert all(b > a for a, b in zip(by_g, by_g[1:]))
    for du, dv in ((1, 1), (2, 3)):
        vals = [sb.bound_edge_addition(l, du, dv) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for l in lams:
        by_d = [sb.bound_edge_addition(l, 1, dv) for dv in range(0, 5)]
        assert all(b > a for a, b in zip(by_d, by_d[1:]))
    for du in (1, 2, 4):
        vals = [sb.bound_pendant_edge(l, du) for l in lams if l >= math.sqrt(du)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for l in (3.5, 6.0, 12.0):
        by_du = [sb.bound_pendant_edge(l, du) for du in range(1, 6)]
        assert all(b > a for a, b in zip(by_du, by_du[1:]))


# ---------------------------------------------------------------------------
# Asymptotics and coclique iteration
# ---------------------------------------------------------------------------

def test_asymptotic_gap_formulas():
    assert sb.asymptotic_gap(PerturbationKind.VERTEX_CONNECTION, 10.0, g=1) == pytest.approx(0.1)
    assert sb.asymptotic_gap(
        PerturbationKind.EDGE_ADDITION, 10.0, delta_u=1, delta_v=1
    ) == pytest.approx(0.02)
    assert sb.asymptotic_gap(PerturbationKind.PENDANT_EDGE, 10.0, delta_u=1) == pytest.approx(
        0.001
    )
    with pytest.raises(ValueError):
        sb.asymptotic_gap(PerturbationKind.VERTEX_CONNECTION, 0.0, g=1)


def test_coclique_bound_two_vertices():
    res = sb.coclique_bound(100.0, [3, 5])
    assert res.asymptotic == pytest.approx(100.0008, abs=1e-12)
    assert res.iterated >= 100.0


def test_coclique_bound_rejects_singleton():
    with pytest.raises(ValueError):
        sb.coclique_bound(10.0, [3])


def test_coclique_iterated_gap_asymptotics():
    # With degree updates the iterated gap approaches
    # [(m-1) sum(deg) + m(m-1)(m-2)/2] / lam^2: every vertex of the coclique
    # gains a degree each time an earlier incident edge lands, which
    # contributes at the same order as the leading constant.
    for degs in ([1, 1, 1], [2, 3, 4], [5, 5, 5]):
        m = len(degs)
        honest = (m - 1) * sum(degs) + m * (m - 1) * (m - 2) // 2
        for lam, rel in ((100.0, 0.02), (1000.0, 2e-3)):
            res = sb.coclique_bound(lam, degs)
            assert (res.iterated - lam) * lam**2 == pytest.approx(honest, rel=rel)
        # iterated and asymptotic agree to first order as whole values
        res = sb.coclique_bound(100.0, degs)
        assert abs(res.iterated - res.asymptotic) / res.asymptotic <= 1e-5


@st.composite
def coclique_joins(draw):
    """A connected host on 3-10 vertices and a coclique of 2-4 of them: a
    random tree over the other vertices, each coclique vertex hung from one
    of them, then any further edges that keep the coclique independent."""
    n = draw(st.integers(3, 10))
    k = draw(st.integers(2, min(4, n - 1)))
    rest = n - k  # vertices 0 .. rest-1; the coclique is rest .. n-1
    tree = [(v, draw(st.integers(0, min(v, rest) - 1))) for v in range(1, n)]
    allowed = [(i, j) for i in range(n) for j in range(i + 1, n) if i < rest]
    extra = draw(st.lists(st.sampled_from(allowed), max_size=len(allowed)))
    coclique = draw(st.permutations(range(rest, n)))
    return sb.from_edge_list(n, tree + extra), coclique


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(coclique_joins())
def test_coclique_iterated_bound_holds_on_random_hosts(instance):
    host, coclique = instance
    res = sb.coclique_bound(eig_max(host), [host.degree(v) for v in coclique])
    joined = [(u, v) for u in coclique for v in coclique if u < v]
    final = sb.from_edge_list(host.n, [*host.edges, *joined])
    assert float(sb.full_spectrum(final.adjacency())[0]) <= res.iterated + 1e-9


def test_coclique_does_not_mutate_degree_list():
    degs = [1, 2, 3]
    sb.coclique_bound(50.0, degs)
    assert degs == [1, 2, 3]


def test_perturbation_bound_dispatch_and_input_container():
    assert sb.perturbation_bound(PerturbationKind.VERTEX_CONNECTION, 2.0, g=4) == sb.h_inv(2.0, 4)
    inp = sb.BoundInput(PerturbationKind.EDGE_ADDITION, SQRT2, delta_u=1, delta_v=1)
    assert inp.bound() == pytest.approx(2.0, abs=1e-12)
    assert inp.gap_estimate() == pytest.approx(2.0 / 2.0, abs=1e-12)
    star_inp = sb.BoundInput(PerturbationKind.VERTEX_CONNECTION, 0.0, g=3)
    assert star_inp.gap_estimate() is None
    with pytest.raises(ValueError):
        sb.BoundInput(PerturbationKind.PENDANT_EDGE, 0.0, delta_u=1)


def test_bound_and_gap_come_from_one_validated_weight(monkeypatch):
    # perturbation_bound, asymptotic_gap and the report each take the bound
    # u(1) and the gap d / lambda**p from one bounds helper, with the bits of
    # the formulas written out here.
    for kind, spec in bounds.KIND_SPECS.items():
        for lam in (0.5, 1.0, SQRT2, 2.0, 7.25, 40.0):
            for d in (1, 2, 5):
                degrees = dict(zip(spec.params, (d, d + 1)))
                weight = sum(degrees.values())
                c = spec.phi(0.0, lam, weight)
                assert sb.perturbation_bound(kind, lam, **degrees) == spec.root(1.0, c, weight)
                assert sb.asymptotic_gap(kind, lam, **degrees) == weight / lam**spec.gap_power
    calls = []
    original = bounds._bound_and_gap

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "_bound_and_gap", counted)
    monkeypatch.setattr(report, "_bound_and_gap", counted)
    sb.perturbation_bound(PerturbationKind.EDGE_ADDITION, 2.0, delta_u=1, delta_v=2)
    sb.asymptotic_gap(PerturbationKind.PENDANT_EDGE, 2.0, delta_u=1)
    sb.bound_report(sb.path_graph(4), sb.Perturbation.edge_addition(0, 3))
    assert len(calls) == 3


@pytest.mark.parametrize(
    "graph, pert",
    [
        (sb.path_graph(4), sb.Perturbation.edge_addition(0, 3)),
        (sb.disjoint_union(sb.cycle_graph(4), sb.empty_graph(1)), sb.Perturbation.vertex_connection(4, [0, 1])),
        (sb.complete_graph(4), sb.Perturbation.pendant_edge(0)),
        (sb.empty_graph(1), sb.Perturbation.pendant_edge(0)),
    ],
)
def test_bound_report_floats_are_python_floats(graph, pert):
    # A numpy scalar would show as np.float64(...) in the report's repr.
    rep = sb.bound_report(graph, pert)
    for name in ("lambda_i", "lambda_f_exact", "bound", "asymptotic_estimate", "slack"):
        value = getattr(rep, name)
        assert value is None or type(value) is float, name
    assert "np." not in repr(rep)


def test_zero_degree_perturbations_of_edgeless_hosts():
    # d = 0 with lambda_I = 0 (K1 + pendant, 2K1 + edge): Phi is the identity
    # and the bound max(c, t) at t = 1 is 1, the index of K2.  A host of
    # index in (0, 1] has an edge, so its degrees are not all 0: refused.
    assert sb.bound_pendant_edge(0.0, 0) == 1.0
    assert sb.bound_edge_addition(0.0, 0, 0) == 1.0
    assert sb.comparison_solution(PerturbationKind.PENDANT_EDGE, 0.0, 0.25, delta_u=0) == 0.25
    assert sb.comparison_solution(PerturbationKind.EDGE_ADDITION, 0.0, 0.0, delta_u=0, delta_v=0) == 0.0
    for lam in (0.5, 1.0):
        with pytest.raises(ValueError, match="needs lambda_i = 0 or > 1"):
            sb.bound_pendant_edge(lam, 0)
    assert sb.bound_pendant_edge(3.0, 0) == 3.0
