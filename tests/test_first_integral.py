"""Property tests for the per-kind first integrals behind the bounds.

Phi is restated here from the paper's formulas rather than imported, so the
properties check the library's roots and majorant against an independent
statement of the same conserved quantity:

* vertex connection, ``d = g``:         ``Phi(t, y) = y - d t^2 / y``
* edge addition, ``d = du + dv``:       ``Phi(t, y) = y - d / (y - t)``
* pendant edge, ``d = du``:             ``Phi(t, y) = y - d y / (y^2 - t^2)``
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specbound as sb
from specbound import PerturbationKind
from specbound.bounds import KIND_SPECS

PHI = {
    PerturbationKind.VERTEX_CONNECTION: lambda t, y, d: y - d * t * t / y,
    PerturbationKind.EDGE_ADDITION: lambda t, y, d: y - d / (y - t),
    PerturbationKind.PENDANT_EDGE: lambda t, y, d: y - d * y / (y * y - t * t),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def degree_params(kind: PerturbationKind, d: int) -> dict[str, int]:
    if kind is PerturbationKind.VERTEX_CONNECTION:
        return {"g": d}
    if kind is PerturbationKind.EDGE_ADDITION:
        return {"delta_u": d // 2, "delta_v": d - d // 2}
    return {"delta_u": d}


@st.composite
def instances(draw, graph_regime: bool = False):
    """(kind, d, lambda_I) inside the bounds' domain.

    ``graph_regime`` keeps ``lambda_I`` at least the square root of each
    degree involved, as in every graph (the host contains that star).
    """
    kind = draw(st.sampled_from(list(PerturbationKind)))
    d = draw(st.integers(1 if kind is PerturbationKind.VERTEX_CONNECTION else 0, 50))
    floor = math.sqrt(max(degree_params(kind, d).values())) if graph_regime else 0.01
    lam = draw(st.floats(max(floor, 0.01), 50.0))
    assume(d > 0 or lam > 1.0)  # the zero-degree perturbations need lambda_I > 1
    return kind, d, lam


def u(kind, lam, t, d):
    return sb.comparison_solution(kind, lam, t, **degree_params(kind, d))


times = st.floats(0.0, 1.0, exclude_min=True)


@PROPERTY
@given(instances(graph_regime=True), times)
def test_phi_is_conserved_along_the_comparison_solution(inst, t):
    kind, d, lam = inst
    assert PHI[kind](t, u(kind, lam, t, d), d) == pytest.approx(
        PHI[kind](0.0, lam, d), abs=1e-12 * max(1.0, lam)
    )


@PROPERTY
@given(instances(), times)
def test_comparison_solution_is_a_root_off_the_graph_regime(inst, t):
    # Far below sqrt(d), Phi(0, lambda_I) is very negative and u(t) sits
    # near the pole y = t, where Phi is steep: Phi_y = 1 + d w.  Conservation
    # then holds to 1e-12 max(1, lambda) in y, i.e. scaled by Phi_y.
    kind, d, lam = inst
    y = u(kind, lam, t, d)
    h = 1e-7 * (y - t if kind is not PerturbationKind.VERTEX_CONNECTION else y)
    phi_y = (PHI[kind](t, y + h, d) - PHI[kind](t, y - h, d)) / (2.0 * h)
    defect = abs(PHI[kind](t, y, d) - PHI[kind](0.0, lam, d))
    assert defect <= 1e-12 * max(1.0, lam) * max(1.0, phi_y)


@PROPERTY
@given(instances(), times, times)
def test_comparison_solution_starts_at_lambda_and_never_decreases(inst, s, t):
    kind, d, lam = inst
    assert u(kind, lam, 0.0, d) == lam
    lo, hi = sorted((s, t))
    # nondecreasing up to rounding: roots at nearly equal t may differ by an ulp
    assert u(kind, lam, hi, d) >= u(kind, lam, lo, d) - 1e-14 * max(1.0, lam)


@PROPERTY
@given(
    st.sampled_from(list(PerturbationKind)),
    st.integers(0, 50),
    times,
    st.floats(1.0, 50.0),
)
def test_inequality_rhs_is_the_first_integral_slope(kind, d, t, gap):
    # f = -Phi_t / Phi_y, checked by central differences away from the pole
    assume(d > 0 or kind is not PerturbationKind.VERTEX_CONNECTION)
    y, h, phi = t + gap, 1e-5, PHI[kind]
    phi_t = (phi(t + h, y, d) - phi(t - h, y, d)) / (2.0 * h)
    phi_y = (phi(t, y + h, d) - phi(t, y - h, d)) / (2.0 * h)
    rhs = sb.inequality_rhs(kind, t, y, **degree_params(kind, d))
    assert rhs == pytest.approx(-phi_t / phi_y, abs=1e-7)


VERTEX, EDGE, PENDANT = PerturbationKind


@pytest.mark.parametrize(
    "kind, params, expected",
    [
        (VERTEX, {"g": 0}, "g must be an integer >= 1, got 0"),
        (VERTEX, {"g": 2}, "the vertex majorant has no limit at t = 0.0, lambda = 0.0"),
        (EDGE, {}, 0.0),
        (EDGE, {"delta_u": 1}, 1.0),
        (PENDANT, {}, 0.0),
        (PENDANT, {"delta_u": 1}, "the pendant majorant has no limit at t = 0.0, lambda = 0.0"),
    ],
    ids=["vertex-0", "vertex-2", "edge-0", "edge-1", "pendant-0", "pendant-1"],
)
def test_inequality_rhs_at_the_origin(kind, params, expected):
    # The t = 0 sample of a path on an edgeless host reaches (0, 0), a pole
    # of the vertex and pendant Phi, which used to raise ZeroDivisionError.
    # With d > 0 their f has no limit there (2 d t y / (y^2 + d t^2) for the
    # vertex kind); at d = 0 every Phi is the identity, so f = 0.  The edge
    # kind's f = d / ((y - t)^2 + d) is 1 there.
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            sb.inequality_rhs(kind, 0.0, 0.0, **params)
    else:
        assert sb.inequality_rhs(kind, 0.0, 0.0, **params).hex() == expected.hex()


@pytest.mark.parametrize("kind, d", [(VERTEX, 2), (PENDANT, 0), (PENDANT, 3)])
def test_inequality_rhs_takes_its_limit_at_lambda_zero_off_the_origin(kind, d):
    # Off t = 0, Phi_t vanishes at y = 0 while Phi_y does not, so f -> 0.
    assert sb.inequality_rhs(kind, 0.5, 0.0, **degree_params(kind, d)) == 0.0
    assert abs(sb.inequality_rhs(kind, 0.5, 1e-9, **degree_params(kind, d))) < 1e-8


@PROPERTY
@given(times, st.integers(0, 50), st.data())
def test_pendant_root_bracket_holds_on_the_whole_path(t, d, data):
    c = data.draw(st.floats(-float(d), 50.0))
    root = KIND_SPECS[PerturbationKind.PENDANT_EDGE].root
    y = root(t, c, d)  # never the RuntimeError of a failed bracket
    assert math.isfinite(y) and y >= t
    if d == 0:  # the cubic is (v - c)(v^2 - t^2), largest root max(c, t)
        assert y == max(c, t)


@PROPERTY
@given(instances(graph_regime=True), st.floats(0.0, 10.0), st.integers(1, 10), st.data())
def test_bound_is_monotone_in_lambda_and_in_each_degree(inst, more_lam, more_degree, data):
    # A larger initial index or a larger degree gives a larger bound (not
    # smaller by more than rounding for a tiny step in lambda_I), in the
    # graph regime: a host whose index is lambda_I has no degree above
    # lambda_I^2 (it contains that star).
    kind, d, lam = inst
    params = degree_params(kind, d)
    bound = sb.perturbation_bound(kind, lam, **params)
    higher = sb.perturbation_bound(kind, lam + more_lam, **params)
    assert higher > bound if more_lam >= 1e-6 else higher >= bound - 1e-14 * max(1.0, bound)
    name = data.draw(st.sampled_from(sorted(params)))
    raised = {**params, name: params[name] + more_degree}
    assume(lam * lam >= raised[name])
    assert sb.perturbation_bound(kind, lam, **raised) > bound
