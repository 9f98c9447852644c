"""The array forms behind ``verify`` against their scalar references and
exact values.

``verify`` checks a block of trials on arrays: the majorant
``f = -Phi_t / Phi_y`` in each kind's closed form, and the comparison roots
``u(t)``, the pendant one a Newton iteration masked per point.
``bound_report`` and the public scalar functions take the same forms on
floats.  The properties below hold each array form to the bits of its scalar
form, the majorant to 4 ulps of its exact value in Fractions, the pendant
root to 2 ulps of a 200-bit mpmath root, and the closed forms to the complex
step of each kind's Phi.  A test that only compares ``verify`` with the
public wrappers cannot see a drift both share, so the summary extremes of a
few seeds are pinned to their bits, per OpenBLAS kernel.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import specbound as sb
from blas import openblas_core
from oracles import MAJORANTS, complex_step_majorant, larger_quadratic_root, pendant_root
from specbound import PerturbationKind
from specbound.bounds import (
    KIND_SPECS,
    _initial_value,
    _larger_quadratic_root,
    _majorant,
    _pendant_newton,
    _phi_at_zero,
    _root_edge,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def degree_params(kind: PerturbationKind, d: int) -> dict[str, int]:
    return dict(zip(KIND_SPECS[kind].params, (d - d // 2, d // 2) if kind is PerturbationKind.EDGE_ADDITION else (d,)))


def same_bits(a: float, b: float) -> bool:
    return math.isnan(a) and math.isnan(b) or float(a).hex() == float(b).hex()


def exact(kind: PerturbationKind, t: float, lam: float, d: int) -> Fraction:
    """``f(t, lambda)`` of the float inputs, computed exactly: 0 at ``d = 0``,
    where Phi is the identity."""
    return MAJORANTS[kind.value](Fraction(t), Fraction(lam), Fraction(d)) if d else Fraction(0)


def within_ulps(x: float, value: Fraction, ulps: int = 4) -> bool:
    return abs(Fraction(x) - value) <= ulps * Fraction(math.ulp(float(value)))


# Gaps lambda - t of 0, of 1e-300 to 1e-90 and of 1e-12 to 60: lambda at t,
# just above it, and off it.
gaps = st.one_of(st.just(0.0), st.floats(1e-300, 1e-90), st.floats(1e-12, 60.0))
points = st.tuples(st.floats(0.0, 1.0), gaps, st.integers(0, 80))


@PROPERTY
@given(st.sampled_from(list(PerturbationKind)), st.lists(points, min_size=1, max_size=24))
def test_array_majorant_has_the_bits_of_inequality_rhs(kind, drawn):
    # verify and the path checks take f of a block as one array; lambda > 0 there
    spec = KIND_SPECS[kind]
    drawn = [(t, t + gap, max(d, int(spec.isolated))) for t, gap, d in drawn if t + gap > 0.0]
    assume(drawn)
    t, lam, d = (np.array(column) for column in zip(*drawn))
    got = _majorant(spec, t, lam, d).tolist()
    for value, point in zip(got, drawn, strict=True):
        assert same_bits(value, sb.inequality_rhs(kind, *point[:2], **degree_params(kind, point[2])))
        assert within_ulps(value, exact(kind, *point))


@PROPERTY
@given(st.sampled_from(list(PerturbationKind)), points)
def test_inequality_rhs_is_within_4_ulps_of_the_exact_value(kind, point):
    t, gap, d = point
    lam, d = t + gap, max(d, int(KIND_SPECS[kind].isolated))  # the target count g of an isolated u is at least 1
    params = degree_params(kind, d)
    if lam == 0.0 and d and kind is not PerturbationKind.EDGE_ADDITION:
        with pytest.raises(ValueError, match="has no limit at t = 0.0, lambda = 0.0"):
            sb.inequality_rhs(kind, t, lam, **params)
        return
    value = sb.inequality_rhs(kind, t, lam, **params)
    assert within_ulps(value, exact(kind, t, lam, d))
    if lam > 0.0:
        assert same_bits(value, _majorant(KIND_SPECS[kind], np.array([t]), np.array([lam]), d).item())


def test_inequality_rhs_stays_in_range_at_the_top_of_lambda():
    # (y^2 - t^2)^2 overflows there; the pendant form divided by d y does not
    value = sb.inequality_rhs(PerturbationKind.PENDANT_EDGE, 1.0, 2.0**256, delta_u=2)
    assert value > 0.0 and within_ulps(value, exact(PerturbationKind.PENDANT_EDGE, 1.0, 2.0**256, 2))


@PROPERTY
@given(st.sampled_from(list(PerturbationKind)), st.floats(0.0, 1.0), st.floats(1e-12, 60.0), st.integers(1, 80))
def test_closed_form_majorant_is_the_complex_step_of_phi(kind, t, gap, d):
    # each closed form is -Phi_t / Phi_y of the kind's own Phi
    expected = complex_step_majorant(KIND_SPECS[kind].phi, t, t + gap, d)
    assert sb.inequality_rhs(kind, t, t + gap, **degree_params(kind, d)) == pytest.approx(expected, rel=1e-12)


def newton_iterates(t: float, c: float, d: int) -> list[float]:
    """The start and every iterate of the pendant root, as ``_root_pendant``
    takes them."""
    iterates, moving = [_root_edge(t, c, d)], True
    while moving:
        v, moving = _pendant_newton(iterates[-1], t, c, d)
        iterates.append(v)
    return iterates


@PROPERTY
@given(st.floats(0.0, 1.0), st.floats(-(2.0**256), 2.0**256), st.integers(0, 2**62))
@example(0.5, -(2.0**256), 7)
@example(1.0, 2.0**256, 2**62)
@example(0.0, -(2.0**256), 1)
@example(1.0, -(2.0**256), 0)
@example(0.0, 0.0, 0)
@example(1.0, 1.0, 1)
def test_pendant_root_is_within_2_ulps_of_mpmath(t, c, d):
    root = KIND_SPECS[PerturbationKind.PENDANT_EDGE].root(t, c, d)
    if d == 0:  # the cubic is (v - c)(v^2 - t^2)
        assert root == max(c, t)
        return
    exact_root = pendant_root(t, c, d)
    ulp = math.ulp(float(exact_root))
    assert abs(mpmath.mpf(root) - exact_root) <= 2 * ulp
    iterates = newton_iterates(t, c, d)
    assert iterates[-1] == root
    # from above, never across the root by more than the 2 ulps it stops within
    assert all(mpmath.mpf(v) >= exact_root - 2 * ulp for v in iterates)
    if (t, c, d) == (0.5, -(2.0**256), 7):
        assert root == 0.5


@PROPERTY
@given(st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(0.0, 60.0)), min_size=1, max_size=24))
def test_array_quadratic_root_has_the_bits_of_the_scalar_root(drawn):
    y, c = (np.array(column) for column in zip(*drawn))
    got = _larger_quadratic_root(y, c).tolist()
    assert all(same_bits(a, larger_quadratic_root(*yc)) for a, yc in zip(got, drawn, strict=True))


@st.composite
def instances(draw):
    """(kind, d, lambda_I) in the graph regime, lambda_I^2 >= every degree."""
    kind = draw(st.sampled_from(list(PerturbationKind)))
    spec = KIND_SPECS[kind]
    d = draw(st.integers(int(spec.isolated), 50))
    lam = draw(st.floats(max(1.0, math.sqrt(max(degree_params(kind, d).values()))), 50.0))
    assume(d > 0 or lam > 1.0)  # the zero-degree perturbations need lambda_I > 1
    return kind, d, lam


@PROPERTY
@given(instances(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
def test_array_comparison_roots_have_the_bits_of_the_scalar_roots(inst, ts):
    kind, d, lam = inst
    spec, weight, c = _initial_value(kind, lam, **degree_params(kind, d))
    got = spec.root(np.array(ts), np.array([c]), np.array([weight])).tolist()
    assert all(same_bits(a, spec.root(t, c, weight)) for a, t in zip(got, ts, strict=True))


@PROPERTY
@given(st.lists(instances(), min_size=1, max_size=24), st.integers(0, 4))
def test_array_initial_values_have_the_bits_of_the_scalar_ones(drawn, zeros):
    # verify takes Phi(0, lambda_I) of a kind's trials as one array, with the
    # bits of the scalar value the public bound starts from, lambda_I = 0 and
    # d = 0 (Phi's 0/0) included.
    drawn = drawn + [(kind, d * (k % 2), 0.0) for k, (kind, d, _) in enumerate(drawn[:zeros])]
    for kind in PerturbationKind:
        rows = [(d, lam) for k, d, lam in drawn if k is kind]
        if not rows:
            continue
        d, lam = (np.array(column) for column in zip(*rows))
        got = _phi_at_zero(KIND_SPECS[kind], lam, d).tolist()
        expected = [_phi_at_zero(KIND_SPECS[kind], b, a) for a, b in rows]
        assert all(same_bits(a, b) for a, b in zip(got, expected, strict=True))
        assert all(same_bits(a, _initial_value(kind, b, **degree_params(kind, w))[2])
                   for a, (w, b) in zip(got, rows) if b > 0.0)


# float.hex of the six summary extremes of run_verification(seed, 30), with
# lambda_F the certified root at t = 1: bound violation, strict slack,
# equality gap, derivative mismatch, inequality violation, comparison
# violation.  Each OpenBLAS kernel rounds its products in its own way, and
# the extremes are differences near rounding, so they are pinned per core
# (OPENBLAS_CORETYPE picks one; Prescott reports itself as Katmai), measured
# with OpenBLAS 0.3.31.
EXTREMES = (
    "max_bound_violation",
    "min_strict_slack",
    "max_equality_gap",
    "max_derivative_mismatch",
    "max_inequality_violation",
    "max_comparison_violation",
)
PINNED = {
    "SkylakeX": {
        0: ("0x1.0000000000000p-50", "0x1.c37a865c38000p-13", "0x1.0000000000000p-50",
            "0x1.a000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-50"),
        1: ("0x1.0000000000000p-50", "0x1.19b4a6b7eb800p-10", "0x1.0000000000000p-50",
            "0x1.8000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-50"),
        2: ("0x1.0000000000000p-51", "0x1.1a860ce352800p-9", "0x1.0000000000000p-50",
            "0x1.2000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        3: ("0x1.0000000000000p-51", "0x1.2d358c6234000p-12", "0x1.0000000000000p-51",
            "0x1.8000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        4: ("0x1.0000000000000p-51", "0x1.aae151c330000p-12", "0x1.0000000000000p-50",
            "0x1.4000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-50"),
    },
    "Haswell": {
        0: ("0x1.0000000000000p-51", "0x1.c37a865c18000p-13", "0x1.0000000000000p-50",
            "0x1.0000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        1: ("0x1.0000000000000p-51", "0x1.19b4a6b7ec800p-10", "0x1.0000000000000p-50",
            "0x1.6000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        2: ("0x1.0000000000000p-51", "0x1.1a860ce352400p-9", "0x1.0000000000000p-49",
            "0x1.2000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        3: ("0x1.0000000000000p-51", "0x1.2d358c6240000p-12", "0x1.0000000000000p-49",
            "0x1.8000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        4: ("0x1.0000000000000p-51", "0x1.aae151c328000p-12", "0x1.0000000000000p-51",
            "0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-50"),
    },
    "Sandybridge": {
        0: ("0x1.0000000000000p-51", "0x1.c37a865c18000p-13", "0x1.0000000000000p-50",
            "0x1.8000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        1: ("0x1.0000000000000p-51", "0x1.19b4a6b7ec800p-10", "0x1.0000000000000p-50",
            "0x1.6000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        2: ("0x1.0000000000000p-51", "0x1.1a860ce352400p-9", "0x1.0000000000000p-49",
            "0x1.4000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        3: ("0x1.0000000000000p-51", "0x1.2d358c6240000p-12", "0x1.0000000000000p-49",
            "0x1.8000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        4: ("0x1.0000000000000p-51", "0x1.aae151c328000p-12", "0x1.0000000000000p-51",
            "0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-50"),
    },
    "Katmai": {
        0: ("0x1.0000000000000p-51", "0x1.c37a865c40000p-13", "0x1.0000000000000p-50",
            "0x1.2000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        1: ("0x1.0000000000000p-51", "0x1.19b4a6b7ec800p-10", "0x1.0000000000000p-50",
            "0x1.4000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        2: ("0x1.0000000000000p-51", "0x1.1a860ce352400p-9", "0x1.0000000000000p-51",
            "0x1.4000000000000p-49", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        3: ("0x1.0000000000000p-51", "0x1.2d358c6234000p-12", "0x1.0000000000000p-49",
            "0x1.8000000000000p-50", "0x1.8000000000000p-52", "0x1.8000000000000p-51"),
        4: ("0x1.0000000000000p-51", "0x1.aae151c334000p-12", "0x1.0000000000000p-51",
            "0x1.0000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-50"),
    },
}


@pytest.mark.parametrize("seed", range(5))
def test_verify_extremes_keep_their_bits(seed):
    summary = sb.run_verification(seed, 30)
    assert summary.ok
    got = tuple(float(getattr(summary, name)).hex() for name in EXTREMES)
    core, version = openblas_core()
    assert core in PINNED, f"no pins for OpenBLAS core {core} (OpenBLAS {version}); seed {seed} gives {got}"
    assert got == PINNED[core][seed]
