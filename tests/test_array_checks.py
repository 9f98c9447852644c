"""The array forms behind ``verify`` against their scalar references, bit for bit.

``verify`` checks a block of trials on arrays: the majorant
``f = -Phi_t / Phi_y`` as complex steps in Python's ``complex``, one point at
a time, and the comparison roots ``u(t)`` as array roots.  ``bound_report``
and the public scalar functions take the scalar forms.  The properties below
hold the array forms to the bits of the Python-``complex`` majorant and the
``math`` root kept in ``oracles``, and to the library's own scalar roots.  A test that only
compares ``verify`` with the public wrappers cannot see a drift both share,
so the summary extremes of a few seeds are pinned to the bits the per-trial
scalar checks gave.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specbound as sb
from oracles import complex_step_majorant, larger_quadratic_root
from specbound import PerturbationKind
from specbound.bounds import KIND_SPECS, _initial_value, _larger_quadratic_root, _majorant, _phi_at_zero

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def degree_params(kind: PerturbationKind, d: int) -> dict[str, int]:
    return dict(zip(KIND_SPECS[kind].params, (d - d // 2, d // 2) if kind is PerturbationKind.EDGE_ADDITION else (d,)))


def same_bits(a: float, b: float) -> bool:
    return math.isnan(a) and math.isnan(b) or float(a).hex() == float(b).hex()


def reference(kind: PerturbationKind, t: float, lam: float, d: int):
    """The Python-``complex`` majorant, or the class of the error it raises."""
    try:
        return complex_step_majorant(KIND_SPECS[kind].phi, t, lam, d)
    except ZeroDivisionError as exc:
        return type(exc)


# A gap lambda - t of 0 or below 1e-100 makes CPython divide by the larger
# imaginary part (the second branch of its complex division).
gaps = st.one_of(st.just(0.0), st.floats(1e-300, 1e-90), st.floats(1e-12, 60.0))
points = st.tuples(st.floats(0.0, 1.0), gaps, st.integers(0, 80))


@PROPERTY
@given(st.sampled_from(list(PerturbationKind)), st.lists(points, min_size=1, max_size=24))
def test_array_majorant_has_the_bits_of_the_complex_step(kind, drawn):
    spec = KIND_SPECS[kind]
    t, lam, d = (np.array(column) for column in zip(*((t, t + gap, d) for t, gap, d in drawn)))
    expected = [reference(kind, *point) for point in zip(t.tolist(), lam.tolist(), d.tolist())]
    if ZeroDivisionError in expected:  # Python's complex divides by zero there: so must the array
        with pytest.raises(ZeroDivisionError):
            _majorant(spec, t, lam, d)
        return
    got = _majorant(spec, t, lam, d).tolist()
    assert all(same_bits(a, b) for a, b in zip(got, expected, strict=True))


@PROPERTY
@given(st.sampled_from(list(PerturbationKind)), points)
def test_inequality_rhs_has_the_bits_of_the_complex_step(kind, point):
    t, gap, d = point
    d = max(d, int(KIND_SPECS[kind].isolated))  # the target count g of an isolated u is at least 1
    expected = reference(kind, t, t + gap, d)
    if expected is ZeroDivisionError:  # lambda = 0: the limit 0 at d = 0, none at (0, 0) with d > 0
        assert t + gap == 0.0
        if d:
            with pytest.raises(ValueError, match="has no limit at t = 0.0, lambda = 0.0"):
                sb.inequality_rhs(kind, t, t + gap, **degree_params(kind, d))
        else:
            assert sb.inequality_rhs(kind, t, t + gap, **degree_params(kind, d)) == 0.0
        return
    assert same_bits(sb.inequality_rhs(kind, t, t + gap, **degree_params(kind, d)), expected)


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


# float.hex of the six summary extremes of run_verification(seed, 30), as the
# per-trial scalar checks gave them, with lambda_F the certified root at
# t = 1: bound violation, strict slack, equality gap, derivative mismatch,
# inequality violation, comparison violation.
EXTREMES = (
    "max_bound_violation",
    "min_strict_slack",
    "max_equality_gap",
    "max_derivative_mismatch",
    "max_inequality_violation",
    "max_comparison_violation",
)
PINNED = {
    0: ("0x1.0000000000000p-50", "0x1.c37a865c38000p-13", "0x1.0000000000000p-50",
        "0x1.a000000000000p-50", "0x1.0000000000000p-52", "0x1.8000000000000p-50"),
    1: ("0x1.0000000000000p-50", "0x1.19b4a6b7eb800p-10", "0x1.0000000000000p-50",
        "0x1.8000000000000p-49", "0x1.0000000000000p-52", "0x1.8000000000000p-50"),
    2: ("0x1.0000000000000p-51", "0x1.1a860ce352800p-9", "0x1.0000000000000p-50",
        "0x1.2000000000000p-49", "0x1.0000000000000p-52", "0x1.8000000000000p-51"),
    3: ("0x1.0000000000000p-51", "0x1.2d358c6234000p-12", "0x1.0000000000000p-51",
        "0x1.8000000000000p-50", "0x1.0000000000000p-52", "0x1.8000000000000p-51"),
    4: ("0x1.0000000000000p-51", "0x1.aae151c32c000p-12", "0x1.0000000000000p-50",
        "0x1.4000000000000p-50", "0x1.0000000000000p-52", "0x1.0000000000000p-50"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_verify_extremes_keep_their_bits(seed):
    summary = sb.run_verification(seed, 30)
    assert summary.ok
    assert tuple(float(getattr(summary, name)).hex() for name in EXTREMES) == PINNED[seed]
