"""Sharp upper bounds on the index after a local perturbation, all derived
from one first integral per perturbation kind.

Run the perturbation as the matrix path ``A(t) = A_I + t P`` for t in
[0, 1].  Along it the index obeys ``lambda' <= f(t, lambda)``, and the
majorizing Cauchy problem ``y' = f(t, y), y(0) = lambda_I`` keeps a first
integral ``Phi(t, y; d)`` constant along its solution ``u(t)``:

* vertex connection (isolated vertex joined to g vertices), ``d = g``:
  ``Phi(t, y) = y - d t^2 / y``;
* edge addition (nonadjacent endpoints of degrees du, dv), ``d = du + dv``:
  ``Phi(t, y) = y - d / (y - t)``;
* pendant edge (anchor of degree du), ``d = du``:
  ``Phi(t, y) = y - d y / (y^2 - t^2)``.

So ``u(t)`` is the largest root of ``Phi(t, y) = Phi(0, lambda_I)``, the
bound on the final index is ``u(1)``, and ``f = -Phi_t / Phi_y`` is
``2 d t y / (y^2 + d t^2)``, ``d / ((y - t)^2 + d)`` and
``2 d t y / ((y^2 - t^2)^2 + d (y^2 + t^2))`` in closed form.  The
paper's auxiliary maps are slices of Phi: ``H(x) = x - g/x`` and
``L2(x) = x - du/(x - 1/x)`` at t = 1, ``K(x) = x - (du+dv)/x`` and
``L1(x) = x - du/x`` at t = 0.  The vertex and edge roots are quadratic; the
pendant root is the one above t of the cubic
``y^3 - c y^2 - (d + t^2) y + c t^2``, found by Newton's iteration from
above.  :data:`KIND_SPECS`, the one table
of the :class:`PerturbationKind` members, holds these per kind, every
function below reads it, and its entries also say what a perturbation of
the kind takes: target count, usage line, an isolated ``u``, host sizes.

First-order expansions of the bound gaps (``d / lambda^p`` with p = 1, 2, 3)
and the iterated bound for joining a coclique complete the module.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

_PENDANT_STEPS = 64  # Newton steps; the pendant root took at most 7 from its start
# A positive lambda_i lies in [2^-256, 2^256]: there the gap d / lambda_i^3
# and every partial result of the roots and majorants stay within float range.
_LAMBDA_RANGE = (2.0**-256, 2.0**256)


def _check_count(name: str, value: int, minimum: int) -> int:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _larger_quadratic_root(y, c):
    """Positive root of ``x^2 - y x - c = 0`` for c >= 0, cancellation-free;
    on floats, or on numpy arrays with the same bits per entry."""
    if isinstance(y, np.ndarray) or isinstance(c, np.ndarray):
        disc = np.sqrt(y * y + 4.0 * c)
        with np.errstate(divide="ignore", invalid="ignore"):  # in the branch not taken
            return np.where(y >= 0.0, 0.5 * (y + disc), (2.0 * c) / (disc - y))
    disc = math.sqrt(y * y + 4.0 * c)
    if y >= 0.0:
        return 0.5 * (y + disc)
    return (2.0 * c) / (disc - y)


# ---------------------------------------------------------------------------
# First integrals and their roots
# ---------------------------------------------------------------------------

# Each Phi, right-hand side f = -Phi_t / Phi_y and root takes floats or numpy
# arrays, with the same bits per entry.  Each f is written so that no partial
# result leaves float range for lambda in _LAMBDA_RANGE; f at d = 0, where Phi
# is the identity, and at lambda = 0, a pole of the vertex and pendant Phi,
# is left to the callers.

def _phi_vertex(t, y, d):
    return y - d * t * t / y


def _phi_edge(t, y, d):
    return y - d / (y - t)


def _phi_pendant(t, y, d):
    # d y / (y^2 - t^2) in the form that gives L1 and L2 bit for bit
    return y - d / (y - t * t / y)


def _rhs_vertex(t, y, d):
    # 2 d t y / (y^2 + d t^2), over y
    dt = d * t
    return 2.0 * dt / (y + dt * (t / y))


def _rhs_edge(t, y, d):
    gap = y - t
    return d / (gap * gap + d)


def _rhs_pendant(t, y, d):
    # 2 d t y / ((y^2 - t^2)^2 + d (y^2 + t^2)), over d y
    tt = t * (t / y)
    return 2.0 * t / ((y + tt) + y * ((y - tt) * (y - tt)) / d)


def _root_vertex(t, c, d):
    return _larger_quadratic_root(c, d * t * t)


def _root_edge(t, c, d):
    return t + _larger_quadratic_root(c - t, d)


def _root_pendant(t, c, d):
    """Largest root of ``p(v) = (v - c)(v^2 - t^2) - d v``, the one at least t.

    That root is at least ``max(c, t)``, where ``p <= 0``, and there ``p``
    is convex.  At the edge root ``v0 = t + r``, ``r(r + t - c) = d``, ``p``
    is ``d t >= 0``: so Newton's iteration from ``v0`` decreases to the root
    without crossing it, up to the rounding of ``p``.  Each point stops once
    a step is within 2 ulps, or goes up, which only rounding does.  At
    ``d = 0`` the root is ``max(c, t)``.  On arrays every point takes the
    steps the float takes, masked once it stops (:func:`_pendant_newton`).
    """
    v = _root_edge(t, c, d)
    if not isinstance(v, np.ndarray):
        if not d:
            return float(max(c, t))
        for _ in range(_PENDANT_STEPS):
            v, moving = _pendant_newton(v, t, c, d)
            if not moving:
                return v
        raise RuntimeError(f"pendant root search stalled for t={t}, c={c}, d={d}")  # pragma: no cover
    active = np.broadcast_to(d != 0, v.shape).copy()
    with np.errstate(divide="ignore", invalid="ignore"):  # at the points of d = 0, never taken
        for _ in range(_PENDANT_STEPS):
            new, moving = _pendant_newton(v, t, c, d)
            v = np.where(active, new, v)
            active &= moving
            if not active.any():
                return np.where(d != 0, v, np.maximum(c, t))
    raise RuntimeError("pendant root search stalled")  # pragma: no cover


def _pendant_newton(v, t, c, d):
    """One Newton step for the pendant cubic from ``v``, with ``p(v) / v =
    (v - c)(v - t^2/v) - d``, and whether the iteration goes on: a step down
    by more than 2 ulps of ``v``."""
    q, e = v - t * (t / v), v - c
    step = v * (e * q - d) / (v * (q + 2.0 * e) - d)
    return v - step, step > 2.0 * (np.spacing(v) if isinstance(v, np.ndarray) else math.ulp(v))


class PerturbationKind(enum.Enum):
    VERTEX_CONNECTION = "vertex"
    EDGE_ADDITION = "edge"
    PENDANT_EDGE = "pendant"


class KindSpec(NamedTuple):
    """What sets one perturbation kind apart: the perturbation it takes, and
    its first integral with what hangs off it.  ``isolated`` answers two
    questions.  Only an isolated ``u`` lets the host have no edge while
    ``d > 0``, so it says whether ``lambda_I = 0`` lies in the domain of
    ``Phi(0, .)``; and only that kind's degree keyword, ``g``, counts targets,
    at least 1, where every other keyword is a host degree, at least 0."""

    counts: range  # allowed number of targets
    wording: str  # that rule, in words
    usage: str  # the usage line of the kind's spec text
    isolated: bool  # whether ``u`` must be isolated in the host
    sizes: tuple[int, int]  # a random host's connected part has randint(lo, n_max + offset) vertices
    params: tuple[str, ...]  # degree keywords; the weight d is their sum
    phi: Callable  # Phi(t, y, d)
    rhs: Callable  # rhs(t, y, d): f = -Phi_t / Phi_y, the majorant
    root: Callable  # root(t, c, d): the largest y with Phi(t, y, d) = c
    gap_power: int  # bound - lambda_I ~ d / lambda_I**gap_power
    # The equality path over a delta-regular core on n vertices.  Each degree
    # keyword is one apex's degree, and each apex is joined to the whole core,
    # so the path has len(params) apexes and weight d = len(params) * n.
    cells: tuple[str, ...]  # the JoinSolution entry of each cell, in vector order
    partition: Callable  # partition(n, delta, t): cell sizes, tridiagonal quotient matrix


KIND_SPECS = {  # cells: new vertex, core | both apexes, core | pendant vertex, apex, core
    PerturbationKind.VERTEX_CONNECTION: KindSpec(
        range(1, sys.maxsize), "at least one target", "vertex u v1 [v2 ...]", True, (1, -1),
        ("g",), _phi_vertex, _rhs_vertex, _root_vertex, 1,
        ("alpha", "beta"), lambda n, c, t: ((1, n), ((0, t * n), (t, c))),
    ),
    PerturbationKind.EDGE_ADDITION: KindSpec(
        range(1, 2), "one opposite endpoint", "edge u v", False, (3, 0),
        ("delta_u", "delta_v"), _phi_edge, _rhs_edge, _root_edge, 2,
        ("alpha", "gamma"), lambda n, c, t: ((2, n), ((t, n), (2, c))),
    ),
    PerturbationKind.PENDANT_EDGE: KindSpec(
        range(1), "no targets", "pendant u", False, (2, -1),
        ("delta_u",), _phi_pendant, _rhs_pendant, _root_pendant, 3,
        ("alpha", "beta", "gamma"), lambda n, c, t: ((1, 1, n), ((0, t, 0), (t, 0, n), (0, 1, c))),
    ),
}


def _weight(kind: PerturbationKind, g=0, delta_u=0, delta_v=0) -> tuple[KindSpec, int]:
    """The kind's spec and its weight d, after checking the degrees it uses."""
    spec = KIND_SPECS[kind]
    degrees = {"g": g, "delta_u": delta_u, "delta_v": delta_v}
    return spec, sum(_check_count(name, degrees[name], int(spec.isolated)) for name in spec.params)


def _check_lambda(lambda_i: float) -> None:
    """``ValueError`` unless ``lambda_i`` is finite and, if positive, within
    ``_LAMBDA_RANGE``."""
    lo, hi = _LAMBDA_RANGE
    if not (math.isfinite(lambda_i) and (lambda_i <= 0.0 or lo <= lambda_i <= hi)):
        raise ValueError(
            f"lambda_i must be finite and, if positive, lie in [2^-256, 2^256], got {lambda_i}"
        )


def _check_in(name: str, value: float, lo: float = -_LAMBDA_RANGE[1], hi: float = _LAMBDA_RANGE[1]) -> float:
    """``value``, unless it lies outside ``[lo, hi]``, by default the
    ``[-2^256, 2^256]`` of any other value the maps take; nan lies in none."""
    if not lo <= value <= hi:
        span = "[-2^256, 2^256]" if hi == _LAMBDA_RANGE[1] else f"[{lo:g}, {hi:g}]"
        raise ValueError(f"{name} must lie in {span}, got {value}")
    return value


def _initial_value(kind: PerturbationKind, lambda_i: float, g=0, delta_u=0, delta_v=0) -> tuple:
    """Validate one instance; return its spec, weight d and ``Phi(0, lambda_i)``."""
    spec, d = _weight(kind, g, delta_u, delta_v)
    _check_lambda(lambda_i)
    if lambda_i < 0.0 or (lambda_i == 0.0 and not spec.isolated and d):
        raise ValueError(f"lambda_i must be {'nonnegative' if spec.isolated else 'positive'}")
    if d == 0 and 0.0 < lambda_i <= 1.0:  # no graph has such an index: 0 or at least 1
        raise ValueError(
            f"degenerate zero-degree {kind.value} perturbation needs lambda_i = 0 or > 1"
        )
    return spec, d, _phi_at_zero(spec, lambda_i, d)


def _phi_at_zero(spec: KindSpec, lambda_i, d):
    """``Phi(0, lambda_i)`` of ``spec`` with weight ``d``, on floats, or on
    numpy arrays of instances known to be valid with the same bits per
    entry.  At ``d = 0`` or ``lambda_i = 0``, where ``Phi`` itself meets
    0/0, it is ``lambda_i``: ``Phi(0, .)`` is then the identity."""
    if isinstance(lambda_i, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):  # in the branch not taken
            return np.where((d != 0) & (lambda_i != 0.0), spec.phi(0.0, lambda_i, d), lambda_i)
    return spec.phi(0.0, lambda_i, d) if d and lambda_i else lambda_i


def _bound_and_gap(kind: PerturbationKind, lambda_i: float, g=0, delta_u=0, delta_v=0) -> tuple:
    """The bound ``u(1)`` and the first-order gap ``d / lambda_i**p`` of one
    instance, validated once; the gap is ``None`` when ``lambda_i = 0``."""
    spec, d, c = _initial_value(kind, lambda_i, g, delta_u, delta_v)
    return spec.root(1.0, c, d), d / lambda_i**spec.gap_power if lambda_i > 0.0 else None


class DegreeParams:
    """``params()`` for records with ``kind``, ``g``, ``delta_u`` and ``delta_v``."""

    def params(self) -> dict[str, int]:
        """The degree keywords of this record's kind, with their values."""
        return {name: getattr(self, name) for name in KIND_SPECS[self.kind].params}


# ---------------------------------------------------------------------------
# The majorizing problem: its solution, right-hand side and end value
# ---------------------------------------------------------------------------

def comparison_solution(
    kind: PerturbationKind,
    lambda_i: float,
    t: float,
    *,
    g: int = 0,
    delta_u: int = 0,
    delta_v: int = 0,
) -> float:
    """Exact solution ``u(t)`` of ``y' = f(t, y), y(0) = lambda_I``.

    ``u(t)`` is the largest root of ``Phi(t, y) = Phi(0, lambda_I)``: a
    quadratic for vertex connection and edge addition, a cubic for the
    pendant edge.  At ``t = 0`` every kind returns ``lambda_i`` itself.
    """
    _check_in("t", t, 0.0, 1.0)
    spec, d, c = _initial_value(kind, lambda_i, g, delta_u, delta_v)
    return lambda_i if t == 0.0 else spec.root(t, c, d)


def inequality_rhs(
    kind: PerturbationKind,
    t: float,
    lam: float,
    *,
    g: int = 0,
    delta_u: int = 0,
    delta_v: int = 0,
) -> float:
    """The majorant ``f(t, lambda) = -Phi_t / Phi_y`` with ``lambda' <= f``
    along the path: the kind's closed form, ``spec.rhs``.  At ``d = 0`` Phi is
    the identity and ``f`` is 0.  At ``lambda = 0``, a pole of the vertex and
    pendant Phi, it is the limit, 0, off ``t = 0``.  At ``(0, 0)`` with
    ``d > 0`` ``f`` has no limit, and ``ValueError``, as off ``t`` in
    ``[0, 1]`` and ``lam`` in ``[-2^256, 2^256]``."""
    spec, d = _weight(kind, g, delta_u, delta_v)
    t, lam = _check_in("t", float(t), 0.0, 1.0), _check_in("lambda", float(lam))
    if not d:
        return 0.0
    try:
        return spec.rhs(t, lam, d)
    except ZeroDivisionError:  # lambda = 0; f = 2 d t y / (y^2 + d t^2) for the vertex kind
        if t == 0.0:
            raise ValueError(f"the {kind.value} majorant has no limit at t = {t}, lambda = {lam}") from None
        return 0.0


def _majorant(spec: KindSpec, t, lam, d) -> np.ndarray:
    """:func:`inequality_rhs` of ``spec`` at each point of the broadcast
    arrays ``t``, ``lam > 0`` and ``d``, with its bits."""
    with np.errstate(divide="ignore", invalid="ignore"):  # at d = 0, in the branch not taken
        return np.where(d != 0, spec.rhs(t, lam, d), 0.0)


def perturbation_bound(
    kind: PerturbationKind,
    lambda_i: float,
    *,
    g: int | None = None,
    delta_u: int | None = None,
    delta_v: int | None = None,
) -> float:
    """The bound on the final index: the comparison solution at t = 1."""
    return _bound_and_gap(kind, lambda_i, g, delta_u, delta_v)[0]


def asymptotic_gap(
    kind: PerturbationKind,
    lambda_i: float,
    *,
    g: int | None = None,
    delta_u: int | None = None,
    delta_v: int | None = None,
) -> float:
    """First-order estimate of ``bound - lambda_i`` for large ``lambda_i``:
    ``g/lambda``, ``(du+dv)/lambda^2``, or ``du/lambda^3`` by kind."""
    if lambda_i <= 0.0:
        raise ValueError(f"lambda_i must be positive, got {lambda_i}")
    return _bound_and_gap(kind, lambda_i, g, delta_u, delta_v)[1]


# ---------------------------------------------------------------------------
# The paper's auxiliary maps and the per-kind bounds
# ---------------------------------------------------------------------------

def _slice(name: str, phi: Callable, t: float, xi: float, d, low: float = 0.0) -> float:
    """``phi(t, xi, d)``, a slice of a first integral, for ``xi`` in ``(low, 2^256]``."""
    if _check_in("xi", xi) <= low:
        raise ValueError(f"{name} is defined on ({low:g}, inf), got {xi}")
    return phi(t, xi, d)


def h_fn(xi: float, g: int) -> float:
    """``H(x) = x - g/x``, the vertex first integral at t = 1."""
    return _slice("h_fn", _phi_vertex, 1.0, xi, _check_count("g", g, 1))

def h_inv(y: float, g: int) -> float:
    """Unique positive solution of ``h_fn(x, g) = y``."""
    return _root_vertex(1.0, _check_in("y", y), _check_count("g", g, 1))

def bound_vertex_connection(lambda_i: float, g: int) -> float:
    """Upper bound on the index after joining an isolated vertex to g vertices.

    ``lambda_i = 0`` is allowed (empty host); the bound is then ``sqrt(g)``,
    attained by the star.
    """
    return perturbation_bound(PerturbationKind.VERTEX_CONNECTION, lambda_i, g=g)


def k_fn(xi: float, d: float) -> float:
    """``K(x) = x - d/x``, the edge first integral at t = 0."""
    if d < 0:
        raise ValueError(f"degree sum must be nonnegative, got {d}")
    return _slice("k_fn", _phi_edge, 0.0, xi, d)

def k_inv(y: float, d: float) -> float:
    """Positive root of ``x^2 - y x - d = 0`` (the inverse of k_fn for d > 0)."""
    if d < 0:
        raise ValueError(f"degree sum must be nonnegative, got {d}")
    return _root_edge(0.0, _check_in("y", y), float(d))

def bound_edge_addition(lambda_i: float, delta_u: int, delta_v: int) -> float:
    """Upper bound on the index after adding one edge between nonadjacent
    vertices of degrees ``delta_u`` and ``delta_v``.  The bound depends on the
    degrees only through their sum."""
    return perturbation_bound(
        PerturbationKind.EDGE_ADDITION, lambda_i, delta_u=delta_u, delta_v=delta_v
    )


def l1(xi: float, delta_u: int) -> float:
    """``L1(x) = x - du/x``, the pendant first integral at t = 0."""
    return _slice("l1", _phi_pendant, 0.0, xi, _check_count("delta_u", delta_u, 0))

def l2(xi: float, delta_u: int) -> float:
    """``L2(x) = x - du/(x - 1/x)``, the pendant first integral at t = 1."""
    return _slice("l2", _phi_pendant, 1.0, xi, _check_count("delta_u", delta_u, 0), low=1.0)

def l2_inv(y: float, delta_u: int) -> float:
    """Unique solution in ``(1, inf)`` of ``l2(x, delta_u) = y``: the root
    above 1 of ``v^3 - y v^2 - (delta_u + 1) v + y``, which is at least
    ``sqrt(delta_u + 1)`` when ``y >= 0``.  At ``delta_u = 0``, ``l2`` is the
    identity, so ``y`` must exceed 1."""
    _check_in("y", y)  # the root is about y
    if _check_count("delta_u", delta_u, 0) == 0 and y <= 1.0:
        raise ValueError(f"l2 with delta_u = 0 takes no value {y} in (1, inf)")
    return _root_pendant(1.0, y, delta_u)

def bound_pendant_edge(lambda_i: float, delta_u: int) -> float:
    """Upper bound on the index after attaching a pendant edge at a vertex of
    degree ``delta_u``."""
    return perturbation_bound(PerturbationKind.PENDANT_EDGE, lambda_i, delta_u=delta_u)


# ---------------------------------------------------------------------------
# Multiple perturbations
# ---------------------------------------------------------------------------

class CocliqueBound(NamedTuple):
    asymptotic: float
    iterated: float


def coclique_bound(lambda_i: float, degrees: Sequence[int]) -> CocliqueBound:
    """Bounds on the index after joining all m vertices of a coclique.

    ``asymptotic`` is ``lambda_i + (m-1) * sum(degrees) / lambda_i^2``.
    ``iterated`` applies the single-edge bound once per pair, in lexicographic
    pair order, feeding each bound in as the next initial index and bumping
    both endpoint degrees after every added edge.  Any pair order yields a
    valid upper bound; fixing one makes the value deterministic.
    """
    m = len(degrees)
    if m < 2:
        raise ValueError(f"a coclique join needs at least 2 vertices, got {m}")
    _check_lambda(lambda_i)
    if lambda_i <= 0.0:
        raise ValueError(f"lambda_i must be positive, got {lambda_i}")
    degs = [_check_count("degree", d, 0) for d in degrees]
    asym = lambda_i + (m - 1) * sum(degs) / lambda_i**2
    cur = lambda_i
    for i in range(m - 1):
        for j in range(i + 1, m):
            cur = bound_edge_addition(cur, degs[i], degs[j])
            degs[i] += 1
            degs[j] += 1
    return CocliqueBound(asymptotic=asym, iterated=cur)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundInput(DegreeParams):
    """Numeric payload of one bound evaluation, validated on construction."""

    kind: PerturbationKind
    lambda_i: float
    g: int = 0
    delta_u: int = 0
    delta_v: int = 0

    def __post_init__(self) -> None:
        _initial_value(self.kind, self.lambda_i, self.g, self.delta_u, self.delta_v)

    def bound(self) -> float:
        return perturbation_bound(self.kind, self.lambda_i, **self.params())

    def gap_estimate(self) -> Optional[float]:
        """First-order gap, or ``None`` when lambda_i = 0 (empty host)."""
        if self.lambda_i <= 0.0:
            return None
        return asymptotic_gap(self.kind, self.lambda_i, **self.params())


@dataclass(frozen=True)
class BoundReport:
    """One perturbation instance: exact values, bound, and equality status."""

    lambda_i: float
    lambda_f_exact: Optional[float]
    bound: float
    asymptotic_estimate: Optional[float]
    equality_case: bool
    slack: Optional[float]
