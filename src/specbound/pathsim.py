"""Continuous-perturbation paths and their differential certificates.

The perturbation is run as a linear matrix path ``A(t) = A_initial + t * P``
for ``t`` in [0, 1].  Along the path the spectral radius ``lambda(t)`` is
continuously differentiable with ``lambda'(t) = <P x(t), x(t)>``; this module
samples the path, checks the derivative identity against central finite
differences, evaluates the per-kind differential inequality
``lambda' <= f(t, lambda)``, and compares ``lambda(t)`` against the exact
solution of the majorizing Cauchy problem ``y' = f(t, y), y(0) = lambda_I``
(which dominates the path and is attained exactly in the equality cases).

The equality cases are cones and double cones over regular graphs; their
eigenpairs along the path have closed forms that are evaluated and residual
checked by the ``closed_form_*`` functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .graphs import (
    Graph,
    Perturbation,
    PerturbationKind,
    bound_parameters,
    perturbation_matrix,
    validate_perturbation,
)
from .spectral import full_spectrum, is_connected_matrix, perron, perron_components

_RESIDUAL_TOL = 1e-10
_DEFAULT_ODE_STEPS = 10_000


@dataclass(frozen=True)
class PathSample:
    """One grid point: parameter, spectral radius, eigenvector, derivatives.

    ``derivative_lhs`` is the central finite difference of ``lambda(t)``,
    ``derivative_rhs`` the quadratic form ``<P x, x>``; both are ``None`` at
    the path endpoints.
    """

    t: float
    value: float
    vector: np.ndarray
    derivative_lhs: Optional[float]
    derivative_rhs: Optional[float]

    def __post_init__(self) -> None:
        self.vector.setflags(write=False)


@dataclass(frozen=True)
class PerturbationPath:
    """Samples of one continuous perturbation, with its kind and degree data."""

    kind: PerturbationKind
    samples: tuple[PathSample, ...]
    g: int = 0
    delta_u: int = 0
    delta_v: int = 0

    @property
    def lambda_i(self) -> float:
        return self.samples[0].value

    @property
    def lambda_f(self) -> float:
        return self.samples[-1].value

    def params(self) -> dict[str, int]:
        if self.kind is PerturbationKind.VERTEX_CONNECTION:
            return {"g": self.g}
        if self.kind is PerturbationKind.EDGE_ADDITION:
            return {"delta_u": self.delta_u, "delta_v": self.delta_v}
        return {"delta_u": self.delta_u}


def sample_path(
    graph: Graph,
    pert: Perturbation,
    steps: int = 32,
    tol: float = 1e-11,
) -> PerturbationPath:
    """Sample the path on the uniform grid ``t_k = k/steps``, k = 0..steps.

    Each grid point gets its own certified Perron pair; a disconnected
    ``t = 0`` endpoint takes the best component's pair.  Interior points get
    the quadratic-form derivative and a central difference of eigenvalues,
    with step ``min(1e-5, 1/(4 steps))``.  The final graph must be connected.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    validate_perturbation(graph, pert)
    p_mat = perturbation_matrix(graph, pert)
    dim = p_mat.shape[0]
    a_initial = np.zeros((dim, dim))
    a_initial[: graph.n, : graph.n] = graph.adjacency()
    if not is_connected_matrix(a_initial + p_mat):
        raise ValueError("the perturbed graph must be connected")

    h = min(1e-5, 1.0 / (4.0 * steps))
    samples = []
    for k in range(steps + 1):
        t = k / steps
        a_t = a_initial + t * p_mat
        if k == 0 and not is_connected_matrix(a_t):
            value, vector = perron_components(a_t, tol=tol)
        else:
            pair = perron(a_t, tol=tol)
            value, vector = pair.value, np.array(pair.vector)
        lhs = rhs = None
        if 0 < k < steps:
            lam_plus = float(full_spectrum(a_initial + (t + h) * p_mat)[0])
            lam_minus = float(full_spectrum(a_initial + (t - h) * p_mat)[0])
            lhs = (lam_plus - lam_minus) / (2.0 * h)
            rhs = float(vector @ (p_mat @ vector))
        samples.append(
            PathSample(t=t, value=value, vector=vector, derivative_lhs=lhs, derivative_rhs=rhs)
        )
    return PerturbationPath(kind=pert.kind, samples=tuple(samples), **bound_parameters(graph, pert))


# ---------------------------------------------------------------------------
# Differential inequality
# ---------------------------------------------------------------------------

def inequality_rhs(
    kind: PerturbationKind,
    t: float,
    lam: float,
    *,
    g: int = 0,
    delta_u: int = 0,
    delta_v: int = 0,
) -> float:
    """The majorant ``f(t, lambda)`` with ``lambda' <= f`` along the path."""
    if kind is PerturbationKind.VERTEX_CONNECTION:
        return 2.0 * g * t * lam / (lam * lam + g * t * t)
    if kind is PerturbationKind.EDGE_ADDITION:
        d = delta_u + delta_v
        return d / ((lam - t) ** 2 + d)
    if kind is PerturbationKind.PENDANT_EDGE:
        d = delta_u
        return 2.0 * lam * t * d / ((lam * lam - t * t) ** 2 + d * (lam * lam + t * t))
    raise ValueError(f"unknown perturbation kind {kind}")  # pragma: no cover


def check_differential_inequality(path: PerturbationPath) -> float:
    """Max over interior samples of ``<P x, x> - f(t, lambda)``.

    Nonpositive up to solver noise; values above ~1e-6 indicate a failure.
    """
    worst = -math.inf
    for s in path.samples:
        if s.derivative_rhs is None:
            continue
        worst = max(worst, s.derivative_rhs - inequality_rhs(path.kind, s.t, s.value, **path.params()))
    if worst == -math.inf:
        raise ValueError("path has no interior samples")
    return worst


# ---------------------------------------------------------------------------
# Comparison (majorizing) solution
# ---------------------------------------------------------------------------

def _pendant_rk4(lam_i: float, d: int, t0: float, t1: float, steps: int) -> float:
    """Integrate y' = 2 d t y / ((y^2-t^2)^2 + d (y^2+t^2)) from t0 to t1."""

    def f(t: float, y: float) -> float:
        return 2.0 * d * t * y / ((y * y - t * t) ** 2 + d * (y * y + t * t))

    h = (t1 - t0) / steps
    t, y = t0, lam_i
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += h
    return y


def comparison_solution(
    kind: PerturbationKind,
    lambda_i: float,
    t: float,
    *,
    g: int = 0,
    delta_u: int = 0,
    delta_v: int = 0,
    ode_steps: int = _DEFAULT_ODE_STEPS,
) -> float:
    """Exact solution ``u(t)`` of ``y' = f(t, y), y(0) = lambda_I``.

    Vertex connection and edge addition have closed forms (a quadratic in
    each case); the pendant-edge problem is integrated by fixed-step RK4,
    whose value at t = 1 matches the cubic-root inverse to well below 1e-6.
    At ``t = 0`` every kind returns ``lambda_i`` itself.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if kind is PerturbationKind.VERTEX_CONNECTION:
        if lambda_i < 0.0:
            raise ValueError("lambda_i must be nonnegative")
    elif lambda_i <= 0.0:
        raise ValueError("lambda_i must be positive")
    if t == 0.0:
        return lambda_i
    if kind is PerturbationKind.VERTEX_CONNECTION:
        return 0.5 * (lambda_i + math.sqrt(lambda_i * lambda_i + 4.0 * g * t * t))
    if kind is PerturbationKind.EDGE_ADDITION:
        d = delta_u + delta_v
        c = lambda_i - d / lambda_i
        # Larger root of y^2 - (t + c) y + (t c - d) = 0, stable form.
        s = t + c
        q = t * c - d
        disc = math.sqrt(max(s * s - 4.0 * q, 0.0))
        return 0.5 * (s + disc) if s >= 0.0 else (2.0 * q) / (s - disc)
    if kind is PerturbationKind.PENDANT_EDGE:
        return _pendant_rk4(lambda_i, delta_u, 0.0, t, ode_steps)
    raise ValueError(f"unknown perturbation kind {kind}")  # pragma: no cover


def comparison_curve(path: PerturbationPath, ode_steps: int = _DEFAULT_ODE_STEPS) -> list[float]:
    """``u(t_k)`` on the path's grid; the pendant ODE is integrated once,
    accumulating segment by segment."""
    ts = [s.t for s in path.samples]
    lam_i = path.lambda_i
    if path.kind is not PerturbationKind.PENDANT_EDGE:
        return [comparison_solution(path.kind, lam_i, t, **path.params()) for t in ts]
    d = path.delta_u
    values = [lam_i]
    y = lam_i
    for t_prev, t_next in zip(ts, ts[1:]):
        seg_steps = max(1, round(ode_steps * (t_next - t_prev)))
        y = _pendant_rk4(y, d, t_prev, t_next, seg_steps)
        values.append(y)
    return values


@dataclass(frozen=True)
class ComparisonCheck:
    """Margins ``u(t_k) - lambda(t_k)`` and the dominance verdict."""

    ok: bool
    margins: tuple[float, ...]
    max_violation: float


def check_comparison(path: PerturbationPath, tolerance: float = 1e-9) -> ComparisonCheck:
    """Verify ``lambda(t_k) <= u(t_k) + tolerance`` at every grid point."""
    curve = comparison_curve(path)
    margins = tuple(u - s.value for u, s in zip(curve, path.samples))
    worst = max(-m for m in margins)
    return ComparisonCheck(ok=worst <= tolerance, margins=margins, max_violation=worst)


# ---------------------------------------------------------------------------
# Closed-form eigenpairs of the equality-case paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoinSolution:
    """Closed-form Perron eigenpair of an equality-case path at one t.

    ``alpha`` is the entry on the perturbing vertex (pendant vertex for the
    pendant case), ``beta`` the second distinguished entry where one exists,
    ``gamma`` the common entry on the regular block.  ``residual`` is the max
    defect of the reduced eigensystem rows.  For the pendant case,
    ``normalization_gap`` reports how far the closed-form normalization
    constant sits from the directly computed squared norm (they agree at
    t = 1 but not at interior t, so the eigenvector here is renormalized
    independently).
    """

    value: float
    alpha: float
    beta: Optional[float]
    gamma: Optional[float]
    residual: float
    normalization_gap: Optional[float] = None


def _check_join_args(n: int, delta: int, t: float) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= delta <= n - 1:
        raise ValueError(f"delta must lie in [0, {n - 1}], got {delta}")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")


def closed_form_vertex_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path joining a new vertex to all n vertices of a
    delta-regular graph: eigenvector ``(alpha, beta, ..., beta)``."""
    _check_join_args(n, delta, t)
    lam = 0.5 * delta + math.sqrt(0.25 * delta * delta + n * t * t)
    alpha = math.sqrt((lam - delta) / (2.0 * lam - delta))
    beta = math.sqrt(lam / (n * (2.0 * lam - delta)))
    residual = max(
        abs(t * n * beta - lam * alpha),
        abs(t * alpha + delta * beta - lam * beta),
        abs(alpha * alpha + n * beta * beta - 1.0),
    )
    if residual > _RESIDUAL_TOL:  # pragma: no cover - algebraic identity
        raise RuntimeError(f"vertex join eigenpair residual {residual:.3e}")
    return JoinSolution(value=lam, alpha=alpha, beta=beta, gamma=None, residual=residual)


def closed_form_edge_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path adding the edge between the two apexes of a
    double cone over a delta-regular graph: eigenvector
    ``(alpha, alpha, gamma, ..., gamma)``."""
    _check_join_args(n, delta, t)
    disc = math.sqrt((delta - t) ** 2 + 8.0 * n)
    lam = 0.5 * (t + delta + disc)
    alpha = 0.5 * math.sqrt(1.0 - (delta - t) / disc)
    gamma = math.sqrt(1.0 + (delta - t) / disc) / math.sqrt(2.0 * n)
    residual = max(
        abs(t * alpha + n * gamma - lam * alpha),
        abs(2.0 * alpha + delta * gamma - lam * gamma),
        abs(2.0 * alpha * alpha + n * gamma * gamma - 1.0),
    )
    if residual > _RESIDUAL_TOL:  # pragma: no cover - algebraic identity
        raise RuntimeError(f"edge join eigenpair residual {residual:.3e}")
    return JoinSolution(value=lam, alpha=alpha, beta=None, gamma=gamma, residual=residual)


def _max_real_cubic_root(c2: float, c1: float, c0: float) -> float:
    """Largest real root of ``x^3 + c2 x^2 + c1 x + c0``, Newton-polished."""
    roots = np.roots([1.0, c2, c1, c0])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-8]
    x = max(real)
    for _ in range(3):
        fx = ((x + c2) * x + c1) * x + c0
        dfx = (3.0 * x + 2.0 * c2) * x + c1
        if dfx == 0.0:
            break
        x -= fx / dfx
    return x


def closed_form_pendant_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path attaching a pendant edge at the apex of a cone
    over a delta-regular graph: eigenvector ``(alpha, beta, gamma, ..., gamma)``
    with the pendant vertex first, the apex second.

    The spectral radius is the largest root of
    ``x^3 - delta x^2 - (n + t^2) x + delta t^2``.  The eigenvector direction
    ``(t (lam - delta), lam (lam - delta), lam)`` is normalized directly;
    ``normalization_gap`` records the defect of the closed-form constant
    ``2 (n+t^2) lam^2 - delta (n+t+3t^2) lam + 2 t^2 delta^2`` against the
    direct squared norm (nonzero off t = 1).
    """
    _check_join_args(n, delta, t)
    lam = _max_real_cubic_root(-float(delta), -(n + t * t), delta * t * t)
    raw = np.array([t * (lam - delta), lam * (lam - delta), lam])
    norm_sq = raw[0] ** 2 + raw[1] ** 2 + n * raw[2] ** 2
    alpha, beta, gamma = (raw / math.sqrt(norm_sq)).tolist()
    residual = max(
        abs(t * beta - lam * alpha),
        abs(t * alpha + n * gamma - lam * beta),
        abs(beta + delta * gamma - lam * gamma),
        abs(alpha * alpha + beta * beta + n * gamma * gamma - 1.0),
    )
    if residual > _RESIDUAL_TOL:  # pragma: no cover - polished root
        raise RuntimeError(f"pendant join eigenpair residual {residual:.3e}")
    closed_form_norm = (
        2.0 * (n + t * t) * lam * lam
        - delta * (n + t + 3.0 * t * t) * lam
        + 2.0 * t * t * delta * delta
    )
    return JoinSolution(
        value=lam,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        residual=residual,
        normalization_gap=abs(closed_form_norm - norm_sq),
    )


# ---------------------------------------------------------------------------
# Dump format
# ---------------------------------------------------------------------------

def format_path_dump(path: PerturbationPath) -> str:
    """Tab-separated rows ``t lambda derivative_lhs derivative_rhs
    comparison_u margin`` at 12 significant digits (endpoint derivatives are
    ``nan``), preceded by a ``#`` header line."""

    def fmt(x: Optional[float]) -> str:
        return "nan" if x is None else f"{x:.12g}"

    curve = comparison_curve(path)
    lines = ["#t\tlambda\tderivative_lhs\tderivative_rhs\tcomparison_u\tmargin"]
    for s, u in zip(path.samples, curve):
        lines.append(
            "\t".join(
                (fmt(s.t), fmt(s.value), fmt(s.derivative_lhs), fmt(s.derivative_rhs), fmt(u), fmt(u - s.value))
            )
        )
    return "\n".join(lines) + "\n"
