"""Continuous-perturbation paths and their differential certificates.

The perturbation is run as a linear matrix path ``A(t) = A_initial + t * P``
for ``t`` in [0, 1].  Along the path the spectral radius ``lambda(t)`` is
continuously differentiable with ``lambda'(t) = <P x(t), x(t)>``; this module
samples the path, checks the derivative identity against central finite
differences, evaluates the per-kind differential inequality
``lambda' <= f(t, lambda)``, and compares ``lambda(t)`` against the exact
solution ``u(t)`` of the majorizing Cauchy problem
``y' = f(t, y), y(0) = lambda_I`` (which dominates the path and is attained
exactly in the equality cases).  ``f`` and ``u`` both come from the kind's
first integral in :mod:`specbound.bounds`.

The equality cases are cones and double cones over regular graphs; their
eigenpairs along the path have closed forms that are evaluated and residual
checked by the ``closed_form_*`` functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import KIND_SPECS, DegreeParams, comparison_solution, inequality_rhs
from .graphs import (
    DisconnectedError,
    Graph,
    Perturbation,
    PerturbationKind,
    bound_parameters,
    perturbation_matrix,
)
from .spectral import _certified_perron, _top_eigenvalue, is_connected_matrix, perron_components

_RESIDUAL_TOL = 1e-10


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
class PerturbationPath(DegreeParams):
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
    with step ``min(1e-5, 1/(4 steps))``.  The final graph must be connected
    (:class:`DisconnectedError`).  Solves past ``t = 0`` skip the input
    checks, made once on ``A_I + P``.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    p_mat = perturbation_matrix(graph, pert)
    dim = p_mat.shape[0]
    a_initial = np.zeros((dim, dim))
    a_initial[: graph.n, : graph.n] = graph.adjacency()
    if not is_connected_matrix(a_initial + p_mat):
        raise DisconnectedError("the perturbed graph is disconnected")

    h = min(1e-5, 1.0 / (4.0 * steps))
    samples = []
    for k in range(steps + 1):
        t = k / steps
        a_t = a_initial + t * p_mat
        if k == 0:
            value, vector = perron_components(a_t, tol=tol)
        else:
            pair = _certified_perron(a_t, tol)
            value, vector = pair.value, pair.vector
        lhs = rhs = None
        if 0 < k < steps:
            lam_plus = _top_eigenvalue(a_initial + (t + h) * p_mat)
            lam_minus = _top_eigenvalue(a_initial + (t - h) * p_mat)
            lhs = (lam_plus - lam_minus) / (2.0 * h)
            rhs = float(vector @ (p_mat @ vector))
        samples.append(
            PathSample(t=t, value=value, vector=vector, derivative_lhs=lhs, derivative_rhs=rhs)
        )
    return PerturbationPath(kind=pert.kind, samples=tuple(samples), **bound_parameters(graph, pert))


# ---------------------------------------------------------------------------
# Differential inequality and comparison dominance
# ---------------------------------------------------------------------------

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


def comparison_curve(path: PerturbationPath) -> list[float]:
    """``u(t_k)`` on the path's grid."""
    return [comparison_solution(path.kind, path.lambda_i, s.t, **path.params()) for s in path.samples]


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


def closed_form_pendant_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path attaching a pendant edge at the apex of a cone
    over a delta-regular graph: eigenvector ``(alpha, beta, gamma, ..., gamma)``
    with the pendant vertex first, the apex second.

    The spectral radius is the largest root of
    ``x^3 - delta x^2 - (n + t^2) x + delta t^2``: the pendant first
    integral's cubic with ``c = delta`` and ``d = n``.  The eigenvector direction
    ``(t (lam - delta), lam (lam - delta), lam)`` is normalized directly;
    ``normalization_gap`` records the defect of the closed-form constant
    ``2 (n+t^2) lam^2 - delta (n+t+3t^2) lam + 2 t^2 delta^2`` against the
    direct squared norm (nonzero off t = 1).
    """
    _check_join_args(n, delta, t)
    lam = KIND_SPECS[PerturbationKind.PENDANT_EDGE].root(t, delta, n)
    raw = np.array([t * (lam - delta), lam * (lam - delta), lam])
    norm_sq = raw[0] ** 2 + raw[1] ** 2 + n * raw[2] ** 2
    alpha, beta, gamma = (raw / math.sqrt(norm_sq)).tolist()
    residual = max(
        abs(t * beta - lam * alpha),
        abs(t * alpha + n * gamma - lam * beta),
        abs(beta + delta * gamma - lam * gamma),
        abs(alpha * alpha + beta * beta + n * gamma * gamma - 1.0),
    )
    if residual > _RESIDUAL_TOL:  # pragma: no cover - root solved to 1e-12
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

def format_number(value) -> str:
    """Text form of one output value: floats at 12 significant digits,
    ``None`` as ``nan``, booleans as ``true``/``false``."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def format_path_dump(path: PerturbationPath) -> str:
    """Tab-separated rows ``t lambda derivative_lhs derivative_rhs
    comparison_u margin`` at 12 significant digits (endpoint derivatives are
    ``nan``), preceded by a ``#`` header line."""
    curve = comparison_curve(path)
    lines = ["#t\tlambda\tderivative_lhs\tderivative_rhs\tcomparison_u\tmargin"]
    for s, u in zip(path.samples, curve):
        row = (s.t, s.value, s.derivative_lhs, s.derivative_rhs, u, u - s.value)
        lines.append("\t".join(map(format_number, row)))
    return "\n".join(lines) + "\n"
