"""Continuous-perturbation paths and their differential certificates.

The perturbation is run as a linear matrix path ``A(t) = A_initial + t * P``
for ``t`` in [0, 1].  Along it the spectral radius ``lambda(t)`` is
continuously differentiable with ``lambda'(t) = <P x(t), x(t)>``.  The one
instance of :mod:`specbound.graphs` that the bound report reads too holds
the check that ``A(1)`` is connected and every solved point of the path: the
``t = 0`` pair, a certified pair and its ``<P x, x>`` on each grid point and
the central differences of the top eigenvalue, all from one
eigendecomposition of ``A_I`` (secular roots, and vectors in its eigenbasis,
with a shifted solve only for a pair that fails its certificate there).
This module turns them into samples, checks the derivative identity,
evaluates the per-kind differential inequality ``lambda' <= f(t, lambda)``,
and compares ``lambda(t)`` against the exact solution ``u(t)`` of the
majorizing Cauchy problem ``y' = f(t, y), y(0) = lambda_I`` (which dominates
the path and is attained exactly in the equality cases).  ``f`` and ``u`` both come from the
kind's first integral in :mod:`specbound.bounds`, set up once per path.

The equality cases are cones and double cones over regular graphs, where the
path is ``u(t)`` itself; :func:`closed_form_join` gives its eigenpairs from
the first integral and the quotient of the equitable partition that
:data:`~specbound.bounds.KIND_SPECS` holds for each kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import KIND_SPECS, DegreeParams, _check_count, _comparison, _majorant
from .graphs import Graph, Perturbation, PerturbationKind, _Instance, _instances

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
    (:class:`DisconnectedError`); ``steps`` must be an integer >= 2.  The
    points past ``t = 0`` and the finite-difference points are roots of the
    path's secular equation in the eigendecomposition of ``A_I``, and each
    grid point's vector comes from the same eigendecomposition (a shifted
    solve only where that vector fails its certificate), skipping the input
    checks made once; every grid pair still gets its certificate.
    """
    steps = _check_count("steps", steps, 2)
    return _sample(_instances([(graph, pert)], tol, steps, final=False)[0])


def _sample(inst: _Instance) -> PerturbationPath:
    """:func:`sample_path` of an instance solved on its grid."""
    lhs, rhs = inst.lhs.tolist() + [None], inst.forms[:-1].tolist() + [None]  # none at t = 1
    samples = [PathSample(0.0, inst.lambda_i, inst.vector, None, None)]
    samples += map(PathSample, inst.grid.tolist(), inst.values.tolist(), inst.vectors, lhs, rhs)
    return PerturbationPath(kind=inst.pert.kind, samples=tuple(samples), **inst.params)


# ---------------------------------------------------------------------------
# Differential inequality and comparison dominance
# ---------------------------------------------------------------------------

def check_differential_inequality(path: PerturbationPath) -> float:
    """Max over interior samples of ``<P x, x> - f(t, lambda)``.

    Nonpositive up to solver noise; values above ~1e-6 indicate a failure.
    """
    f = _majorant(path.kind, **path.params())
    worst = -math.inf
    for s in path.samples:
        if s.derivative_rhs is None:
            continue
        worst = max(worst, s.derivative_rhs - f(s.t, s.value))
    if worst == -math.inf:
        raise ValueError("path has no interior samples")
    return worst


def comparison_curve(path: PerturbationPath) -> list[float]:
    """``u(t_k)`` on the path's grid."""
    u = _comparison(path.kind, path.lambda_i, **path.params())
    return [u(s.t) for s in path.samples]


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
    defect of the quotient eigensystem rows and of the normalization.
    """

    value: float
    residual: float
    alpha: float
    beta: Optional[float] = None
    gamma: Optional[float] = None


def _check_join_args(n: int, delta: int, t: float) -> None:
    if _check_count("delta", delta, 0) >= _check_count("n", n, 1):
        raise ValueError(f"delta must lie in [0, {n - 1}], got {delta}")
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")


def closed_form_join(kind: PerturbationKind, n: int, delta: int, t: float) -> JoinSolution:
    """Perron eigenpair at ``t`` of the equality path of ``kind`` over a
    delta-regular core on n vertices: the comparison solution, root of
    ``Phi(t, y; k n) = delta``, and the quotient matrix's Perron vector, each
    row of ``B v = lambda v`` giving the next entry; the last row certifies."""
    _check_join_args(n, delta, t)
    spec = KIND_SPECS[kind]
    lam = spec.root(t, delta, len(spec.params) * n)
    sizes, b = map(np.array, spec.partition(n, delta, t))
    v = [1.0]
    for i in range(len(b) - 1):
        below = b[i, i - 1] * v[i - 1] if i else 0.0
        v.append(((lam - b[i, i]) * v[i] - below) / b[i, i + 1])
    vec = np.array(v) / math.sqrt(sizes @ np.square(v))
    residual = max(np.abs(b @ vec - lam * vec).max(), abs(sizes @ np.square(vec) - 1.0))
    if residual > _RESIDUAL_TOL:  # pragma: no cover - root solved to 1e-12
        raise RuntimeError(f"{kind.value} join eigenpair residual {residual:.3e}")
    return JoinSolution(lam, float(residual), **dict(zip(spec.cells, vec.tolist())))


def closed_form_vertex_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path joining a new vertex to all n vertices of a
    delta-regular graph: eigenvector ``(alpha, beta, ..., beta)``."""
    return closed_form_join(PerturbationKind.VERTEX_CONNECTION, n, delta, t)


def closed_form_edge_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path adding the edge between the two apexes of a
    double cone over a delta-regular graph: eigenvector
    ``(alpha, alpha, gamma, ..., gamma)``."""
    return closed_form_join(PerturbationKind.EDGE_ADDITION, n, delta, t)


def closed_form_pendant_join(n: int, delta: int, t: float) -> JoinSolution:
    """Eigenpair of the path attaching a pendant edge at the apex of a cone
    over a delta-regular graph: eigenvector ``(alpha, beta, gamma, ..., gamma)``
    with the pendant vertex first, the apex second."""
    return closed_form_join(PerturbationKind.PENDANT_EDGE, n, delta, t)


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


_PATH_COLUMNS = ("t", "lambda", "derivative_lhs", "derivative_rhs", "comparison_u", "margin")


def _path_rows(path: PerturbationPath) -> list[dict]:
    """One row per sample, its values keyed by ``_PATH_COLUMNS`` in order."""
    rows = (
        (s.t, s.value, s.derivative_lhs, s.derivative_rhs, u, u - s.value)
        for s, u in zip(path.samples, comparison_curve(path))
    )
    return [dict(zip(_PATH_COLUMNS, row)) for row in rows]


def format_path_dump(path: PerturbationPath) -> str:
    """Tab-separated rows ``t lambda derivative_lhs derivative_rhs
    comparison_u margin`` at 12 significant digits (endpoint derivatives are
    ``nan``), preceded by a ``#`` header line."""
    lines = ["#" + "\t".join(_PATH_COLUMNS)]
    lines += ["\t".join(map(format_number, row.values())) for row in _path_rows(path)]
    return "\n".join(lines) + "\n"
