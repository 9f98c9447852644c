"""Pure-Python solvers kept as independent test oracles.

The library computes spectra with LAPACK.  These two solvers share no code
with it and none with each other, so agreement among all three at 1e-9
certifies the library's numbers:

* :func:`power_perron` -- shifted power iteration for the dominant
  eigenpair of a connected nonnegative symmetric matrix.  The +1 shift
  makes the top eigenvalue strictly dominant even for bipartite adjacency
  matrices, whose spectrum contains -lambda_1.
* :func:`jacobi_spectrum` -- a cyclic Jacobi rotation sweep returning all
  eigenvalues.  It is slow but has no convergence caveats.

The library solves the majorizing Cauchy problem through a first integral
(a quadratic or cubic root).  :func:`rk4` integrates the same problem
numerically from the right-hand sides in :data:`MAJORANTS`, written out here
from the paper rather than taken from the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from specbound.spectral import _require_symmetric, is_connected_matrix

_JACOBI_OFF_TOL = 1e-12
_MAX_JACOBI_SWEEPS = 100


@dataclass(frozen=True)
class PowerPair:
    """Dominant eigenpair with its residual and iteration count."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def power_perron(a, tol: float = 1e-11, x0=None, maxiter: int | None = None) -> PowerPair:
    """Dominant eigenpair of a connected nonnegative symmetric matrix.

    Runs power iteration on ``a + I`` starting from the all-ones direction
    (or ``x0`` when warm-starting along a continuation path), and stops when
    the residual ``||a x - lambda x||`` drops below ``tol`` and the iterate
    is entrywise positive.  Raises ``ValueError`` for matrices outside the
    contract and ``RuntimeError`` when the iteration cap is hit.
    """
    m = _require_symmetric(a)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if m.min() < 0:
        raise ValueError("matrix has negative entries")
    n = m.shape[0]
    if n == 1:
        return PowerPair(float(m[0, 0]), np.array([1.0]), 0.0, 0)
    if not is_connected_matrix(m):
        raise ValueError("matrix is not connected; positivity of the eigenvector fails")

    shifted = m + np.eye(n)
    if x0 is not None:
        x = np.abs(np.asarray(x0, dtype=float))
        nrm = np.linalg.norm(x)
        x = x / nrm if nrm > 0 else np.full(n, 1.0 / math.sqrt(n))
    else:
        x = np.full(n, 1.0 / math.sqrt(n))
    if maxiter is None:
        maxiter = max(1000, int(200 * n * math.log(max(n, 2))))

    res = math.inf
    for it in range(maxiter + 1):
        y = shifted @ x
        lam = float(x @ y) - 1.0  # Rayleigh quotient of the unshifted matrix
        res = float(np.linalg.norm(y - (lam + 1.0) * x))
        if res <= tol and x.min() > 0.0:
            return PowerPair(lam, x, res, it)
        x = y / float(np.linalg.norm(y))
    raise RuntimeError(
        f"power iteration did not reach tolerance {tol} in {maxiter} iterations "
        f"(last residual {res:.3e})"
    )


def jacobi_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing.

    Cyclic Jacobi rotations run until the off-diagonal Frobenius norm falls
    below 1e-12; each eigenvalue is then accurate to well below 1e-10 at the
    dense sizes the tests use.
    """
    m = _require_symmetric(a)
    n = m.shape[0]
    if n == 1:
        return np.array([m[0, 0]])
    w = m.copy()
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = math.sqrt(2.0 * float((np.triu(w, 1) ** 2).sum()))
        if off <= _JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if apq == 0.0:
                    continue
                theta = (w[q, q] - w[p, p]) / (2.0 * apq)
                if abs(theta) > 1e12:
                    t = 0.0 if math.isinf(theta) else 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = w[:, p].copy()
                colq = w[:, q].copy()
                w[:, p] = c * colp - s * colq
                w[:, q] = s * colp + c * colq
                rowp = w[p, :].copy()
                rowq = w[q, :].copy()
                w[p, :] = c * rowp - s * rowq
                w[q, :] = s * rowp + c * rowq
                w[p, q] = 0.0
                w[q, p] = 0.0
    else:  # pragma: no cover - cyclic Jacobi converges long before the cap
        raise RuntimeError(f"Jacobi did not converge within {_MAX_JACOBI_SWEEPS} sweeps")
    vals = np.sort(np.diagonal(w).copy())[::-1]
    return vals


# y' = f(t, y; d) for each perturbation kind, keyed by its spec name
MAJORANTS = {
    "vertex": lambda t, y, d: 2.0 * d * t * y / (y * y + d * t * t),
    "edge": lambda t, y, d: d / ((y - t) ** 2 + d),
    "pendant": lambda t, y, d: 2.0 * d * t * y / ((y * y - t * t) ** 2 + d * (y * y + t * t)),
}


def rk4(f, y0: float, t0: float, t1: float, steps: int) -> float:
    """Integrate ``y' = f(t, y)`` from ``(t0, y0)`` to ``t1`` by classical
    fixed-step fourth-order Runge-Kutta."""
    h = (t1 - t0) / steps
    t, y = t0, y0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += h
    return y
