"""Exact spectral computations for dense symmetric matrices.

One production eigensolver, LAPACK's symmetric driver through ``numpy``,
backs both entry points:

* :func:`full_spectrum` -- all eigenvalues, nonincreasing.
* :func:`perron` -- the dominant eigenpair of a connected nonnegative
  symmetric matrix, returned only with a certificate: a unit vector whose
  residual is within tolerance and whose entries are all positive.

Independent pure-Python solvers (cyclic Jacobi, shifted power iteration)
live with the tests as oracles for these.  Matrices are plain ``numpy``
arrays; inputs are validated, never mutated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SYM_ATOL = 1e-12


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must have at least one row")
    return m


def _require_symmetric(a) -> np.ndarray:
    m = _as_matrix(a)
    if not np.all(np.abs(m - m.T) <= _SYM_ATOL):
        raise ValueError("matrix is not symmetric")
    return m


def connected_components(a) -> list[list[int]]:
    """Index sets of the components of the nonzero off-diagonal pattern."""
    m = _as_matrix(a)
    n = m.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in np.nonzero(m[i])[0]:
                j = int(j)
                if j != i and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def is_connected_matrix(a) -> bool:
    return len(connected_components(a)) == 1


@dataclass(frozen=True)
class PerronPair:
    """Spectral radius and its unit positive eigenvector, with its residual."""

    value: float
    vector: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        self.vector.setflags(write=False)


def perron(a, tol: float = 1e-11) -> PerronPair:
    """Dominant eigenpair of a connected nonnegative symmetric matrix.

    Takes the top eigenvector from LAPACK and makes it entrywise positive:
    its absolute value, then steps ``x <- (a + I) x / ||.||`` until no entry
    is zero.  Perron entries far from the bulk of the graph can lie below
    roundoff (1e-144 on a clique with a long path tail), so LAPACK returns
    them with either sign or as zeros; on a connected matrix at most ``n``
    steps reach every entry, and each step keeps the eigenvector.  The
    value is the Rayleigh quotient of the result.  Raises ``ValueError`` for
    matrices outside the contract and ``RuntimeError`` when the residual
    ``||a x - lambda x||`` exceeds ``tol`` or an entry stays nonpositive.
    """
    m = _require_symmetric(a)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if m.min() < 0:
        raise ValueError("matrix has negative entries")
    n = m.shape[0]
    if n == 1:
        return PerronPair(float(m[0, 0]), np.array([1.0]), 0.0)
    if not is_connected_matrix(m):
        raise ValueError("matrix is not connected; positivity of the eigenvector fails")

    x = np.abs(np.linalg.eigh(m)[1][:, -1])
    for _ in range(n):
        if x.min() > 0.0:
            break
        y = m @ x + x
        x = y / float(np.linalg.norm(y))
    y = m @ x
    lam = float(x @ y)
    res = float(np.linalg.norm(y - lam * x))
    if res <= tol and x.min() > 0.0:
        return PerronPair(lam, x, res)
    raise RuntimeError(
        f"Perron pair not certified: residual {res:.3e} (tolerance {tol}), "
        f"min entry {x.min():.3e}"
    )


def spectral_radius(a, tol: float = 1e-11) -> float:
    """Largest eigenvalue of a nonnegative symmetric matrix, components allowed."""
    m = _require_symmetric(a)
    comps = connected_components(m)
    if len(comps) == 1:
        return perron(m, tol=tol).value
    best = -math.inf
    for comp in comps:
        sub = m[np.ix_(comp, comp)]
        best = max(best, perron(sub, tol=tol).value)
    return best


def perron_components(a, tol: float = 1e-11) -> tuple[float, np.ndarray]:
    """Spectral radius of a possibly disconnected nonnegative symmetric matrix,
    with the maximizing component's eigenvector zero-padded to full size.

    Used for the t=0 endpoint of perturbation paths, where the matrix may be
    disconnected and the limit eigenvector is supported on one component.
    Ties, values within ``tol`` of each other, pick the lowest-indexed
    component.
    """
    m = _require_symmetric(a)
    comps = connected_components(m)
    if len(comps) == 1:
        pair = perron(m, tol=tol)
        return pair.value, np.array(pair.vector)
    best_val = -math.inf
    best_vec = None
    for comp in comps:
        sub = m[np.ix_(comp, comp)]
        pair = perron(sub, tol=tol)
        if pair.value > best_val + tol:
            best_val = pair.value
            vec = np.zeros(m.shape[0])
            vec[comp] = pair.vector
            best_vec = vec
    return best_val, best_vec


def full_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing."""
    return np.linalg.eigvalsh(_require_symmetric(a))[::-1]


def rayleigh_quotient(a, x) -> float:
    """<a x, x> / <x, x>; rejects the zero vector."""
    m = _require_symmetric(a)
    v = np.asarray(x, dtype=float)
    denom = float(v @ v)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(v @ (m @ v)) / denom


def lambda_derivative(p, x) -> float:
    """Derivative of the spectral radius along a linear matrix path.

    For a unit eigenvector ``x`` of the current matrix and a symmetric
    direction ``p``, the derivative equals ``sum_ij p_ij x_i x_j``.
    ``x`` must be normalized to within 1e-9.
    """
    m = _require_symmetric(p)
    v = np.asarray(x, dtype=float)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("eigenvector must have unit norm")
    return float(v @ (m @ v))
