"""Exact spectral computations for dense symmetric matrices.

One production eigensolver, LAPACK's symmetric driver through ``numpy``,
backs every entry point:

* :func:`full_spectrum` -- all eigenvalues, nonincreasing.
* :func:`perron` -- the dominant eigenpair of a connected nonnegative
  symmetric matrix, returned only with a certificate: a unit vector whose
  residual is within tolerance and whose entries are all positive.
  :func:`perron_components` and :func:`spectral_radius` apply it per component.

Public functions validate their input and never mutate it.  Callers that
checked a whole family once (``sample_path``) use the private solves, which
skip the checks, never the certificate.  Oracles live with the tests.
"""

from __future__ import annotations

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
            for j in np.nonzero(m[i])[0].tolist():
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

    LAPACK's top eigenvector made entrywise positive: its absolute value,
    then at most ``n`` steps ``x <- (a + I) x / ||.||``, which keep the
    eigenvector and on a connected matrix reach every entry (LAPACK returns
    Perron entries below roundoff, 1e-144 on a clique with a long path tail,
    with either sign or as zeros).  The value is the Rayleigh quotient.
    ``ValueError`` outside the contract; ``RuntimeError`` unless the residual
    ``||a x - lambda x||`` is within ``tol`` and every entry is positive.
    """
    m = _require_nonnegative(a, tol)
    if not is_connected_matrix(m):
        raise ValueError("matrix is not connected; positivity of the eigenvector fails")
    return _certified_perron(m, tol)


def _require_nonnegative(a, tol: float) -> np.ndarray:
    """``a`` as a symmetric nonnegative array, given a positive ``tol``."""
    m = _require_symmetric(a)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if m.min() < 0:
        raise ValueError("matrix has negative entries")
    return m


def _certified_perron(m: np.ndarray, tol: float) -> PerronPair:
    """:func:`perron` on a matrix known to be connected, nonnegative, symmetric."""
    if len(m) == 1:
        return PerronPair(float(m[0, 0]), np.array([1.0]), 0.0)
    x = np.abs(np.linalg.eigh(m)[1][:, -1])
    for _ in range(len(m)):
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


def _top_eigenvalue(m: np.ndarray) -> float:
    """Largest eigenvalue of a matrix known to be symmetric."""
    return float(np.linalg.eigvalsh(m)[-1])


def _component_pairs(a, tol: float) -> tuple[np.ndarray, list]:
    """The checked matrix and each component's ``(indices, certified pair)``."""
    m = _require_nonnegative(a, tol)
    comps = connected_components(m)
    if len(comps) == 1:
        return m, [(comps[0], _certified_perron(m, tol))]
    return m, [(comp, _certified_perron(m[np.ix_(comp, comp)], tol)) for comp in comps]


def spectral_radius(a, tol: float = 1e-11) -> float:
    """Largest eigenvalue of a nonnegative symmetric matrix, components allowed."""
    return max(pair.value for _, pair in _component_pairs(a, tol)[1])


def perron_components(a, tol: float = 1e-11) -> tuple[float, np.ndarray]:
    """Spectral radius of a possibly disconnected nonnegative symmetric matrix
    (the t = 0 end of a path) and its eigenvector, zero-padded to full size,
    from the lowest-indexed component within ``tol`` of the maximum."""
    m, pairs = _component_pairs(a, tol)
    comp, best = pairs[0]
    for c, pair in pairs[1:]:
        if pair.value > best.value + tol:
            comp, best = c, pair
    vector = np.zeros(len(m))
    vector[comp] = best.vector
    return best.value, vector


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
