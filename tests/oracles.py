"""Pure-Python solvers kept as independent test oracles.

The library computes spectra with LAPACK.  These two solvers share no code
with it and none with each other, so agreement among all three at 1e-9
certifies the library's numbers:

* :func:`power_perron` -- shifted power iteration for the dominant
  eigenpair of a connected nonnegative symmetric matrix.  The +1 shift
  makes the top eigenvalue strictly dominant even for bipartite adjacency
  matrices, whose spectrum contains -lambda_1.
* :func:`jacobi_spectrum` -- Jacobi rotation sweeps in round-robin order
  returning all eigenvalues.  It is slow but has no convergence caveats.

The library solves the majorizing Cauchy problem through a first integral
(a quadratic or cubic root).  :func:`rk4` integrates the same problem
numerically from the right-hand sides in :data:`MAJORANTS`, written out here
from the paper rather than taken from the library.

The library's majorants are closed forms of ``-Phi_t / Phi_y``, and its
pendant root a Newton iteration in floats.  :func:`complex_step_majorant`
differentiates each kind's Phi by complex steps instead, and :data:`MAJORANTS`
evaluated on Fractions gives the exact value; :func:`pendant_root` solves the
cubic by bisection in mpmath, and :func:`larger_quadratic_root` is the
quadratic root on Python's ``math``, the bit reference of its array form.

:func:`random_instance` and :func:`random_connected_graph` draw one
instance at a time from :class:`~specbound.rng.SplitMix64`, one uniform per
pair of each connectivity attempt: the reference for the library's draw,
which computes its words as arrays and tests many attempts per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from specbound.graphs import Graph, Perturbation, PerturbationKind, from_edge_list
from specbound.rng import SplitMix64
from specbound.spectral import _components, _require_symmetric, is_connected_matrix

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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(p, q)`` index pairs of each round of a round-robin tournament
    on ``0 .. n-1``: every pair meets once, the pairs of a round are
    disjoint.  Index 0 stays put and the others rotate; for odd n the
    player paired with the phantom index n sits out."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        ring = [0] + [1 + (i + r) % (m - 1) for i in range(m - 1)]
        pairs = [sorted((ring[i], ring[m - 1 - i])) for i in range(m // 2)]
        pairs = np.array([pq for pq in pairs if pq[1] < n])
        rounds.append((pairs[:, 0], pairs[:, 1]))
    return rounds


def jacobi_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing.

    Jacobi rotations in round-robin order (Brent and Luk's parallel
    ordering): each round zeroes the disjoint pairs ``(p, q)`` of one
    tournament round together, as one orthogonal similarity ``J^T W J``,
    and ``n - 1`` rounds make a sweep.  Sweeps run until the off-diagonal
    Frobenius norm falls below 1e-12; each eigenvalue is then accurate to
    well below 1e-10 at the dense sizes the tests use.
    """
    m = _require_symmetric(a)
    n = m.shape[0]
    if n == 1:
        return np.array([m[0, 0]])
    w = m.copy()
    rounds = _round_robin(n)
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = math.sqrt(2.0 * float((np.triu(w, 1) ** 2).sum()))
        if off <= _JACOBI_OFF_TOL:
            break
        for p, q in rounds:
            apq = w[p, q]
            diff = w[q, q] - w[p, p]
            # tan of the rotation angle: the root of smaller magnitude of
            # t^2 + 2 theta t - 1 = 0, theta = diff / (2 apq), written without
            # theta so that apq = 0 gives t = 0 and no division warning
            den = np.abs(diff) + np.hypot(diff, 2.0 * apq)
            t = np.copysign(1.0, diff) * 2.0 * apq / np.where(den > 0.0, den, 1.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            j = np.eye(n)
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            w = j.T @ w @ j
            w[p, q] = 0.0
            w[q, p] = 0.0
    else:  # pragma: no cover - Jacobi converges long before the cap
        raise RuntimeError(f"Jacobi did not converge within {_MAX_JACOBI_SWEEPS} sweeps")
    vals = np.sort(np.diagonal(w).copy())[::-1]
    return vals


# y' = f(t, y; d) for each perturbation kind, keyed by its spec name; on
# floats, or exactly on Fractions
MAJORANTS = {
    "vertex": lambda t, y, d: 2 * d * t * y / (y * y + d * t * t),
    "edge": lambda t, y, d: d / ((y - t) ** 2 + d),
    "pendant": lambda t, y, d: 2 * d * t * y / ((y * y - t * t) ** 2 + d * (y * y + t * t)),
}


_COMPLEX_STEP = 1e-100


def complex_step_majorant(phi, t: float, lam: float, d: int) -> float:
    """``-Phi_t / Phi_y`` at one point by complex steps ``Im Phi(x + ih) / h``
    on Python's ``complex`` (Squire and Trapp, SIAM Review 40, 1998)."""
    phi_t = phi(complex(t, _COMPLEX_STEP), lam, d).imag
    phi_y = phi(t, complex(lam, _COMPLEX_STEP), d).imag
    return -phi_t / phi_y


def pendant_root(t: float, c: float, d: int, bits: int = 200):
    """The largest root of ``(v - c)(v^2 - t^2) - d v``, to ``bits`` bits, as
    an mpmath number: bisection on ``[m, m + sqrt(d) + 1]``, ``m = max(c, t)``,
    where the cubic is ``-d m <= 0`` at the left end and positive at the
    right, with each factor evaluated apart so that no root cancels."""
    with mpmath.workprec(bits + 20):
        t, c, d = mpmath.mpf(t), mpmath.mpf(c), mpmath.mpf(d)
        lo = max(c, t)
        hi = lo + mpmath.sqrt(d) + 1
        while hi - lo > abs(hi) * mpmath.mpf(2) ** -bits:
            mid = (lo + hi) / 2
            if (mid - c) * (mid - t) * (mid + t) - d * mid > 0:
                hi = mid
            else:
                lo = mid
        return +hi


def larger_quadratic_root(y: float, c: float) -> float:
    """Positive root of ``x^2 - y x - c = 0`` for c >= 0, cancellation-free."""
    disc = math.sqrt(y * y + 4.0 * c)
    if y >= 0.0:
        return 0.5 * (y + disc)
    return (2.0 * c) / (disc - y)


def pendant_normalization_constant(n: int, delta: int, t: float, lam: float) -> float:
    """The paper's closed-form squared norm of the pendant equality path's
    eigenvector direction ``(t (lam - delta), lam (lam - delta), lam)``:
    ``2 (n+t^2) lam^2 - delta (n+t+3t^2) lam + 2 t^2 delta^2``.  It equals
    the direct squared norm at t = 1 (and for delta = 0), not in between."""
    return (
        2.0 * (n + t * t) * lam * lam
        - delta * (n + t + 3.0 * t * t) * lam
        + 2.0 * t * t * delta * delta
    )


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


def lollipop_graph(k: int, tail: int) -> Graph:
    """K_k with a path of ``tail`` extra vertices hanging off vertex k-1: its
    Perron entries fall below roundoff along the tail."""
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    path = [(v, v + 1) for v in range(k - 1, k + tail - 1)]
    return from_edge_list(k + tail, clique + path)


def random_connected_graph(rng: SplitMix64, n: int, p: float, max_attempts: int = 10_000) -> Graph:
    """Erdos-Renyi G(n, p), rejection-sampled until connected."""
    return Graph(n, _connected_edges(rng, n, p, max_attempts))


def _connected_edges(rng: SplitMix64, n: int, p: float, max_attempts: int = 10_000) -> frozenset:
    """The edges of :func:`random_connected_graph`: each attempt draws its
    pairs ``(i, j)``, ``i < j``, in order, sets them in its bit rows, and
    is kept once :func:`~specbound.spectral._components` finds one
    component."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for _ in range(max_attempts):
        rows, pairs = [0] * n, []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                    pairs.append((i, j))
        if len(_components(rows)) == 1:
            return frozenset(pairs)
    raise RuntimeError(f"no connected G({n}, {p}) found in {max_attempts} attempts")


def random_instance(
    rng: SplitMix64, kind: PerturbationKind, n_max: int, p: float
) -> tuple[Graph, Perturbation]:
    """A random host graph plus an applicable perturbation of the given kind.

    The final graph never exceeds ``n_max`` vertices and is always connected:
    vertex connections start from a connected component plus one isolated
    vertex, the other kinds start from a connected host.
    """
    if kind is PerturbationKind.VERTEX_CONNECTION:
        base_n = rng.randint(1, n_max - 1)
        host = Graph(base_n + 1, _connected_edges(rng, base_n, p))  # vertex base_n is isolated
        targets = rng.nonempty_subset(base_n)
        return host, Perturbation.vertex_connection(base_n, targets)
    if kind is PerturbationKind.EDGE_ADDITION:
        while True:
            n = rng.randint(3, n_max)
            host = random_connected_graph(rng, n, p)
            missing = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if not host.has_edge(i, j)
            ]
            if missing:
                u, v = rng.choice(missing)
                return host, Perturbation.edge_addition(u, v)
    if kind is PerturbationKind.PENDANT_EDGE:
        n = rng.randint(2, n_max - 1)
        host = random_connected_graph(rng, n, p)
        return host, Perturbation.pendant_edge(rng.randint(0, n - 1))
    raise ValueError(f"unknown perturbation kind {kind}")  # pragma: no cover
