"""Exact spectral computations for dense symmetric matrices.

One production eigensolver, LAPACK's symmetric driver through ``numpy``,
backs every entry point:

* :func:`full_spectrum` -- all eigenvalues, nonincreasing.
* :func:`perron` -- the dominant eigenpair of a connected nonnegative
  symmetric matrix, returned only with a certificate: a unit vector whose
  residual is within tolerance and whose entries are all positive.
  :func:`perron_components` applies it per component, and
  :func:`spectral_radius` is its value.

:func:`connected_components` splits a matrix's nonzero pattern into
components with the library's one graph search, over the pattern's rows as
bit sets (:func:`_row_bits`).  Instances are set up from such rows:
``graphs._solve_stacks``, the one set-up, unpacks them into the 0/1 ``A_I``
stacks the path solve takes (:func:`_unpack_rows`).

Public functions validate their input and never mutate it.  The private
solves take a stack ``(k, n, n)`` of matrices and make one LAPACK call per
stack: the certified Perron solve checks the residual and the positivity of
every matrix in it, with stacked ``matmul`` that runs the same BLAS kernels
per matrix as a single solve, so a matrix gets the same bits alone or in a
stack.  :func:`perron` and :func:`perron_components` solve one matrix as
the start of a path without points.

:func:`_solve_paths` solves the paths ``A(t) = a + t P``, for one instance
or a block of ``verify`` trials, skipping the input checks made once, never
the certificate.  ``P = W S W^T`` has rank 2 and is carried only as
``W = [e_u, s]``.  The solve owns a path's start, the best certified pair of
``a``'s components, solved in one stack per component size
(:func:`_by_size`).  That eigensolve alone lays out the secular terms, a
row per vertex in path order (:func:`_solve_blocks`), and every later point
reads them as they are (:func:`_grid_points`): its value and slope
``lambda'(t)`` come from a 2x2 secular equation, and its vector is the
closed form of that rank-2 update in the same eigenbasis, one pass of
points at a time.  A pair that fails its certificate there, with entries
below rounding, takes two steps of shifted inverse iteration instead, one
point at a time (:func:`_shifted_pairs`).  Only those points are built as
matrices (:func:`_point`).  A path's final index ``lambda_F`` is its
certified root at ``t = 1``, the last grid point.  A solve without points,
``bound``'s, builds ``A(1)`` instead: each caller's stack of ``a`` copied
once with ``P``'s entries set, for one ``eigvalsh`` per size
(:func:`_final_tops`).  Oracles live with the tests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple, Optional

import numpy as np

_SYM_ATOL = 1e-12
_ROOT_ENTRIES = 1 << 12  # terms per pass of the grid points: 32 KiB per float64 array
_NEWTON_STEPS = 100  # a root takes about 7; bisection alone would take 60
_SHIFT_ULPS = 8  # per matrix row: the shift above a root, in ulps of the root
PERRON_TOL = 1e-11  # the default residual bound of a Perron certificate


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must have at least one row")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _require_symmetric(a) -> np.ndarray:
    m = _as_matrix(a)
    if not np.all(np.abs(m - m.T) <= _SYM_ATOL):
        raise ValueError("matrix is not symmetric")
    return m


def connected_components(a) -> list[list[int]]:
    """Index sets of the components of the nonzero off-diagonal pattern."""
    return _components(_row_bits(_as_matrix(a)))


def _row_bits(m: np.ndarray) -> list[int]:
    """Each row of ``m``'s nonzero pattern as a Python integer whose bit ``j``
    marks entry ``j``: one ``packbits`` pass, cheaper than setting the bits
    edge by edge once a graph has a few hundred edges."""
    rows = np.packbits(m != 0, axis=1, bitorder="little").tobytes()
    width = len(rows) // len(m)
    return [int.from_bytes(rows[i : i + width], "little") for i in range(0, len(rows), width)]


def _unpack_rows(rows: list[int], n: int) -> np.ndarray:
    """The 0/1 pattern, ``n`` columns wide, of the bit rows ``rows``: the
    inverse of :func:`_row_bits`, as ``uint8``."""
    width = -(-n // 8)
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return bits.reshape(len(rows), 8 * width)[:, :n]


def _components(neighbors: list[int]) -> list[list[int]]:
    """Components of the graph in which bit ``j`` of ``neighbors[i]`` marks
    the edge ``(i, j)``: each sorted, in order of their least vertex.  One
    depth-first search over Python integers used as bit sets, so a vertex
    costs a few integer operations whatever its degree."""
    seen, comps = 0, []
    for start in range(len(neighbors)):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        comp, stack = [start], [start]
        while stack:
            new = neighbors[stack.pop()] & ~seen
            seen |= new
            while new:
                j = (new & -new).bit_length() - 1
                comp.append(j)
                stack.append(j)
                new &= new - 1
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


def perron(a, tol: float = PERRON_TOL) -> PerronPair:
    """Dominant eigenpair of a connected nonnegative symmetric matrix.

    LAPACK's top eigenvector made entrywise positive: its absolute value,
    then at most ``n`` steps ``x <- (a + I) x / ||.||``, which keep the
    eigenvector and on a connected matrix reach every entry (LAPACK returns
    Perron entries below roundoff, 1e-144 on a clique with a long path tail,
    with either sign or as zeros).  The value is the Rayleigh quotient.
    ``ValueError`` outside the contract; ``RuntimeError`` unless the residual
    ``||a x - lambda x||`` is within ``tol`` and every entry is positive.
    """
    m = _require_nonnegative(a)
    if not is_connected_matrix(m):
        raise ValueError("matrix is not connected; positivity of the eigenvector fails")
    solved = _solve_paths([(m, None, [list(range(len(m)))])], (), tol)
    return PerronPair(float(solved.lambda_i[0]), solved.start(0), float(solved.residuals[0]))


def _as_float(value) -> float:
    """A real number, not a ``bool``, as a Python float, and an integer
    beyond the float range as an infinity of its sign; anything else as
    nan.  Converted first, so no comparison rounds it or warns of a cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_nonnegative(a) -> np.ndarray:
    """``a`` as a symmetric nonnegative array."""
    m = _require_symmetric(a)
    if m.min() < 0:
        raise ValueError("matrix has negative entries")
    return m


def _perron_stack(stack: np.ndarray) -> tuple:
    """``eigh`` of a stack ``(k, n, n)`` of matrices known to be connected,
    nonnegative and symmetric, in one LAPACK call: the eigenvalues
    (ascending) and eigenvectors, then the Perron values, vectors as rows and
    residuals of :func:`perron`, uncertified.  The positivity fix-up runs only
    on the rows that need it."""
    if stack.shape[-1] == 1:
        values, k = stack[:, 0, 0].copy(), len(stack)
        return values[:, None], np.ones((k, 1, 1)), values, np.ones((k, 1)), np.zeros(k)
    mu, q = np.linalg.eigh(stack)
    x = np.abs(q[:, :, -1])
    for i in np.flatnonzero(~(x.min(axis=1) > 0.0)):
        m, v = stack[i], x[i]
        for _ in range(len(m)):
            if v.min() > 0.0:
                break
            y = m @ v + v
            v = y / float(np.linalg.norm(y))
        x[i] = v
    y = stack @ x[:, :, None]
    lam = (x[:, None, :] @ y)[:, 0, 0]
    r = y[:, :, 0] - lam[:, None] * x
    return mu, q, lam, x, np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _certified(residuals, least, tol: float):
    """Whether each pair passes its certificate: its residual is within
    ``tol`` and the least entry of its vector is positive."""
    return (residuals <= tol) & (least > 0.0)


def _certify(residuals: np.ndarray, x: np.ndarray, tol: float) -> None:
    """``RuntimeError`` naming the first pair whose residual exceeds ``tol``
    or whose vector (a row of ``x``) has an entry that is not positive."""
    certified = _certified(residuals, x.min(axis=1), tol)
    if not certified.all():
        i = int(np.argmin(certified))
        raise RuntimeError(
            f"Perron pair not certified: residual {float(residuals[i]):.3e} (tolerance {tol}), "
            f"min entry {float(x[i].min()):.3e}"
        )


def spectral_radius(a, tol: float = PERRON_TOL) -> float:
    """Largest eigenvalue of a nonnegative symmetric matrix, components allowed."""
    return perron_components(a, tol)[0]


def perron_components(a, tol: float = PERRON_TOL) -> tuple[float, np.ndarray]:
    """Spectral radius of a possibly disconnected nonnegative symmetric matrix
    (the t = 0 end of a path), the largest of its components' certified
    values, and an eigenvector zero-padded to full size, from the
    lowest-indexed component within ``tol`` of that maximum."""
    m = _require_nonnegative(a)
    solved = _solve_paths([(m, None, connected_components(m))], (), tol)
    return float(solved.lambda_i[0]), solved.start(0)


class _Paths(NamedTuple):
    """The paths that :func:`_solve_paths` solved, one entry or row per path
    in the order of its ``paths``.  Path ``k`` starts from its component
    ``parts[best[k]]``, its vertices and their Perron vector, zero-padded
    only when asked for (:meth:`start`).  Its grid vectors are the rows of a
    ``(points, n)`` block of ``vectors``, the blocks of all paths end to end
    (:meth:`grid`): ``bounds`` holds each path's first vertex in a layout of
    every path's vertices, then the end."""

    lambda_i: np.ndarray  # the start values
    residuals: np.ndarray  # of the start pairs
    best: list[int]
    parts: list[tuple[list[int], np.ndarray]]  # every component of every path
    roots: np.ndarray  # (paths, points)
    slopes: np.ndarray  # (paths, points): lambda'(t)
    vectors: np.ndarray  # the certified grid vectors
    lambda_f: Optional[np.ndarray]  # the top eigenvalue of ``a + P``, if solved
    bounds: list[int]

    def start(self, k: int) -> np.ndarray:
        vertices, x = self.parts[self.best[k]]
        vector = np.zeros(self.bounds[k + 1] - self.bounds[k])
        vector[vertices] = x
        return vector

    def grid(self, k: int) -> np.ndarray:
        lo, hi, points = self.bounds[k], self.bounds[k + 1], self.roots.shape[1]
        return self.vectors[lo * points : hi * points].reshape(points, hi - lo)


def _solve_paths(paths, ts, tol: float, finals=()) -> _Paths:
    """Solve the paths ``a + t P`` of ``paths``, triples ``(a, w, comps)`` of
    a nonnegative ``a`` split into the components ``comps``, and the columns
    ``w = [e_u, s]`` of ``P = w S w^T``, anchor and target indicator, with
    ``S = [[0, 1], [1, 0]]``, such that ``a + t P`` is connected for
    ``t > 0``.  For each path (:class:`_Paths`): its start, the value and
    zero-padded vector of :func:`perron_components` of ``a`` with the
    residual of that component's pair; the top eigenvalues at the points of
    ``ts``, their certified vectors and their slopes ``lambda'(t)``; and the
    top eigenvalue ``lambda_F`` of ``a + P``.  With points, it is the root at
    the last, ``t = 1``; without, LAPACK's for the paths of ``finals``, else
    ``None``: triples ``(group, a_stack, w_stack)`` of the paths, by index
    or slice, whose ``a`` and ``w`` are the rows of those stacks.  Without
    points or ``finals``, ``w`` may be ``None``.

    One ``eigh`` call per component size, whose eigendecompositions, laid
    out by :func:`_solve_blocks` as one row per vertex in path order, give
    every point's value, slope and vector
    (:func:`_grid_points`, then :func:`_shifted_pairs` for the points that
    fail there), and without points one ``eigvalsh`` per stack of
    ``finals``: on one small matrix LAPACK is cheaper than any Python-level
    root search.  A component that is a run of consecutive vertices, as
    every drawn one is, is a slice of ``a``.  The starts are one reduce over
    the component values, and the grid vectors reach their paths' rows in
    one scatter per pass.  ``RuntimeError`` names the first matrix, a
    component or a point of ``ts`` in the order of ``paths``, whose pair
    fails its certificate; ``ValueError`` unless ``tol`` is a finite
    positive real number: at 0, below or at nan no certificate passes, and
    at ``inf`` every one does."""
    if not 0.0 < _as_float(tol) < math.inf:
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    ts = np.asarray(ts, dtype=float)
    blocks, comps_of, counts = [], [], []
    for a, w, comps in paths:
        comps_of += comps
        counts.append(len(comps))
        if len(comps) == 1:
            blocks.append((a, w))  # ``w`` is read only with points
            continue
        for c in comps:
            if c[-1] - c[0] == len(c) - 1:  # a run of consecutive vertices: a view
                c = slice(c[0], c[-1] + 1)
                m = a[c, c]
            else:  # ``take`` copies a block in a third of the time of ``np.ix_``
                m = a.take(c, 0).take(c, 1)
            blocks.append((m, w[c] if len(ts) else None))
    values, residuals, xs, certified, layout = _solve_blocks(blocks, tol, keep=len(ts) > 0)
    # Each path's largest component value; the lowest-indexed component within tol of it starts.
    first_comp = list(accumulate(counts, initial=0))[:-1]
    lambda_i = np.maximum.reduceat(values, first_comp)
    near = values >= np.repeat(lambda_i - tol, counts)
    best = np.minimum.reduceat(np.where(near, np.arange(len(blocks)), len(blocks)), first_comp).tolist()
    roots = slopes = res = np.empty((len(paths), 0))
    vectors, retry = np.empty(0), []
    if len(ts):
        roots, slopes, (vectors, res), passed = _grid_points(paths, *layout, ts, tol)
        retry = list(zip(*(index.tolist() for index in np.nonzero(~passed))))
    lambda_f = roots[:, -1] if len(ts) else _final_tops(finals, len(paths)) if finals else None
    bounds = list(accumulate((len(a) for a, _, _ in paths), initial=0))
    solved = _Paths(lambda_i, residuals[best], best, list(zip(comps_of, xs)), roots, slopes, vectors, lambda_f, bounds)
    if retry:  # only the points whose eigenbasis pair fails its certificate
        at_points = ((_point(*paths[k][:2], ts[i]), roots[k, i]) for k, i in retry)
        fixes, ok = _shifted_pairs(at_points, tol)
        certified &= ok
        for (k, i), (x, r) in zip(retry, fixes):
            solved.grid(k)[i], res[k, i] = x, r
    if not certified:  # find the first failure in order
        for k, first in enumerate(first_comp):
            for c in range(first, first + counts[k]):
                _certify(residuals[c : c + 1], xs[c][None], tol)
            _certify(res[k], solved.grid(k), tol)
    return solved


def _point(a: np.ndarray, w: np.ndarray, t) -> np.ndarray:
    """The matrix ``a + t P`` of a path, ``P = w S w^T`` with ``w = [e_u, s]``:
    ``e_u s^T`` plus its transpose, a new array."""
    p = w[:, :1] * w[:, 1]
    return a + t * (p + p.T)


def _by_size(mats):
    """Each size of the square matrices ``mats``, in order of first
    appearance, as the indices of its members in ``mats`` and one stack of
    those matrices."""
    members: dict[int, list[int]] = {}
    for k, m in enumerate(mats):
        members.setdefault(len(m), []).append(k)
    for group in members.values():
        yield group, np.array([mats[k] for k in group])  # np.stack's copy, without its Python step per matrix


def _final_tops(finals, count: int) -> np.ndarray:
    """LAPACK's top eigenvalue of ``a + P`` for each of ``count`` paths, one
    ``eigvalsh`` call per triple ``(group, a_stack, w_stack)`` of
    ``finals`` (:func:`_solve_paths`), nan for a path in none.  A copy of
    ``a_stack`` takes ``1.0`` at the entries ``(u, s)`` and ``(s, u)`` of
    every ``P``, with no outer product: ``P`` is 0/1 and those entries of
    ``a`` are 0, so the copy has the bits of ``a + 1.0 * (p + p.T)``."""
    tops = np.empty(count)
    tops.fill(np.nan)
    for group, a_stack, w_stack in finals:
        stack = a_stack.copy()
        at, s = np.nonzero(w_stack[:, :, 1])  # each target s of each path
        u = w_stack[:, :, 0].argmax(axis=1)[at]
        stack[at, u, s] = stack[at, s, u] = 1.0
        tops[group] = np.linalg.eigvalsh(stack)[:, -1]
    return tops


def _solve_blocks(blocks, tol: float, keep: bool = False) -> tuple:
    """:func:`_perron_stack` of the matrix of each pair ``(m, w)`` of
    ``blocks``, one LAPACK call per size: per matrix its Perron value,
    residual and vector; whether every pair passes its certificate at
    ``tol``; and with ``keep`` (else ``None``, and no eigenvector stack
    outlives its size) the one layout of the secular terms, a row per row of
    every matrix in the order of ``blocks``: the eigenvalues ``mu``, the
    rows of ``b = Q^T w``, one product per size, and of ``w``, then per
    size its rows, its eigenvectors ``Q`` and its stack."""
    values, residuals, vectors = ([None] * len(blocks) for _ in range(3))
    certified, bases = True, []
    if keep:  # a row per row of every matrix, in the order of ``blocks``
        sizes = [len(m) for m, _ in blocks]
        offsets, total = np.cumsum(sizes) - sizes, sum(sizes)
        mu, b, w = np.empty(total), np.empty((total, 2)), np.empty((total, 2))
    for group, stack in _by_size([m for m, _ in blocks]):
        eig, q, lam, x, res = _perron_stack(stack)
        certified &= bool(_certified(res, x.min(axis=1), tol).all())
        for k, value, row, r in zip(group, lam.tolist(), x, res.tolist()):
            values[k], vectors[k], residuals[k] = value, row, r
        if keep:  # one product Q^T W per size
            rows = (offsets[group][:, None] + np.arange(stack.shape[-1])).ravel()
            ws = np.array([blocks[k][1] for k in group])
            mu[rows], w[rows] = eig.ravel(), ws.reshape(-1, 2)
            b[rows] = (q.transpose(0, 2, 1) @ ws).reshape(-1, 2)
            bases.append((rows, q, stack))
    values, residuals = np.array(values), np.array(residuals)
    return values, residuals, vectors, certified, (mu, b, w, bases) if keep else None


def _grid_points(paths, mu, b, w, bases, ts: np.ndarray, tol: float) -> tuple:
    """The top eigenpair of ``A(t) = A_I + t W S W^T`` at each ``t > 0`` of
    ``ts`` for each path ``(a, w, comps)`` of :func:`_solve_paths`, given
    the terms of :func:`_solve_blocks`, ``len(a)`` rows per path in path
    order, then component order: ``A_I``'s eigenvalues ``mu``, ``b = Q^T W``,
    ``W`` and ``bases``: one row per path of roots and of slopes
    ``lambda'(t)``, the unit vectors, each path's as the rows of a
    ``(points, n)`` block in vertex order, the blocks end to end, with one
    row per path of their residuals, and one row per path of whether each
    pair passes its certificate at ``tol``.

    Above ``mu_top = max(mu)``, ``lambda`` is an eigenvalue of ``A(t)`` iff
    ``det(I - t S M(lambda)) = 0`` with ``M(lambda) = sum_i b_i b_i^T /
    (lambda - mu_i)`` (Golub 1973; Bunch, Nielsen and Sorensen 1978), and the
    top one is the root of ``t theta(lambda) = 1``, ``theta = M_us +
    sqrt(M_uu M_ss)`` decreasing.  Each point runs bracketed Newton on
    ``1/theta = t`` in ``delta = lambda - mu_top > 0``, so no evaluation
    meets a pole, from the Ritz value of ``A(t)`` on ``span{x, P x}``, ``x``
    the top eigenvector of ``A_I``, and stops once its raw step is within 2
    ulps of ``lambda``.  By ``t theta(lambda(t)) = 1``, ``lambda' = 1 / (t^2
    (-theta'))`` at the final ``delta`` (the rounded root loses its low
    bits), or the limit 0 within 2 ulps of ``mu_top``, as on a pendant tail.

    At a root, ``(lambda I - A_I) x = t W S W^T x``, so ``x = Q D B c`` with
    ``D = diag(1/(lambda - mu))``, ``B = Q^T W`` and ``c`` in the null space
    of ``I - t S M(lambda)``: ``c`` is orthogonal to the larger row of that
    2x2 matrix.  At the root both of its entries are nonnegative and
    ``(lambda I - A_I)^{-1}`` is entrywise nonnegative, so ``x`` needs no
    sign.  One ``q @ Y`` per component size builds every point's vector, and
    one ``matmul`` per size gives the residual ``A_I x + t W S W^T x -
    lambda x`` from the components' matrices, never from ``A(t)``.  A zero or
    non-finite ``lambda - mu`` gives a pair that fails its certificate, not
    an error.

    The points of all paths go in passes of about ``_ROOT_ENTRIES`` terms
    (:func:`_passes`): each pass solves its roots, then builds their
    vectors, so the memory beyond the arrays returned does not grow with
    ``ts``.  A point's sums run over its own path's terms only, so its bits
    do not depend on the other points or on the passes."""
    sizes = np.array([len(a) for a, _, _ in paths])  # a path's components split its vertices
    first, owner = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(paths)), sizes)
    vertex = np.fromiter(chain.from_iterable(c for _, _, comps in paths for c in comps), np.intp, len(mu))
    at, stride = first[owner] * len(ts) + vertex, sizes[owner]  # a term's entry in its block at point 0, and per point
    top = np.maximum.reduceat(mu, first)
    d = top[owner] - mu  # >= 0: lambda - mu_i = delta + d_i
    coef = np.stack([b[:, 0] * b[:, 0], b[:, 1] * b[:, 1], b[:, 0] * b[:, 1]])
    gram = np.add.reduceat(coef, first, axis=1)  # W^T W: 1, |s|^2 and 0 up to rounding
    inner = np.add.reduceat(coef * mu, first, axis=1)  # W^T A_I W
    # The 2x2 Ritz matrix of A(t) - mu_top on span{x, y}, y = P x - <P x, x> x
    # normalized: [[t a, t beta], [t beta, gamma + t c]].
    i_top = np.maximum.reduceat(np.where(d == 0.0, np.arange(len(mu)), -1), first)
    bu, bs = b[i_top, 0], b[i_top, 1]
    a = 2.0 * bu * bs  # <P x, x>
    px2 = bs * bs * gram[0] + 2.0 * bu * bs * gram[2] + bu * bu * gram[1]  # |P x|^2
    pap = bs * bs * inner[0] + 2.0 * bu * bs * inner[2] + bu * bu * inner[1]  # <A_I P x, P x>
    p1, p2 = bs * gram[0] + bu * gram[2], bs * gram[2] + bu * gram[1]  # W^T P x
    beta2 = np.maximum(px2 - a * a, 0.0)
    scale = np.divide(1.0, beta2, out=np.zeros_like(beta2), where=beta2 > 0.0)
    gamma = (pap - a * a * top) * scale - top
    c = (2.0 * p1 * p2 - 2.0 * a * px2 + a**3) * scale  # <P y, y>
    weyl = np.sqrt(gram[1])  # ||P|| = |s|: delta <= t |s|
    start = (top, a, beta2, gamma, c, weyl, first)

    def per_stack(mats, v, idx):  # the rows ``idx`` of ``v``, one matrix of ``mats`` per component
        return (mats @ v[idx].reshape(mats.shape[0], mats.shape[1], -1)).reshape(len(idx), -1)

    vectors = np.empty(len(mu) * len(ts))
    roots, slopes, res = (np.empty((len(paths), len(ts))) for _ in range(3))
    passed = np.empty(roots.shape, dtype=bool)
    for j, k in _passes(len(ts), len(mu)):
        t, path = ts[j:k], np.repeat(np.arange(len(paths)), k - j)
        delta, slope = _secular_newton(
            np.tile(t, len(paths)), *(v[path] for v in start), sizes[path], coef, d
        )
        root = roots[:, j:k] = top[:, None] + delta.reshape(len(paths), -1)
        slopes[:, j:k] = slope.reshape(len(paths), -1)
        with np.errstate(all="ignore"):
            r = 1.0 / (root[owner] - mu[:, None])
            m_uu, m_ss, m_us = (np.add.reduceat(row[:, None] * r, first) for row in coef)
            diagonal = 1.0 - t * m_us
            upper = m_ss >= m_uu  # the larger row: (1 - t M_us, -t M_ss) or (-t M_uu, 1 - t M_us)
            c_u, c_s = np.where(upper, t * m_ss, diagonal), np.where(upper, diagonal, t * m_uu)
            y = (b[:, :1] * c_u[owner] + b[:, 1:] * c_s[owner]) * r
            x, ax = np.empty_like(y), np.empty_like(y)
            for idx, q, _ in bases:
                x[idx] = per_stack(q, y, idx)
            x /= np.sqrt(np.add.reduceat(x * x, first))[owner]
            for idx, _, stack in bases:
                ax[idx] = per_stack(stack, x, idx)
            z_u, z_s = (np.add.reduceat(w[:, i : i + 1] * x, first) for i in (0, 1))
            r = ax + t * (w[:, :1] * z_s[owner] + w[:, 1:] * z_u[owner]) - root[owner] * x
            res[:, j:k] = np.sqrt(np.add.reduceat(r * r, first))
            passed[:, j:k] = _certified(res[:, j:k], np.minimum.reduceat(x, first), tol)
        vectors[at[:, None] + stride[:, None] * np.arange(j, k)] = x
    return roots, slopes, (vectors, res), passed


def _passes(points: int, terms: int):
    """Column ranges ``(j, k)`` that split ``points`` points of ``terms``
    terms each into passes of about ``_ROOT_ENTRIES`` entries, one pass if
    they fit.  Passes start at multiples of 8 points and the last takes the
    remainder, so none is narrower than 8 points unless all are: a
    narrower BLAS product rounded some of its columns differently.  Measured
    with OpenBLAS, the vectors then have the bits of a single pass when
    ``points`` is a multiple of 8 or the single pass is a small product;
    otherwise the last ``points mod 8`` may move by an ulp, because the
    kernel OpenBLAS takes for a product's last partial panel depends on the
    product's size."""
    width = max(8, _ROOT_ENTRIES // terms // 8 * 8)
    starts = list(range(0, points, width))
    if len(starts) > 1 and points - starts[-1] < width:
        starts.pop()
    return zip(starts, starts[1:] + [points])


def _secular_newton(t, top, a, beta2, gamma, c, weyl, first, npts, coef, d) -> tuple:
    """``lambda - mu_top`` and ``lambda'`` at each point of :func:`_grid_points`,
    given per point its ``t``, its path's Ritz matrix, Weyl bound and first
    term, and its count of terms; ``coef`` and ``d`` hold every path's terms."""
    half = 0.5 * (t * (a - c) - gamma)  # half the diagonal difference of the Ritz matrix
    hyp = np.hypot(half, t * np.sqrt(beta2))
    lift = np.where(half > 0.0, t * t * beta2 / np.where(half > 0.0, half + hyp, 1.0), hyp - half)
    lo, hi = np.zeros_like(t), 2.0 * t * weyl
    delta = np.clip(t * a + lift, np.spacing(top + t * weyl), hi)
    seg = np.cumsum(npts) - npts
    src = np.repeat(first - seg, npts)
    src += np.arange(len(src))
    coef, d = coef[:, src], d[src]
    del src
    r, term, m, dm = np.empty(len(d)), np.empty(coef.shape), np.empty((3, len(t))), np.empty((3, len(t)))  # reused
    active = np.ones(len(t), dtype=bool)
    for _ in range(_NEWTON_STEPS + 1):  # the last pass only evaluates at the final delta
        np.add(np.repeat(delta, npts), d, out=r)
        np.reciprocal(r, out=r)
        np.add.reduceat(np.multiply(coef, r, out=term), seg, axis=1, out=m)  # M(lambda)
        np.multiply(r, r, out=r)
        np.add.reduceat(np.multiply(coef, r, out=term), seg, axis=1, out=dm)  # -M'(lambda)
        root = np.sqrt(m[0] * m[1])
        theta = m[2] + root
        slope = dm[2] + (dm[0] * m[1] + m[0] * dm[1]) / (2.0 * root)  # -theta'
        if not active.any():
            return delta, np.where(delta <= 2.0 * np.spacing(top), 0.0, 1.0 / (t * t * slope))
        below = t * theta > 1.0
        lo = np.where(below, delta, lo)
        hi = np.where(below, hi, delta)
        new = delta + theta * (t * theta - 1.0) / slope
        ulps = 2.0 * np.spacing(top + delta)
        # A bracket within 2 ulps ends a point whose root lies at mu_top to rounding.
        done = (np.abs(new - delta) <= ulps) | (hi - lo <= ulps)
        inside = (lo < new) & (new < hi)
        new = np.where(inside, new, np.where(done, delta, 0.5 * (lo + hi)))
        delta = np.where(active, new, delta)
        active &= ~done
    raise RuntimeError("secular root search did not converge")  # pragma: no cover


def _shifted_pairs(points, tol: float) -> tuple[list[tuple], bool]:
    """For each point ``(a, value)`` of ``points``, a matrix with its top
    eigenvalue, the unit vector and residual of two steps
    ``(s I - a) x <- x`` from ``x = 1``, ``s`` a few ulps above the value,
    one point at a time (``a`` is overwritten); and whether every pair
    passes its certificate at ``tol``.  :func:`_solve_paths` sends it only
    the grid points whose eigenbasis pair fails: those whose vector has
    entries below rounding, such as a long pendant tail, which the
    eigenbasis loses and the shifted solve keeps.

    For ``s`` above the spectral radius of a connected nonnegative ``a``,
    ``(s I - a)^{-1} = sum_k a^k / s^(k+1)`` is entrywise positive, so the
    vectors are positive without a fix-up.  LU's rounding is about ``n``
    ulps of ``||a||``, so ``s`` lies ``_SHIFT_ULPS n`` ulps above."""
    pairs, certified = [], True
    for a, value in points:
        n = len(a)
        shift = value + _SHIFT_ULPS * n * np.spacing(value)
        shifted = np.negative(a, out=a)  # s I - a in place of a
        shifted[range(n), range(n)] += shift
        x = np.ones((n, 1))
        for _ in range(2):
            x = np.linalg.solve(shifted, x)
            x /= np.sqrt(x.T @ x)
        r = (shift - value) * x - shifted @ x  # a x - value x; s - value is exact
        x, res = x[:, 0], float(np.sqrt(r.T @ r)[0, 0])
        certified &= bool(_certified(res, x.min(), tol))
        pairs.append((x, res))
    return pairs, certified


def full_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing."""
    return np.linalg.eigvalsh(_require_symmetric(a))[::-1]
