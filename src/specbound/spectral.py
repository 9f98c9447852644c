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
components with the library's one graph search.

Public functions validate their input and never mutate it.  The private
solves take a stack ``(k, n, n)`` of matrices and make one LAPACK call per
stack: the certified Perron solve checks the residual and the positivity of
every matrix in it, with stacked ``matmul`` that runs the same BLAS kernels
per matrix as a single solve, so a matrix gets the same bits alone or in a
stack.  :func:`perron` calls it with a stack of one matrix.
:func:`_solve_paths` owns the start of a path ``a + t p``: the best
certified pair of ``a``'s components.  It solves that start with the points
its caller names, for one instance or a block of ``verify`` trials, by size
in stacks of at most ``_STACK_ENTRIES`` entries, skipping the input checks
made once, never the certificate.  Oracles live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SYM_ATOL = 1e-12
_STACK_ENTRIES = 1 << 15  # matrix entries per stacked solve: 256 KiB of float64


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
    rows = np.packbits(m != 0, axis=1, bitorder="little").tobytes()
    width = len(rows) // len(m)
    neighbors = [int.from_bytes(rows[i : i + width], "little") for i in range(0, len(rows), width)]
    return _components(neighbors)


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
    values, vectors, residuals = _certified_perron(m[None], tol)
    return PerronPair(float(values[0]), vectors[0], float(residuals[0]))


def _require_nonnegative(a, tol: float) -> np.ndarray:
    """``a`` as a symmetric nonnegative array, given a positive ``tol``."""
    m = _require_symmetric(a)
    if not tol > 0:  # also refuses nan, which no certificate can pass
        raise ValueError(f"tolerance must be positive, got {tol}")
    if m.min() < 0:
        raise ValueError("matrix has negative entries")
    return m


def _certified_perron(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`perron` on a stack ``(k, n, n)`` of matrices known to be
    connected, nonnegative and symmetric, in one ``eigh`` call: the values,
    the vectors as rows, and the residuals.  The positivity fix-up runs only
    on the rows that need it; ``RuntimeError`` names the first matrix that
    fails its certificate."""
    if stack.shape[-1] == 1:
        return stack[:, 0, 0].copy(), np.ones((len(stack), 1)), np.zeros(len(stack))
    x = np.abs(np.linalg.eigh(stack)[1][:, :, -1])
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
    res = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    certified = (res <= tol) & (x.min(axis=1) > 0.0)
    if not certified.all():
        i = int(np.argmin(certified))
        raise RuntimeError(
            f"Perron pair not certified: residual {float(res[i]):.3e} (tolerance {tol}), "
            f"min entry {float(x[i].min()):.3e}"
        )
    return lam, x, res


def _top_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix of a stack known to be symmetric."""
    return np.linalg.eigvalsh(stack)[:, -1]


def spectral_radius(a, tol: float = 1e-11) -> float:
    """Largest eigenvalue of a nonnegative symmetric matrix, components allowed."""
    return perron_components(a, tol)[0]


def perron_components(a, tol: float = 1e-11) -> tuple[float, np.ndarray]:
    """Spectral radius of a possibly disconnected nonnegative symmetric matrix
    (the t = 0 end of a path), the largest of its components' certified
    values, and an eigenvector zero-padded to full size, from the
    lowest-indexed component within ``tol`` of that maximum."""
    m = _require_nonnegative(a, tol)
    return _solve_paths([(m, 0.0)], (), (), tol)[0][:2]


def _solve_paths(paths, certify, top, tol: float) -> list[tuple]:
    """Solve the paths ``a + t p`` of ``paths``, all together in the stacks
    of :func:`_solve_pencils`, with ``a`` nonnegative and ``a + t p``
    connected at the points of ``certify``.  For each path: its start, the
    value and zero-padded vector of :func:`perron_components` of ``a``; the
    certified pairs at the points of ``certify``, vectors as rows; and the
    top eigenvalues at the points of ``top``.  ``ValueError`` unless ``tol``
    is positive."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    certify, top = np.asarray(certify, dtype=float), np.asarray(top, dtype=float)
    certify_at, top_at, splits = [], [], []
    for a, p in paths:
        comps = connected_components(a)
        # ``take`` copies a component's block in a third of the time of ``np.ix_``
        blocks = [a] if len(comps) == 1 else [a.take(c, 0).take(c, 1) for c in comps]
        certify_at += [(b, 0.0, np.zeros(1)) for b in blocks] + [(a, p, certify)]
        top_at.append((a, p, top))
        splits.append(comps)
    pairs, tops = _solve_pencils(certify_at, top_at, tol)
    solved, at = [], 0
    for (a, _), comps, top_k in zip(paths, splits, tops):
        starts, at = pairs[at : at + len(comps)], at + len(comps) + 1
        values = [float(v[0]) for v, _ in starts]
        value = max(values)
        k = next(k for k, v in enumerate(values) if v >= value - tol)
        vector = np.zeros(len(a))
        vector[comps[k]] = starts[k][1][0]
        solved.append((value, vector, *pairs[at - 1], top_k))
    return solved


def _pencil_groups(pencils):
    """The matrices ``a + t p`` of ``pencils``, triples ``(a, p, ts)`` of a
    symmetric matrix, a symmetric matrix of its size or 0, and an array of
    values ``t``, grouped by size.  Per size ``n``: each member pencil's
    index with the slice of its matrices in the group's order, and the
    group's stacks of at most ``_STACK_ENTRIES`` entries, built as they are
    used."""
    by_size: dict[int, list[int]] = {}
    for k, (a, _, _) in enumerate(pencils):
        by_size.setdefault(len(a), []).append(k)
    for n, members in by_size.items():
        spans, end = [], 0
        for k in members:
            start, end = end, end + len(pencils[k][2])
            spans.append((k, slice(start, end)))
        yield n, spans, _stacks(n, [pencils[k] for k in members], end)


def _stacks(n: int, pencils, total: int):
    """The ``total`` matrices of ``pencils`` of size ``n``, in order, in full stacks."""
    per_stack = max(1, _STACK_ENTRIES // (n * n))
    stack, filled = np.empty((min(per_stack, total), n, n)), 0
    for a, p, ts in pencils:
        while len(ts):
            part = stack[filled : filled + len(ts)]
            np.multiply(ts[: len(part), None, None], p, out=part)
            part += a
            ts, filled = ts[len(part) :], filled + len(part)
            if filled == len(stack):
                yield stack
                total -= filled
                stack, filled = np.empty((min(per_stack, total), n, n)), 0


def _solve_pencils(certify, top, tol: float) -> tuple[list, list]:
    """Solve the pencils of :func:`_pencil_groups`, one LAPACK call per stack:
    for each pencil of ``certify`` the certified Perron values of its
    matrices and their vectors as rows, for each pencil of ``top`` their top
    eigenvalues.  ``RuntimeError`` names the first matrix of ``certify``
    that fails its certificate, as lone solves in that order would."""
    pairs, tops = [None] * len(certify), [None] * len(top)
    try:
        for n, spans, stacks in _pencil_groups(certify):
            solved = [_certified_perron(stack, tol)[:2] for stack in stacks]
            solved = solved or [(np.empty(0), np.empty((0, n)))]
            values, vectors = solved[0] if len(solved) == 1 else map(np.concatenate, zip(*solved))
            for k, span in spans:
                pairs[k] = values[span], vectors[span]
    except RuntimeError:
        for a, p, ts in certify:
            for t in ts:
                _certified_perron((t * p + a)[None], tol)
        raise
    for _, spans, stacks in _pencil_groups(top):
        solved = [_top_eigenvalues(stack) for stack in stacks] or [np.empty(0)]
        values = solved[0] if len(solved) == 1 else np.concatenate(solved)
        for k, span in spans:
            tops[k] = values[span]
    return pairs, tops


def full_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing."""
    return np.linalg.eigvalsh(_require_symmetric(a))[::-1]
