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

:func:`_solve_paths` solves the paths ``a + t p``, for one instance or a
block of ``verify`` trials, by size in stacks of at most ``_STACK_ENTRIES``
entries, skipping the input checks made once, never the certificate.  It
owns a path's start, the best certified pair of ``a``'s components, and
reuses their eigendecompositions for every later point: ``p`` has rank 2,
so each point's value is a root of a 2x2 secular equation
(:func:`_secular_roots`), and each grid point's vector two steps of shifted
inverse iteration (:func:`_shifted_pairs`).  Oracles live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SYM_ATOL = 1e-12
_STACK_ENTRIES = 1 << 15  # matrix entries per stacked solve: 256 KiB of float64
_ROOT_ENTRIES = 1 << 12  # secular terms per Newton pass: 32 KiB per float64 array
_NEWTON_STEPS = 100  # a root takes about 7; bisection alone would take 60
_SHIFT_ULPS = 8  # per matrix row: the shift above a root, in ulps of the root
_AT_ZERO, _AT_ONE = np.zeros(1), np.ones(1)


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
    return _components(_row_bits(_as_matrix(a)))


def _row_bits(m: np.ndarray) -> list[int]:
    """Each row of ``m``'s nonzero pattern as a Python integer whose bit ``j``
    marks entry ``j``: one ``packbits`` pass, cheaper than setting the bits
    edge by edge once a graph has a few hundred edges."""
    rows = np.packbits(m != 0, axis=1, bitorder="little").tobytes()
    width = len(rows) // len(m)
    return [int.from_bytes(rows[i : i + width], "little") for i in range(0, len(rows), width)]


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


def _certify(residuals: np.ndarray, x: np.ndarray, tol: float) -> None:
    """``RuntimeError`` naming the first pair whose residual exceeds ``tol``
    or whose vector (a row of ``x``) has an entry that is not positive."""
    certified = (residuals <= tol) & (x.min(axis=1) > 0.0)
    if not certified.all():
        i = int(np.argmin(certified))
        raise RuntimeError(
            f"Perron pair not certified: residual {float(residuals[i]):.3e} (tolerance {tol}), "
            f"min entry {float(x[i].min()):.3e}"
        )


def _certified_perron(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`perron` on a stack ``(k, n, n)`` of matrices known to be
    connected, nonnegative and symmetric, in one ``eigh`` call: the values,
    the vectors as rows, and the residuals.  ``RuntimeError`` names the first
    matrix that fails its certificate."""
    lam, x, res = _perron_stack(stack)[2:]
    _certify(res, x, tol)
    return lam, x, res


def spectral_radius(a, tol: float = 1e-11) -> float:
    """Largest eigenvalue of a nonnegative symmetric matrix, components allowed."""
    return perron_components(a, tol)[0]


def perron_components(a, tol: float = 1e-11) -> tuple[float, np.ndarray]:
    """Spectral radius of a possibly disconnected nonnegative symmetric matrix
    (the t = 0 end of a path), the largest of its components' certified
    values, and an eigenvector zero-padded to full size, from the
    lowest-indexed component within ``tol`` of that maximum."""
    m = _require_nonnegative(a, tol)
    return _solve_paths([(m, 0.0, None, connected_components(m))], (), (), tol)[0][:2]


def _solve_paths(paths, certify, tops, tol: float, final: bool = False) -> list[tuple]:
    """Solve the paths ``a + t p`` of ``paths``, quadruples ``(a, p, w, comps)``
    of a nonnegative ``a`` split into the components ``comps``, and
    ``p = w S w^T`` with ``w = [e_u, s]`` the anchor and target-indicator
    columns and ``S = [[0, 1], [1, 0]]``, such that ``a + t p`` is connected
    for ``t > 0``.  For each path: its start, the value and zero-padded vector
    of :func:`perron_components` of ``a``; certified pairs at the points of
    ``certify``, vectors as rows; the top eigenvalues at the points of
    ``tops``; and with ``final``, LAPACK's top eigenvalue of ``a + p``, else
    ``None``.  Without points, ``w`` may be ``None``.

    The components are solved in one ``eigh`` call per size and stack, and
    their eigendecompositions give every point's value as a root of the
    rank-2 secular equation of :func:`_secular_roots`, all points of all
    paths together.  The vector at a point of ``certify`` is two steps of
    shifted inverse iteration, one stacked ``solve`` per size and stack.
    ``a + p`` takes one ``eigvalsh`` per size and stack: on one small matrix
    LAPACK is cheaper than any Python-level root search.  ``RuntimeError``
    names the first matrix, a component or a point of ``certify`` in the
    order of ``paths``, whose pair fails its certificate; ``ValueError``
    unless ``tol`` is positive."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    certify, tops = np.asarray(certify, dtype=float), np.asarray(tops, dtype=float)
    points = np.concatenate([certify, tops])
    blocks = []
    for a, _, w, comps in paths:
        if len(comps) == 1:
            blocks.append((a, w if len(points) else None))
        else:  # ``take`` copies a component's block in a third of the time of ``np.ix_``
            blocks += [(a.take(c, 0).take(c, 1), w[c] if len(points) else None) for c in comps]
    spectra, certified = _solve_blocks(blocks, tol)
    starts, systems, at = [], [], 0
    for a, _, _, comps in paths:
        parts, at = spectra[at : at + len(comps)], at + len(comps)
        values = [float(lam) for lam, _, _, _ in parts]
        value = max(values)
        k = next(k for k, v in enumerate(values) if v >= value - tol)
        vector = np.zeros(len(a))
        vector[comps[k]] = parts[k][1]
        starts.append((value, vector))
        if len(points):
            systems.append(tuple(map(np.concatenate, zip(*(eig for _, _, _, eig in parts)))))
    roots = _secular_roots(systems, points) if len(points) else np.empty((len(paths), 0))
    pairs = [(np.empty((0, len(a))), np.empty(0)) for a, _, _, _ in paths]
    if len(certify):
        pencils = [(a, p, certify) for a, p, _, _ in paths]
        certified &= _shifted_pairs(pencils, roots[:, : len(certify)], pairs, tol)
    if not certified:  # find the first failure in order
        at = 0
        for (_, _, _, comps), (x, res) in zip(paths, pairs):
            for _, xc, rc, _ in spectra[at : at + len(comps)]:
                _certify(np.array([rc]), xc[None], tol)
            _certify(res, x, tol)
            at += len(comps)
    finals = _final_tops(paths) if final else [None] * len(paths)
    return [
        (value, vector, root[: len(certify)], x, root[len(certify) :], top)
        for (value, vector), root, (x, _), top in zip(starts, roots, pairs, finals)
    ]


def _final_tops(paths) -> list:
    """LAPACK's top eigenvalue of ``a + p`` for each path ``(a, p, w, comps)``,
    one ``eigvalsh`` call per stack of equal-size matrices."""
    tops = [None] * len(paths)
    for _, spans, stacks in _pencil_groups([(a, p, _AT_ONE) for a, p, _, _ in paths]):
        values = [np.linalg.eigvalsh(stack)[:, -1] for stack in stacks]
        values = values[0] if len(values) == 1 else np.concatenate(values)
        for k, span in spans:
            tops[k] = values[span.start]
    return tops


def _solve_blocks(blocks, tol: float) -> tuple[list[tuple], bool]:
    """:func:`_perron_stack` of the matrix of each pair ``(m, w)`` of
    ``blocks``, one LAPACK call per stack of equal-size matrices: per matrix
    its Perron value, vector and residual, and, given its rows ``w`` of
    ``W``, its eigenvalues and ``Q^T w`` (else ``None``), so no
    eigenvector stack outlives its group; and whether every pair passes its
    certificate at ``tol``."""
    solved, certified = [None] * len(blocks), True
    for _, spans, stacks in _pencil_groups([(m, 0.0, _AT_ZERO) for m, _ in blocks]):
        parts = [_perron_stack(stack) for stack in stacks]
        mu, q, lam, x, res = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
        certified &= bool(((res <= tol) & (x.min(axis=1) > 0.0)).all())
        for k, span in spans:
            i, w = span.start, blocks[k][1]
            solved[k] = (lam[i], x[i], res[i], None if w is None else (mu[i], q[i].T @ w))
    return solved, certified


def _secular_roots(systems, ts: np.ndarray) -> np.ndarray:
    """Top eigenvalue of ``A(t) = A_I + t W S W^T`` at each ``t > 0`` of
    ``ts``, for each pair ``(mu, b)`` of ``systems``: the eigenvalues ``mu``
    of ``A_I`` and ``b = Q^T W`` for its eigenvectors ``Q``.  One row of
    roots per system.

    Above ``mu_top = max(mu)``, ``lambda`` is an eigenvalue of ``A(t)`` iff
    ``det(I - t S M(lambda)) = 0`` with ``M(lambda) = sum_i b_i b_i^T /
    (lambda - mu_i)`` (Golub 1973; Bunch, Nielsen and Sorensen 1978), and the
    top one is the root of ``t theta(lambda) = 1``, ``theta = M_us +
    sqrt(M_uu M_ss)`` decreasing.  Each point runs bracketed Newton on
    ``1/theta = t`` in ``delta = lambda - mu_top > 0``, so no evaluation
    meets a pole, from the Ritz value of ``A(t)`` on ``span{x, P x}``, ``x``
    the top eigenvector of ``A_I``, and stops once its raw step is within 2
    ulps of ``lambda``.  The points of all systems iterate as arrays, in
    passes of about ``_ROOT_ENTRIES`` terms; a point's sums run over its own
    terms only, so its bits do not depend on the other points."""
    k = len(ts)
    sizes = np.array([len(mu) for mu, _ in systems])
    mu = np.concatenate([mu for mu, _ in systems])
    b = np.concatenate([b for _, b in systems])
    first = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(mu, first)
    d = np.repeat(top, sizes) - mu  # >= 0: lambda - mu_i = delta + d_i
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

    npts = np.repeat(sizes, k)
    ends = np.cumsum(npts)
    delta, j = np.empty(len(npts)), 0
    while j < len(npts):
        end = max(j + 1, int(np.searchsorted(ends, ends[j] - npts[j] + _ROOT_ENTRIES, "right")))
        system, t = np.arange(j, end) // k, ts[np.arange(j, end) % k]
        delta[j:end] = _secular_newton(
            t, *(v[system] for v in (top, a, beta2, gamma, c, weyl, first)), npts[j:end], coef, d
        )
        j = end
    return np.repeat(top, k).reshape(len(systems), k) + delta.reshape(len(systems), k)


def _secular_newton(t, top, a, beta2, gamma, c, weyl, first, npts, coef, d) -> np.ndarray:
    """``lambda - mu_top`` at each point of :func:`_secular_roots`, given per
    point its ``t``, its system's Ritz matrix, Weyl bound and first term, and
    its count of terms; ``coef`` and ``d`` hold every system's terms."""
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
    r, term, sums = np.empty(len(d)), np.empty(len(d)), np.empty((6, len(t)))  # reused
    active = np.ones(len(t), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        np.add(np.repeat(delta, npts), d, out=r)
        np.reciprocal(r, out=r)
        for row in range(6):  # M(lambda), then -M'(lambda)
            if row == 3:
                np.multiply(r, r, out=r)
            sums[row] = np.add.reduceat(np.multiply(coef[row % 3], r, out=term), seg)
        m, dm = sums[:3], sums[3:]
        root = np.sqrt(m[0] * m[1])
        theta = m[2] + root
        slope = dm[2] + (dm[0] * m[1] + m[0] * dm[1]) / (2.0 * root)  # -theta'
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
        if not active.any():
            return delta
    raise RuntimeError("secular root search did not converge")  # pragma: no cover


def _shifted_pairs(pencils, values: np.ndarray, pairs: list, tol: float) -> bool:
    """For each pencil ``(a, p, ts)`` of :func:`_pencil_groups`, with
    ``values`` the top eigenvalue of each of its matrices as a row, put into
    ``pairs`` the unit vectors (rows) and residuals of two steps
    ``(s I - A) x <- x`` from ``x = 1``, ``s`` a few ulps above the value:
    one stacked ``solve`` per step, size and stack.  Return whether every
    pair passes its certificate at ``tol``.

    For ``s`` above the spectral radius of a connected nonnegative ``A``,
    ``(s I - A)^{-1} = sum_k A^k / s^(k+1)`` is entrywise positive, so the
    vectors are positive without a fix-up.  LU's rounding is about ``n``
    ulps of ``||A||``, so ``s`` lies ``_SHIFT_ULPS n`` ulps above."""
    certified = True
    for n, spans, stacks in _pencil_groups(pencils):
        lam = np.concatenate([values[k] for k, _ in spans])
        xs, res, at = [], [], 0
        for stack in stacks:
            part, at = lam[at : at + len(stack)], at + len(stack)
            shift = part + _SHIFT_ULPS * n * np.spacing(part)
            shifted = np.negative(stack, out=stack)  # s I - A in place of A
            shifted[:, range(n), range(n)] += shift[:, None]
            x = np.ones((len(stack), n, 1))
            for _ in range(2):
                x = np.linalg.solve(shifted, x)
                x /= np.sqrt(x.transpose(0, 2, 1) @ x)
            xs.append(x[:, :, 0])
            r = (shift - part)[:, None, None] * x - shifted @ x  # A x - value x; s - value is exact
            res.append(np.sqrt(r.transpose(0, 2, 1) @ r)[:, 0, 0])
        xs = xs[0] if len(xs) == 1 else np.concatenate(xs)
        res = res[0] if len(res) == 1 else np.concatenate(res)
        certified &= bool(((res <= tol) & (xs.min(axis=1) > 0.0)).all())
        for k, span in spans:
            pairs[k] = xs[span], res[span]
    return certified


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


def full_spectrum(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, nonincreasing."""
    return np.linalg.eigvalsh(_require_symmetric(a))[::-1]
