"""Simple undirected graphs and the three local perturbations studied here.

A :class:`Graph` is an immutable value: a vertex count ``n`` plus a set of
normalized edges ``(i, j)`` with ``i < j``.  Vertices are the integers
``0 .. n-1`` (Python or numpy integers, never ``bool``) and ``edges`` is a
``frozenset``; construction rejects anything else, and self-loops.
Duplicate edges collapse under set semantics, and numpy vertices are
stored as Python ints.  A graph also holds its bit rows, built once on
first use: bit ``j`` of row ``i`` marks the edge ``(i, j)``.  The rows
are its one structural form: its degrees, :func:`is_connected`, the
recognizers and the applicability check of a perturbation read them, and
only ``has_edge`` and ``adjacency`` read the edge set.

Three perturbation kinds are modeled:

* ``VERTEX_CONNECTION`` -- join an isolated vertex ``u`` to ``g`` existing
  vertices,
* ``EDGE_ADDITION`` -- add one edge between two nonadjacent vertices,
* ``PENDANT_EDGE`` -- attach a brand-new degree-1 vertex to ``u``.

Each kind adds the edges ``(u, t)`` for its targets ``t`` (``(u, n)`` for
the pendant edge), and the final graph, the perturbation matrix and the
applicability checks are all built from those edges; the kind's entry in
:data:`~specbound.bounds.KIND_SPECS`, the one per-kind table, holds the rest
(target count, usage line, whether ``u`` must be isolated).  The pendant
vertex is always index ``n``, so the matrices of the path ``A_I + t P``
align once ``A_I`` is zero-padded by one row and column.  One
private instance holds the bounds' degree data, the equality case and the
solved path.  Every instance is set up in one place, :func:`_solve_stacks`,
from a trial record (:class:`_Trial`): the perturbation, the host's bit
rows and ``A_I``'s components.  :func:`_instances` makes the records of
graphs, for ``bound_report`` and ``sample_path``, from each graph's own
rows, taking the components from one pass of the one graph search of
:mod:`specbound.spectral`, which :func:`is_connected` and the random draw
share; the random draw of :mod:`specbound.rng` makes them from the rows it
draws, for ``verify``, and builds a :class:`Graph` of them (:func:`_graph`)
only for a trial's reproducer or a public draw.  :func:`_solve_stacks`
unpacks each final size's rows into one ``A_I`` stack, builds its ``W``
stack, reads each host's degrees off its rows, for the degree data and the
one cone recognizer (:func:`_is_cone`), which the public recognizers
share, and solves the instances together.  ``A_I + P`` is connected iff
the added edges reach every component.  The instance lays out the path's
points: its start ``(lambda_I, x_I)``, certified pairs on the grid
``k/steps`` with the slopes ``lambda'(t)`` there, and, for a report, the
final index at ``t = 1``.  It hands the solve ``P = W S W^T`` only as the
columns ``W = [e_u, s]``, never as a matrix (:func:`perturbation_matrix` is
the public reference), and reads each grid vector's
``<P x, x> = 2 x_u (s . x)`` off ``W^T x``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bounds import KIND_SPECS, PerturbationKind
from .spectral import _components, _solve_paths, _unpack_rows

_MAX_VERTICES = 1 << 13  # of a final graph: one dense float64 matrix is 512 MiB, and a path holds several
_BLOCK_ENTRIES = 1 << 16  # matrix entries solved per block of verify trials: 512 KiB of float64


def _check_vertex_count(n: int, graph: str = "the final graph") -> int:
    """``n``, unless ``graph``, of ``n`` vertices, is above ``_MAX_VERTICES``."""
    if n > _MAX_VERTICES:
        raise ValueError(f"{graph} has {n} vertices; at most {_MAX_VERTICES} are supported")
    return n


class GraphParseError(ValueError):
    """Malformed edge-list text (bad header, token, vertex, or self-loop)."""


class PerturbationError(ValueError):
    """A perturbation that violates its structural preconditions."""


class DisconnectedError(ValueError):
    """A perturbed graph that is disconnected, where the bounds do not apply."""


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _is_index(x) -> bool:
    """True for Python and numpy integers; ``bool`` is not a vertex."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0 .. n-1``."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not _is_index(self.n):
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if not isinstance(self.edges, frozenset):
            raise ValueError(f"edges must be a frozenset, got {type(self.edges).__name__}")
        plain = True
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a vertex pair") from None
            if type(i) is not int or type(j) is not int:  # plain ints skip the slower test
                if not (_is_index(i) and _is_index(j)):
                    raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer vertex")
                plain = False
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        if not plain:  # the rows shift by vertices, and a numpy shift drops every bit past 63
            object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))

    @cached_property
    def _rows(self) -> list[int]:
        """The graph as the bit rows the graph search reads, built on first
        use: bit ``j`` of row ``i`` marks the edge ``(i, j)``.  Every reader
        shares them, so none may change them."""
        rows = [0] * self.n
        for i, j in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return rows

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._rows]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix; ``ValueError`` above
        ``_MAX_VERTICES`` vertices, before it is allocated."""
        a = np.zeros((_check_vertex_count(self.n, "the graph"), self.n))
        ij = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        a[ij[0::2], ij[1::2]] = 1.0  # each edge (i, j), i < j, above the diagonal
        a += a.T
        return a

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs; duplicates collapse, and :class:`Graph`
    rejects self-loops and out-of-range vertices."""
    return Graph(n, frozenset(_normalize_edge(i, j) for i, j in pairs))


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n >= 1)."""
    if g.n < 1:
        raise ValueError("connectivity is undefined for the empty graph")
    return len(_components(g._rows)) == 1


def is_regular(g: Graph) -> Optional[int]:
    """The common degree if every vertex has it, else ``None``."""
    if g.n < 1:
        raise ValueError("regularity is undefined for the empty graph")
    degs = g.degrees()
    return degs[0] if all(d == degs[0] for d in degs) else None


def is_cone_over_regular(g: Graph, apex: int) -> bool:
    """True iff ``apex`` is adjacent to every other vertex and the rest is regular.

    A single-vertex graph counts as a (degenerate) cone.
    """
    g._check_vertex(apex)
    return _is_cone(g.degrees(), (apex,))


def is_double_cone_over_regular(g: Graph, u: int, v: int) -> bool:
    """True iff ``u`` and ``v`` are nonadjacent, each adjacent to all remaining
    vertices, and the remaining graph is regular."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("double-cone vertices must be distinct")
    return not g.has_edge(u, v) and _is_cone(g.degrees(), (u, v))


def _is_cone(degrees: list[int], apexes: tuple[int, ...]) -> bool:
    """Whether a graph of the given vertex degrees, in which no edge joins
    two apexes, is a cone over a regular graph with those apexes: each apex
    is adjacent to every other vertex, and the rest is regular (its degrees
    include the apex edges)."""
    if any(degrees[a] != len(degrees) - len(apexes) for a in apexes):
        return False
    rest = [d for v, d in enumerate(degrees) if v not in apexes]
    return all(d == rest[0] for d in rest)


# ---------------------------------------------------------------------------
# Combinators and small families
# ---------------------------------------------------------------------------

def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Relabel ``g2`` by shifting its vertices past ``g1`` and take the union."""
    shifted = {(i + g1.n, j + g1.n) for i, j in g2.edges}
    return Graph(g1.n + g2.n, frozenset(g1.edges | shifted))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    base = disjoint_union(g1, g2)
    cross = {(i, j + g1.n) for i in range(g1.n) for j in range(g2.n)}
    return Graph(base.n, frozenset(base.edges | cross))


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def circulant_graph(n: int, delta: int) -> Graph:
    """A delta-regular circulant on n vertices (jumps 1..delta//2, plus the
    antipodal jump when delta is odd).  Requires n*delta even and delta < n."""
    if not (0 <= delta < n):
        raise ValueError(f"need 0 <= delta < n, got delta={delta}, n={n}")
    if (n * delta) % 2 != 0:
        raise ValueError(f"no {delta}-regular graph on {n} vertices (odd degree sum)")
    edges = []
    for s in range(1, delta // 2 + 1):
        edges += [(i, (i + s) % n) for i in range(n)]
    if delta % 2 == 1:
        half = n // 2
        edges += [(i, i + half) for i in range(half)]
    return from_edge_list(n, edges)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """One local modification: kind, anchor vertex ``u``, extra targets.

    ``targets`` holds the g connection targets for a vertex connection, the
    single opposite endpoint for an edge addition, and is empty for a pendant
    edge (whose new vertex is implicitly index ``n``).  The perturbation adds
    the edges ``(u, t)`` for each target ``t``, or ``(u, n)`` without targets.
    """

    kind: PerturbationKind
    u: int
    targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PerturbationKind):
            raise PerturbationError(f"unknown perturbation kind {self.kind!r}")
        if not isinstance(self.targets, tuple):
            raise PerturbationError(f"targets must be a tuple, got {type(self.targets).__name__}")
        for v in (self.u, *self.targets):
            if not _is_index(v) or v < 0:
                raise PerturbationError(f"vertex {v!r} is not a nonnegative integer")
        ts, spec = self.targets, KIND_SPECS[self.kind]
        if len(ts) not in spec.counts:
            name = self.kind.name.lower().replace("_", " ")
            raise PerturbationError(f"{name} needs {spec.wording}, got {ts}")
        if len(set(ts)) != len(ts):
            raise PerturbationError(f"duplicate targets in {ts}")
        if self.u in ts:
            raise PerturbationError(f"self-loop at vertex {self.u}")

    @classmethod
    def vertex_connection(cls, u: int, targets: Sequence[int]) -> "Perturbation":
        return cls(PerturbationKind.VERTEX_CONNECTION, u, tuple(sorted(targets)))

    @classmethod
    def edge_addition(cls, u: int, v: int) -> "Perturbation":
        return cls(PerturbationKind.EDGE_ADDITION, u, (v,))

    @classmethod
    def pendant_edge(cls, u: int) -> "Perturbation":
        return cls(PerturbationKind.PENDANT_EDGE, u, ())

    @property
    def g(self) -> int:
        return len(self.targets)


def _ends(p, n: int) -> tuple[int, ...]:
    """``u``, then the other end of each edge ``p`` adds to a host of ``n``
    vertices: its targets, or the new vertex ``n`` without targets."""
    return (p.u, *(p.targets or (n,)))


def _added_edges(rows: list[int], p) -> list[tuple[int, int]]:
    """The edges ``p`` adds to the host of bit rows ``rows``, once ``p`` is
    checked to apply to it."""
    n = len(rows)
    if p.u >= n:
        raise PerturbationError(f"vertex {p.u} out of range for n={n}")
    if KIND_SPECS[p.kind].isolated and rows[p.u]:
        raise PerturbationError(f"vertex {p.u} is not isolated")
    for t in p.targets:
        if t >= n:
            raise PerturbationError(f"vertex {t} out of range for n={n}")
        if rows[p.u] >> int(t) & 1:  # a numpy shift overflows past bit 63
            raise PerturbationError(f"edge ({p.u}, {t}) already present")
    return [_normalize_edge(p.u, t) for t in _ends(p, n)[1:]]


def _graph(rows: list[int]) -> Graph:
    """The :class:`Graph` of the bit rows ``rows``."""
    n = len(rows)
    return Graph(n, frozenset((i, j) for i, row in enumerate(rows) for j in range(i + 1, n) if row >> j & 1))


class _Trial(NamedTuple):
    """One instance to set up: its perturbation (``kind``, ``u``,
    ``targets``, as a :class:`Perturbation` reads them), checked against its
    host, the host as bit rows, with a vertex connection's isolated ``u``,
    and the host's components."""

    kind: PerturbationKind
    u: int
    targets: tuple[int, ...]
    rows: list[int]
    comps: list[list[int]]

    @property
    def n(self) -> int:
        """Vertex count of the host."""
        return len(self.rows)

    @property
    def size(self) -> int:
        """Vertex count of the final graph."""
        return perturbed_dimension(self, self)

    def pair(self) -> tuple[Graph, Perturbation]:
        return _graph(self.rows), Perturbation(self.kind, self.u, self.targets)


def _with_lone_vertex(rows: list[int], comps: list[list[int]], alone: bool) -> tuple:
    """The bit rows ``rows`` and their components ``comps``, and, if
    ``alone``, the vertex ``n = len(rows)`` after them with no edge, as a
    zero row and a component of its own: a drawn vertex connection's
    isolated ``u``, or in ``A_I`` a pendant edge's new vertex."""
    return (rows + [0], comps + [[len(rows)]]) if alone else (rows, comps)


def perturbed_dimension(g: Graph, p: Perturbation) -> int:
    """Vertex count of the final graph (grows by one for a pendant edge)."""
    return g.n + (not p.targets)


def apply_perturbation(g: Graph, p: Perturbation) -> Graph:
    """The final graph after the perturbation (validated)."""
    return Graph(perturbed_dimension(g, p), g.edges | frozenset(_added_edges(g._rows, p)))


def perturbation_matrix(g: Graph, p: Perturbation) -> np.ndarray:
    """The symmetric 0/1 difference matrix (final minus zero-padded initial):
    the adjacency matrix of the added edges alone.

    Its dimension matches the final graph, so for a pendant edge it is
    (n+1) x (n+1) with ones only at the new off-diagonal pair.
    """
    n = _check_vertex_count(perturbed_dimension(g, p))
    return Graph(n, frozenset(_added_edges(g._rows, p))).adjacency()


def bound_parameters(g: Graph, p: Perturbation) -> dict[str, int]:
    """The degree/size data the closed-form bounds need, read off the host."""
    _added_edges(g._rows, p)
    return _degree_data(p, g.degrees())


def _degree_data(p, degrees: list[int]) -> dict[str, int]:
    """:func:`bound_parameters` of a perturbation known to apply to a host
    of the given vertex degrees: ``g`` counts its targets, ``delta_u`` and
    ``delta_v`` are the degrees of ``u`` and its target."""
    known = dict(zip(("delta_u", "delta_v"), (degrees[v] for v in (p.u, *p.targets))), g=len(p.targets))
    return {key: known[key] for key in KIND_SPECS[p.kind].params}


def _equality(p, degrees: list[int]) -> bool:
    """Whether ``p``, known to apply to a host of the given vertex degrees,
    attains its bound: whether the final graph, for an isolated ``u``, or
    else the host is a cone over a regular graph whose apexes are ``u`` and
    its targets (``u`` alone for the vertex connection).  An isolated ``u``
    is an apex only once joined to every other vertex; then each other
    vertex gains one edge.  An added edge joins two nonadjacent apexes."""
    if KIND_SPECS[p.kind].isolated:
        if len(p.targets) != len(degrees) - 1:
            return False
        final = [d + 1 for d in degrees]
        final[p.u] = len(p.targets)
        return _is_cone(final, (p.u,))
    return _is_cone(degrees, (p.u, *p.targets))


class _Instance(NamedTuple):
    """A perturbation of ``kind`` on a host, set up and solved once for the
    path ``A_I + t P``."""

    kind: PerturbationKind
    params: dict[str, int]  # :func:`bound_parameters`
    equality: bool  # whether the bound is attained, by the cone recognizer
    lambda_i: float  # with ``vector``, ``perron_components`` of ``A_I``
    vector: np.ndarray
    grid: np.ndarray  # the points ``k/steps`` past ``t = 0``
    values: np.ndarray  # with ``vectors`` as rows, the Perron pairs at the grid
    vectors: np.ndarray
    forms: np.ndarray  # the quadratic forms ``<P x, x>`` of the grid vectors
    lhs: np.ndarray  # the slopes ``lambda'(t)`` of the secular equation at the interior grid
    lambda_f: float  # the top eigenvalue of ``A_I + P``


class _Block(NamedTuple):
    """Trials set up and solved together by :func:`_solve_stacks`, an entry
    or a row per trial in trial order, as arrays; their vectors stay in the
    solve, ``paths``, at each trial's place ``at`` there."""

    kinds: list[PerturbationKind]
    params: list[dict[str, int]]  # :func:`bound_parameters`
    weights: np.ndarray  # the weight ``d`` of each trial's kind: the sum of its params
    equality: np.ndarray  # whether the bound is attained, by the cone recognizer
    grid: np.ndarray  # the points ``k/steps`` past ``t = 0``
    lambda_i: np.ndarray  # ``perron_components`` of ``A_I``
    values: np.ndarray  # the Perron values at the grid
    forms: np.ndarray  # the quadratic forms ``<P x, x>`` of the grid vectors
    lhs: np.ndarray  # the slopes ``lambda'(t)`` of the secular equation at the interior grid
    lambda_f: np.ndarray  # the top eigenvalue of ``A_I + P``
    paths: tuple  # the solve, :class:`~specbound.spectral._Paths`
    at: np.ndarray

    def instances(self) -> list[_Instance]:
        """One :class:`_Instance` per trial."""
        return [
            _Instance(
                self.kinds[i], self.params[i], bool(self.equality[i]), float(self.lambda_i[i]),
                self.paths.start(k), self.grid, self.values[i], self.paths.grid(k), self.forms[i],
                self.lhs[i], float(self.lambda_f[i]),
            )
            for i, k in enumerate(self.at.tolist())
        ]


def _instances(pairs, tol: float, steps: int = 0) -> list[_Instance]:
    """Solve each ``(g, p)`` of ``pairs`` (:func:`_solve_stacks`), set up
    from the host's bit rows and their components.  Each ``(g, p)`` is
    checked once, against ``_MAX_VERTICES`` before any row is read, then
    with :func:`_added_edges`."""
    pairs = list(pairs)
    for g, p in pairs:
        _check_vertex_count(perturbed_dimension(g, p))
        _added_edges(g._rows, p)  # PerturbationError unless p applies to g
    trials = [_Trial(p.kind, p.u, p.targets, g._rows, _components(g._rows)) for g, p in pairs]
    return _solve_stacks(trials, tol, steps).instances()


def _w_stack(n: int, ends: list[tuple[int, ...]]) -> np.ndarray:
    """The columns ``W = [e_u, s]`` of ``P = W S W^T``, one per entry
    ``(u, *rest)`` of ``ends``, with ``s`` the indicator of ``rest``, as a
    zero stack ``(k, n, 2)`` filled by one indexed assignment."""
    w_stack = np.zeros((len(ends), n, 2))
    flat = [2 * (row * n + v) + (v != e[0]) for row, e in enumerate(ends) for v in e]
    w_stack.reshape(-1)[flat] = 1.0  # column 0 at u, column 1 at s
    return w_stack


def _solve_stacks(trials: list[_Trial], tol: float, steps: int = 0) -> _Block:
    """Solve the :class:`_Trial` records ``trials``, the one set-up of every
    instance: certified Perron pairs on the grid ``k/steps`` with their
    quadratic forms ``<P x, x>`` and secular slopes ``lambda'(t)``, and the
    top eigenvalue of ``A_I + P``: the certified root at ``t = 1``, or
    without a grid LAPACK's, which the solve takes from the stacks as they
    are.  The trials of one final size share one ``A_I`` stack, their bit
    rows unpacked in one pass, and one stack of ``W``: ``P`` is handed over
    only as ``W``, never as a matrix.  The solve takes them in that order,
    so a size's grid vectors are one stack, and one product with its ``W``
    stack gives their forms.  Each host's degrees, for its degree data and
    its equality case, are its rows' bit counts.  :class:`DisconnectedError`
    unless every ``A_I + P`` is connected, before any stack is built."""
    initial = [_with_lone_vertex(d.rows, d.comps, not d.targets) for d in trials]
    if not all(_joins_components(comps, d, d.n) for d, (_, comps) in zip(trials, initial)):
        raise DisconnectedError("the perturbed graph is disconnected")
    grid = np.arange(1, steps + 1) / max(steps, 1)  # empty for steps = 0
    by_size: dict[int, list[int]] = {}
    for k, (rows, _) in enumerate(initial):
        by_size.setdefault(len(rows), []).append(k)
    paths, stacks, order = [], [], []
    for n, group in by_size.items():
        bits = _unpack_rows([r for k in group for r in initial[k][0]], n).reshape(len(group), n, n)
        a_stack = bits.astype(float, order="C")
        w_stack = _w_stack(n, [_ends(trials[k], trials[k].n) for k in group])
        paths += [(a, w, initial[k][1]) for k, a, w in zip(group, a_stack, w_stack)]
        stacks.append((slice(len(order), len(order) + len(group)), a_stack, w_stack))
        order += group
    degrees = [[row.bit_count() for row in d.rows] for d in trials]
    params = [_degree_data(d, degs) for d, degs in zip(trials, degrees)]
    solved = _solve_paths(paths, grid, tol, stacks)
    forms = np.empty(solved.roots.shape)
    for group, _, w_stack in stacks if steps else ():  # W^T x per grid point, one product per stack
        lo, hi = solved.bounds[group.start] * steps, solved.bounds[group.stop] * steps
        z = solved.vectors[lo:hi].reshape(len(w_stack), steps, -1) @ w_stack
        forms[group] = 2.0 * z[:, :, 0] * z[:, :, 1]  # <P x, x> = 2 x_u (s . x)
    at = np.empty(len(trials), dtype=int)
    at[order] = np.arange(len(trials))
    return _Block(
        [d.kind for d in trials], params, np.array([sum(p.values()) for p in params]),
        np.array([_equality(d, degs) for d, degs in zip(trials, degrees)]), grid,
        solved.lambda_i[at], solved.roots[at], forms[at],
        solved.slopes[at, :-1], solved.lambda_f[at], solved, at,
    )


def _joins_components(comps: list[list[int]], p, n: int) -> bool:
    """Whether the edges that ``p`` adds to a host of ``n`` vertices, from
    ``u`` to each target (to ``n`` without targets), reach every component
    of ``comps``: whether ``A_I + P`` is connected.  Per kind: a vertex
    connection's targets meet every component but ``{u}``; an added edge
    finds one component, or joins two; a pendant edge needs a connected
    host."""
    ends = set(_ends(p, n))
    return all(not ends.isdisjoint(comp) for comp in comps)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header line ``n m`` then m lines ``i j``.

    Blank lines and lines starting with ``#`` are ignored.  Duplicate edges
    collapse; self-loops and out-of-range vertices are errors.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphParseError(f"non-integer header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphParseError(f"negative counts in header {lines[0]!r}")
    body = lines[1:]
    if len(body) != m:
        raise GraphParseError(f"header announces {m} edges but {len(body)} lines follow")
    pairs = []
    for ln in body:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphParseError(f"edge line must be 'i j', got {ln!r}")
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError as exc:
            raise GraphParseError(f"non-integer edge line {ln!r}") from exc
    try:
        return from_edge_list(n, pairs)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out += [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(out) + "\n"


def parse_perturbation_spec(text: str) -> Perturbation:
    """Parse the textual form: ``vertex u v1 ... vg`` | ``edge u v`` | ``pendant u``."""
    toks = text.split()
    if not toks:
        raise PerturbationError("empty perturbation spec")
    name, args = toks[0].lower(), toks[1:]
    try:
        nums = [int(t) for t in args]
    except ValueError as exc:
        raise PerturbationError(f"non-integer vertex in {text!r}") from exc
    try:
        kind = PerturbationKind(name)
    except ValueError:
        raise PerturbationError(f"unknown perturbation kind {name!r}") from None
    if not nums or len(nums) - 1 not in KIND_SPECS[kind].counts:
        raise PerturbationError(f"usage: {KIND_SPECS[kind].usage}")
    return Perturbation(kind, nums[0], tuple(sorted(nums[1:])))


def format_perturbation_spec(p: Perturbation) -> str:
    return " ".join(str(x) for x in (p.kind.value, p.u, *p.targets))
