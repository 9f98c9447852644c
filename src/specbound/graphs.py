"""Simple undirected graphs and the three local perturbations studied here.

A :class:`Graph` is an immutable value: a vertex count ``n`` plus a set of
normalized edges ``(i, j)`` with ``i < j``.  Vertices are the integers
``0 .. n-1`` (Python or numpy integers, never ``bool``) and ``edges`` is a
``frozenset``; construction rejects anything else, and self-loops.
Duplicate edges collapse under set semantics.

Three perturbation kinds are modeled:

* ``VERTEX_CONNECTION`` -- join an isolated vertex ``u`` to ``g`` existing
  vertices,
* ``EDGE_ADDITION`` -- add one edge between two nonadjacent vertices,
* ``PENDANT_EDGE`` -- attach a brand-new degree-1 vertex to ``u``.

Each kind adds the edges ``(u, t)`` for its targets ``t`` (``(u, n)`` for
the pendant edge), and the final graph, the perturbation matrix and the
applicability checks are all built from those edges; a per-kind table holds
the rest (target count, usage line, whether ``u`` must be isolated).  The
pendant vertex is always index ``n``, so the matrices of the path
``A_I + t P`` align once ``A_I`` is zero-padded by one row and column.  One
private instance holds the bounds' degree data and the solved path.
``A_I``'s components come from one pass of the one graph search of
:mod:`specbound.spectral`, which :func:`is_connected` shares, over the
host's edges as bit sets, and ``A_I + P`` is connected iff the added edges
reach every component.  The instance lays out the path's points: its start
``(lambda_I, x_I)``, certified pairs on the grid ``k/steps``, central
differences around the interior grid, and, for a report, the final index
at ``t = 1``; it hands the solve the columns ``W = [e_u, s]`` with
``P = W S W^T``, and reads each grid vector's ``<P x, x> = 2 x_u (s . x)``
off ``W^T x``.  Each grid vector comes from ``A_I``'s eigendecomposition,
or from a shifted solve where that vector fails its certificate.
``bound_report`` and ``sample_path`` set up one instance, ``verify`` a
block of them, solved together.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .spectral import _components, _row_bits, _solve_paths


class GraphParseError(ValueError):
    """Malformed edge-list text (bad header, token, vertex, or self-loop)."""


class PerturbationError(ValueError):
    """A perturbation that violates its structural preconditions."""


class DisconnectedError(ValueError):
    """A perturbed graph that is disconnected, where the bounds do not apply."""


class PerturbationKind(enum.Enum):
    VERTEX_CONNECTION = "vertex"
    EDGE_ADDITION = "edge"
    PENDANT_EDGE = "pendant"


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
        for edge in self.edges:
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a vertex pair") from None
            if type(i) is not int or type(j) is not int:  # plain ints skip the slower test
                if not (_is_index(i) and _is_index(j)):
                    raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer vertex")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return _normalize_edge(i, j) in self.edges

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return degs

    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix."""
        a = np.zeros((self.n, self.n))
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
    neighbors = [0] * g.n
    for i, j in g.edges:
        neighbors[i] |= 1 << j
        neighbors[j] |= 1 << i
    return len(_components(neighbors)) == 1


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
    return _is_cone(g, (apex,))


def is_double_cone_over_regular(g: Graph, u: int, v: int) -> bool:
    """True iff ``u`` and ``v`` are nonadjacent, each adjacent to all remaining
    vertices, and the remaining graph is regular."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("double-cone vertices must be distinct")
    return _is_cone(g, (u, v))


def _is_cone(g: Graph, apexes: tuple[int, ...]) -> bool:
    """True iff no edge joins two apexes, each apex is adjacent to every other
    vertex, and the rest is regular (its degrees include the apex edges)."""
    degs = g.degrees()
    if any(degs[a] != g.n - len(apexes) for a in apexes):
        return False
    if any(g.has_edge(a, b) for a in apexes for b in apexes if a < b):
        return False
    rest = [d for v, d in enumerate(degs) if v not in apexes]
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

class _Shape(NamedTuple):
    """What a kind asks of a perturbation, and the usage line of its spec."""

    counts: range  # allowed number of targets
    wording: str  # that rule, in words
    usage: str
    isolated: bool  # whether ``u`` must be isolated in the host


_SHAPES = {
    PerturbationKind.VERTEX_CONNECTION: _Shape(
        range(1, sys.maxsize), "at least one target", "vertex u v1 [v2 ...]", True
    ),
    PerturbationKind.EDGE_ADDITION: _Shape(range(1, 2), "one opposite endpoint", "edge u v", False),
    PerturbationKind.PENDANT_EDGE: _Shape(range(1), "no targets", "pendant u", False),
}


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
        ts = self.targets
        if len(ts) not in _SHAPES[self.kind].counts:
            name = self.kind.name.lower().replace("_", " ")
            raise PerturbationError(f"{name} needs {_SHAPES[self.kind].wording}, got {ts}")
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


def _added_edges(g: Graph, p: Perturbation) -> list[tuple[int, int]]:
    """The edges ``p`` adds to ``g``, once ``p`` is checked to apply to ``g``."""
    if p.u >= g.n:
        raise PerturbationError(f"vertex {p.u} out of range for n={g.n}")
    if _SHAPES[p.kind].isolated and g.degree(p.u) != 0:
        raise PerturbationError(f"vertex {p.u} is not isolated")
    for t in p.targets:
        if t >= g.n:
            raise PerturbationError(f"vertex {t} out of range for n={g.n}")
        if g.has_edge(p.u, t):
            raise PerturbationError(f"edge ({p.u}, {t}) already present")
    return [_normalize_edge(p.u, t) for t in p.targets or (g.n,)]


def perturbed_dimension(g: Graph, p: Perturbation) -> int:
    """Vertex count of the final graph (grows by one for a pendant edge)."""
    return g.n + (not p.targets)


def apply_perturbation(g: Graph, p: Perturbation) -> Graph:
    """The final graph after the perturbation (validated)."""
    return Graph(perturbed_dimension(g, p), g.edges | frozenset(_added_edges(g, p)))


def perturbation_matrix(g: Graph, p: Perturbation) -> np.ndarray:
    """The symmetric 0/1 difference matrix (final minus zero-padded initial):
    the adjacency matrix of the added edges alone.

    Its dimension matches the final graph, so for a pendant edge it is
    (n+1) x (n+1) with ones only at the new off-diagonal pair.
    """
    return Graph(perturbed_dimension(g, p), frozenset(_added_edges(g, p))).adjacency()


def bound_parameters(g: Graph, p: Perturbation) -> dict[str, int]:
    """The degree/size data the closed-form bounds need, read off the host."""
    _added_edges(g, p)
    return _degree_data(g, p)


def _degree_data(g: Graph, p: Perturbation) -> dict[str, int]:
    """:func:`bound_parameters` of a perturbation known to apply."""
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        return {"g": len(p.targets)}
    return {key: g.degree(v) for key, v in zip(("delta_u", "delta_v"), (p.u, *p.targets))}


class _Instance(NamedTuple):
    """``pert`` on ``graph``, set up and solved once for the path ``A_I + t P``."""

    graph: Graph
    pert: Perturbation
    params: dict[str, int]  # :func:`bound_parameters`
    lambda_i: float  # with ``vector``, ``perron_components`` of ``A_I``
    vector: np.ndarray
    grid: np.ndarray  # the points ``k/steps`` past ``t = 0``
    values: np.ndarray  # with ``vectors`` as rows, the Perron pairs at the grid
    vectors: np.ndarray
    forms: np.ndarray  # the quadratic forms ``<P x, x>`` of the grid vectors
    lhs: np.ndarray  # central differences of the top eigenvalue at the interior grid
    lambda_f: Optional[float]  # the top eigenvalue of ``A_I + P``, if asked for


def _instances(pairs, tol: float, steps: int = 0, final: bool = True) -> list[_Instance]:
    """Set each ``(g, p)`` of ``pairs`` up, then solve them all together:
    ``A_I``'s components, certified Perron pairs on the grid ``k/steps``
    with their quadratic forms ``<P x, x>``, top eigenvalues at the interior
    grid plus and minus ``h = min(1e-5, 1/(4 steps))`` for central
    differences, and, with
    ``final``, the top eigenvalue of ``A_I + P``.  The grid and difference
    points are roots of one secular equation per instance, from one ``eigh``
    per stack of equal-size components; ``A_I + P`` takes one ``eigvalsh``
    per stack.  :class:`DisconnectedError` unless every ``A_I + P`` is
    connected."""
    grid = np.arange(1, steps + 1) / max(steps, 1)  # empty for steps = 0
    h = min(1e-5, 1.0 / (4.0 * max(steps, 1)))
    inner = grid[:-1]
    setups, paths = [], []
    for g, p in pairs:
        p_mat = perturbation_matrix(g, p)  # checks that p applies to g
        a_initial = np.zeros_like(p_mat)
        a_initial[: g.n, : g.n] = g.adjacency()
        comps = _components(_row_bits(a_initial))  # the host's, and a pendant vertex alone
        if not _joins_components(comps, p, g.n):
            raise DisconnectedError("the perturbed graph is disconnected")
        w = np.zeros((len(p_mat), 2))
        w[p.u, 0] = 1.0
        w[list(p.targets or (g.n,)), 1] = 1.0
        paths.append((a_initial, p_mat, w, comps))
        setups.append((g, p, _degree_data(g, p)))
    solved = _solve_paths(paths, grid, np.concatenate([inner + h, inner - h]), tol, final)
    insts = []
    for setup, (_, _, w, _), solution in zip(setups, paths, solved):
        lambda_i, vector, values, vectors, tops, lambda_f = solution
        z = vectors @ w  # W^T x per grid point: <P x, x> = 2 x_u (s . x)
        forms = 2.0 * z[:, 0] * z[:, 1]
        lhs = (tops[: len(inner)] - tops[len(inner) :]) / (2.0 * h)
        path = (lambda_i, vector, grid, values, vectors, forms, lhs, lambda_f)
        insts.append(_Instance(*setup, *path))
    return insts


def _joins_components(comps: list[list[int]], p: Perturbation, n: int) -> bool:
    """Whether the edges that ``p`` adds, from ``u`` to each target (to ``n``
    without targets), reach every component of ``comps``: whether ``A_I + P``
    is connected.  Per kind: a vertex connection's targets meet every
    component but ``{u}``; an added edge finds one component, or joins two;
    a pendant edge needs a connected host."""
    label = {v: k for k, comp in enumerate(comps) for v in comp}
    return len({label[v] for v in (p.u, *(p.targets or (n,)))}) == len(comps)


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
    if not nums or len(nums) - 1 not in _SHAPES[kind].counts:
        raise PerturbationError(f"usage: {_SHAPES[kind].usage}")
    return Perturbation(kind, nums[0], tuple(sorted(nums[1:])))


def format_perturbation_spec(p: Perturbation) -> str:
    return " ".join(str(x) for x in (p.kind.value, p.u, *p.targets))
