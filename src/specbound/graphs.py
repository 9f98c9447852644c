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

The pendant vertex is always appended at index ``n`` so that the adjacency
matrices of the initial and final graphs align deterministically (the
initial matrix is zero-padded by one row/column).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np


class GraphParseError(ValueError):
    """Malformed edge-list text (bad header, token, vertex, or self-loop)."""


class PerturbationError(ValueError):
    """A perturbation that violates its structural preconditions."""


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

    def neighbors(self, v: int) -> list[int]:
        self._check_vertex(v)
        out = [j for i, j in self.edges if i == v]
        out += [i for i, j in self.edges if j == v]
        return sorted(out)

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
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex pairs; duplicates collapse, self-loops raise."""
    edges = set()
    for i, j in pairs:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        edges.add(_normalize_edge(i, j))
    return Graph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n >= 1)."""
    if g.n < 1:
        raise ValueError("connectivity is undefined for the empty graph")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


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
    if g.degree(apex) != g.n - 1:
        return False
    if g.n == 1:
        return True
    rest = [v for v in range(g.n) if v != apex]
    degs = [g.degree(v) for v in rest]  # each includes the apex edge
    return all(d == degs[0] for d in degs)


def is_double_cone_over_regular(g: Graph, u: int, v: int) -> bool:
    """True iff ``u`` and ``v`` are nonadjacent, each adjacent to all remaining
    vertices, and the remaining graph is regular."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("double-cone vertices must be distinct")
    if g.has_edge(u, v):
        return False
    if g.degree(u) != g.n - 2 or g.degree(v) != g.n - 2:
        return False
    rest = [w for w in range(g.n) if w not in (u, v)]
    if not rest:
        return True
    degs = [g.degree(w) for w in rest]  # each includes the two cone edges
    return all(d == degs[0] for d in degs)


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
    edge (whose new vertex is implicitly index ``n``).
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
        if self.kind is PerturbationKind.VERTEX_CONNECTION:
            if not ts:
                raise PerturbationError("vertex connection needs at least one target")
            if len(set(ts)) != len(ts):
                raise PerturbationError(f"duplicate targets in {ts}")
            if self.u in ts:
                raise PerturbationError(f"target list contains the isolated vertex {self.u}")
        elif self.kind is PerturbationKind.EDGE_ADDITION:
            if len(ts) != 1:
                raise PerturbationError(f"edge addition needs one opposite endpoint, got {ts}")
            if self.u == ts[0]:
                raise PerturbationError("edge endpoints must be distinct")
        elif ts:
            raise PerturbationError(f"pendant edge takes no targets, got {ts}")

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
    def v(self) -> int:
        if self.kind is not PerturbationKind.EDGE_ADDITION:
            raise AttributeError("v is only defined for edge additions")
        return self.targets[0]

    @property
    def g(self) -> int:
        return len(self.targets)


def validate_perturbation(g: Graph, p: Perturbation) -> None:
    """Raise :class:`PerturbationError` unless ``p`` is applicable to ``g``."""
    if not (0 <= p.u < g.n):
        raise PerturbationError(f"vertex {p.u} out of range for n={g.n}")
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        if g.degree(p.u) != 0:
            raise PerturbationError(f"vertex {p.u} is not isolated")
        for t in p.targets:
            if not (0 <= t < g.n):
                raise PerturbationError(f"target {t} out of range for n={g.n}")
    elif p.kind is PerturbationKind.EDGE_ADDITION:
        v = p.targets[0]
        if not (0 <= v < g.n):
            raise PerturbationError(f"vertex {v} out of range for n={g.n}")
        if g.has_edge(p.u, v):
            raise PerturbationError(f"edge ({p.u}, {v}) already present")


def perturbed_dimension(g: Graph, p: Perturbation) -> int:
    """Vertex count of the final graph (grows by one for a pendant edge)."""
    return g.n + 1 if p.kind is PerturbationKind.PENDANT_EDGE else g.n


def apply_perturbation(g: Graph, p: Perturbation) -> Graph:
    """The final graph after the perturbation (validated)."""
    validate_perturbation(g, p)
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        new_edges = {_normalize_edge(p.u, t) for t in p.targets}
        return Graph(g.n, frozenset(g.edges | new_edges))
    if p.kind is PerturbationKind.EDGE_ADDITION:
        return Graph(g.n, frozenset(g.edges | {_normalize_edge(p.u, p.targets[0])}))
    return Graph(g.n + 1, frozenset(g.edges | {(p.u, g.n)}))


def perturbation_matrix(g: Graph, p: Perturbation) -> np.ndarray:
    """The symmetric 0/1 difference matrix (final minus zero-padded initial).

    Its dimension matches the final graph, so for a pendant edge it is
    (n+1) x (n+1) with ones only at the new off-diagonal pair.
    """
    validate_perturbation(g, p)
    dim = perturbed_dimension(g, p)
    mat = np.zeros((dim, dim))
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        for t in p.targets:
            mat[p.u, t] = mat[t, p.u] = 1.0
    elif p.kind is PerturbationKind.EDGE_ADDITION:
        v = p.targets[0]
        mat[p.u, v] = mat[v, p.u] = 1.0
    else:
        mat[p.u, g.n] = mat[g.n, p.u] = 1.0
    return mat


def bound_parameters(g: Graph, p: Perturbation) -> dict[str, int]:
    """The degree/size data the closed-form bounds need, read off the host."""
    validate_perturbation(g, p)
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        return {"g": len(p.targets)}
    if p.kind is PerturbationKind.EDGE_ADDITION:
        return {"delta_u": g.degree(p.u), "delta_v": g.degree(p.targets[0])}
    return {"delta_u": g.degree(p.u)}


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
    if name == "vertex":
        if len(nums) < 2:
            raise PerturbationError("usage: vertex u v1 [v2 ...]")
        return Perturbation.vertex_connection(nums[0], nums[1:])
    if name == "edge":
        if len(nums) != 2:
            raise PerturbationError("usage: edge u v")
        return Perturbation.edge_addition(nums[0], nums[1])
    if name == "pendant":
        if len(nums) != 1:
            raise PerturbationError("usage: pendant u")
        return Perturbation.pendant_edge(nums[0])
    raise PerturbationError(f"unknown perturbation kind {name!r}")


def format_perturbation_spec(p: Perturbation) -> str:
    if p.kind is PerturbationKind.VERTEX_CONNECTION:
        return "vertex " + " ".join(str(x) for x in (p.u, *p.targets))
    if p.kind is PerturbationKind.EDGE_ADDITION:
        return f"edge {p.u} {p.targets[0]}"
    return f"pendant {p.u}"
