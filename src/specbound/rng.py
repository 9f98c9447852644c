"""Deterministic pseudo-randomness for the verification harness.

A self-contained splitmix64 generator keeps every randomized run bit-for-bit
reproducible across platforms and Python versions (the stdlib ``random``
module gives no such guarantee for floats drawn through its higher-level
API).  Graph generation is Erdos-Renyi with rejection sampling for
connectivity: each attempt sets its edges as bit rows while its pairs are
drawn, and the one graph search of :mod:`specbound.spectral` tests them, so
a rejected attempt builds no :class:`~specbound.graphs.Graph`.
"""

from __future__ import annotations

from .graphs import Graph, Perturbation, PerturbationKind
from .spectral import _components

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

EDGE_PROBABILITIES = (0.3, 0.5, 0.8)


class SplitMix64:
    """splitmix64: 64-bit state, one addition and two xor-multiply mixes."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), as a Python ``int``."""
        lo, hi = int(lo), int(hi)  # a numpy bound would overflow the 64-bit draw
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if hi - lo >= 1 << 64:  # one draw would never reach the high values
            raise ValueError(f"range [{lo}, {hi}] spans more than 2^64 integers")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def nonempty_subset(self, count: int) -> list[int]:
        """Random nonempty subset of range(count), as a sorted list.  Up to 64
        elements, one :meth:`randint` draw of the mask; above, one word per
        64 elements, low word first, masked to ``count`` bits and drawn
        again while empty."""
        if count < 1:
            raise ValueError("need at least one element")
        if count <= 64:
            mask = self.randint(1, (1 << count) - 1)
        else:
            mask = 0
            while not mask:
                words = (self.next_u64() << 64 * k for k in range(-(-count // 64)))
                mask = sum(words) & ((1 << count) - 1)
        return [i for i in range(count) if mask >> i & 1]

    @staticmethod
    def spawn(seed: int, index: int) -> "SplitMix64":
        """Independent child stream: deterministic in (seed, index)."""
        return SplitMix64((seed * _GOLDEN + index + 1) & _MASK64)


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
