"""Deterministic pseudo-randomness for the verification harness.

A self-contained splitmix64 generator keeps every randomized run bit-for-bit
reproducible across platforms and Python versions (the stdlib ``random``
module gives no such guarantee for floats drawn through its higher-level
API).  Its state after ``k`` draws is ``seed + k * golden``, so its ``k``-th
output depends only on ``(seed, k)``: the counter form of Steele, Lea and
Flood ("Fast splittable pseudorandom number generators", OOPSLA 2014).
:func:`_words` computes such outputs of many streams at once as numpy
``uint64`` arrays, with the bits :class:`SplitMix64` draws one at a time.

Graph generation is Erdos-Renyi with rejection sampling for connectivity.
One generator, :func:`_connected_part`, draws a trial's connected part word
by word, as the scalar draw reads them: its size, then attempts pair by
pair, each tested with the one graph search of :mod:`specbound.spectral`.
:func:`_connect` runs many trials' generators in rounds: one :func:`_words`
pass computes the next run of words of every trial still drawing.
:func:`_draw` then draws each trial's targets, opposite endpoint or pendant
anchor, and hands the trial over, checked, as the record
:class:`~specbound.graphs._Trial` that
:func:`~specbound.graphs._solve_stacks` sets up from its bit rows, so a
drawn trial builds no :class:`~specbound.graphs.Graph`.
:func:`random_instance` and :func:`random_connected_graph` are the draw of
one trial.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Optional

import numpy as np

from .bounds import KIND_SPECS, PerturbationKind
from .graphs import (
    _BLOCK_ENTRIES,
    _MAX_VERTICES,
    Graph,
    Perturbation,
    _added_edges,
    _BitGraph,
    _check_vertex_count,
    _Trial,
    _with_lone_vertex,
)
from .spectral import _components

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = tuple(np.uint64(c) for c in (_GOLDEN, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))
_RUN_WORDS = _BLOCK_ENTRIES >> 4  # the most words a trial is sent in one round: 32 KiB

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
        count = operator.index(count)  # a numpy count would overflow the mask
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


def _words(states: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output number ``counters`` (from 1) of the splitmix64 streams at
    ``states``, both ``uint64`` arrays: each the mix of ``state + counter *
    golden``, with the bits of :meth:`SplitMix64.next_u64`.  ``uint64``
    arrays wrap silently, where numpy scalars would warn."""
    golden, s1, m1, s2, m2, s3 = _MIX
    z = states + counters * golden
    z = (z ^ (z >> s1)) * m1
    z = (z ^ (z >> s2)) * m2
    return z ^ (z >> s3)


def _below(p) -> int:
    """The bound ``b`` with ``uniform() < p`` iff ``word >> 11 < b``, for
    an edge probability ``p``, unless ``p`` lies outside [0, 1]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p!r}")
    return math.ceil(float(p) * 2.0**53)


def _check_n_max(n_max) -> int:
    """``n_max``, the most vertices of a drawn final graph, as an int, unless
    it is not an integer in [3, ``_MAX_VERTICES``]."""
    if not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    if n_max > _MAX_VERTICES:
        raise ValueError(f"n_max must be at most {_MAX_VERTICES}, got {n_max}")
    return int(n_max)


def _connected_part(kind, p, below: int, n: Optional[int], n_max: int, max_attempts: int):
    """The connected part of one trial, read as the scalar draw reads its
    words: its size unless ``n`` is given, then attempts pair by pair until
    one is connected, and the size again if an added edge's host came out
    complete.  It yields how many words it would read next, is sent a run
    of that many of its stream's next words, and returns its bit rows, or
    the ``RuntimeError`` of exhausted attempts, and the number of words it
    read of its last run."""
    if kind is PerturbationKind.EDGE_ADDITION and below >> 53:  # every host complete: no edge to add
        raise ValueError(f"an added edge needs an edge probability below 1, got {p!r}")
    limit, run, at, end = below << 11, (), 0, 0  # word >> 11 < below iff word < limit, which shifts no word
    while True:
        if n is None:
            if at == end:
                run = yield min(_RUN_WORDS, 1 + 2 * n_max * (n_max - 1))  # 4 attempts at n_max vertices
                at, end = 0, len(run)
            lo, offset = KIND_SPECS[kind].sizes
            n, at = lo + run[at] % (n_max + offset - lo + 1), at + 1
        pairs = n * (n - 1) // 2
        for tries in range(max_attempts):
            rows = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if at == end:
                        run = yield min(_RUN_WORDS, max(4, tries) * pairs)
                        at, end = 0, len(run)
                    if run[at] < limit:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
                    at += 1
            if len(_components(rows)) == 1:
                break
        else:
            return RuntimeError(f"no connected G({n}, {p}) found in {max_attempts} attempts"), at
        if kind is not PerturbationKind.EDGE_ADDITION or sum(r.bit_count() for r in rows) < 2 * pairs:
            return rows, at
        n = None


def _connect(streams: list[SplitMix64], parts: list) -> list[list[int]]:
    """The bit rows of each :func:`_connected_part` in ``parts``, run to its
    end in rounds.  A round computes every pending part's run, as many
    words as it asks for, from ``streams[k]``, in one :func:`_words` pass,
    sends it, and advances each stream by the words its part read, then
    raises a part's error of exhausted attempts."""
    rows, sent = [None] * len(parts), [(k, None) for k in range(len(parts))]  # None starts a generator
    while True:
        wants = []
        for k, run in sent:
            try:
                wants.append((k, parts[k].send(run)))
                read = len(run or ())
            except StopIteration as done:
                rows[k], read = done.value
            streams[k]._state = (streams[k]._state + read * _GOLDEN) & _MASK64
            if isinstance(rows[k], RuntimeError):
                raise rows[k]
        if not wants:
            return rows
        states = np.array([streams[k]._state for k, _ in wants], dtype=np.uint64)
        words = _words(states[:, None], np.arange(1, max(count for _, count in wants) + 1, dtype=np.uint64))
        sent = [(k, row[:count].tolist()) for (k, count), row in zip(wants, words)]


def _missing_pair(rows: list[int], r: int) -> tuple[int, int]:
    """The ``r``-th pair ``(i, j)``, ``i < j``, in lexicographic order, that
    is not an edge of the bit rows ``rows``."""
    n = len(rows)
    for i, row in enumerate(rows):
        free = ~(row >> (i + 1)) & ((1 << (n - 1 - i)) - 1)  # bit j - i - 1 for each non-edge (i, j)
        if r < free.bit_count():
            for _ in range(r):
                free &= free - 1
            return i, i + (free & -free).bit_length()
        r -= free.bit_count()
    raise ValueError("no missing pair")  # pragma: no cover - complete hosts are drawn again


def _draw(streams: list[SplitMix64], kinds, n_max: int, ps) -> list[_Trial]:
    """One random instance per stream, of the kind and edge probability at
    its place in ``kinds`` and ``ps``, with at most ``n_max`` vertices in
    its final graph: the connected parts (:func:`_connect`), then each
    last draw.  A vertex connection joins an isolated vertex to its
    connected part, the other kinds perturb a connected host.  Each trial
    is checked where it is built, with
    :func:`~specbound.graphs._added_edges` on its bit rows and against the
    vertex limit."""
    below = {p: _below(p) for p in set(ps)}
    parts = [_connected_part(kind, p, below[p], None, n_max, 10_000) for kind, p in zip(kinds, ps)]
    drawn = []
    for stream, kind, rows in zip(streams, kinds, _connect(streams, parts)):
        n = len(rows)
        host, comps = _with_lone_vertex(rows, [list(range(n))], kind is PerturbationKind.VERTEX_CONNECTION)
        if kind is PerturbationKind.VERTEX_CONNECTION:
            u, targets = n, tuple(stream.nonempty_subset(n))
        elif kind is PerturbationKind.EDGE_ADDITION:
            missing = n * (n - 1) // 2 - sum(r.bit_count() for r in rows) // 2
            u, v = _missing_pair(rows, stream.randint(0, missing - 1))
            targets = (v,)
        else:
            u, targets = stream.randint(0, n - 1), ()
        trial = _Trial(kind, u, targets, _BitGraph(host), comps)
        _added_edges(trial.host, trial)  # PerturbationError unless it applies
        _check_vertex_count(trial.size)
        drawn.append(trial)
    return drawn


def random_connected_graph(rng: SplitMix64, n: int, p: float, max_attempts: int = 10_000) -> Graph:
    """Erdos-Renyi G(n, p), rejection-sampled until connected: each attempt
    draws its pairs ``(i, j)``, ``i < j``, in order, and the first connected
    one is kept."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    below = _below(p)
    if isinstance(max_attempts, bool) or not isinstance(max_attempts, numbers.Integral):
        raise ValueError(f"max_attempts must be an integer, got {max_attempts!r}")
    (rows,) = _connect([rng], [_connected_part(None, p, below, n, n, int(max_attempts))])
    return _BitGraph(rows).graph()


def random_instance(
    rng: SplitMix64, kind: PerturbationKind, n_max: int, p: float
) -> tuple[Graph, Perturbation]:
    """A random host graph plus an applicable perturbation of the given kind.

    The final graph never exceeds ``n_max`` vertices and is always connected:
    vertex connections start from a connected component plus one isolated
    vertex, the other kinds start from a connected host.
    """
    n_max = _check_n_max(n_max)
    if kind not in KIND_SPECS:  # pragma: no cover
        raise ValueError(f"unknown perturbation kind {kind}")
    return _draw([rng], [kind], n_max, [p])[0].pair()
