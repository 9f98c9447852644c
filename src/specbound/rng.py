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
:func:`_draw` draws a block of trials, each from its own stream, in rounds.
A round draws ``_DRAW_WORDS`` words of every trial not yet connected, in
one array pass: the trial's size if it needs one, then as many speculative
attempts as fit.  Each trial tests its attempts in order on their bit rows,
with the one graph search of :mod:`specbound.spectral`, and resumes its
stream after the first connected one; an attempt of more pairs than the
round holds is drawn alone, in chunks.  An added edge whose host came out
complete draws its size again.  One more pass draws the targets, the
opposite endpoint or the pendant anchor.  :func:`_set_up` fills a block's
per-size ``A_I`` and ``W`` stacks and its components from those bit rows,
for :func:`~specbound.graphs._solve_stacks`, so a drawn trial builds no
:class:`~specbound.graphs.Graph`.  :func:`random_instance` and
:func:`random_connected_graph` are the draw of one trial.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from typing import NamedTuple, Optional

import numpy as np

from .graphs import (
    _BLOCK_ENTRIES,
    _SHAPES,
    Graph,
    Perturbation,
    PerturbationKind,
    _added_edges,
    _BitGraph,
    _check_vertex_count,
    _ends,
    _w_stack,
)
from .spectral import _components, _row_bits, _unpack_rows

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = tuple(np.uint64(c) for c in (_GOLDEN, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31))
_UNIFORM_SHIFT = np.uint64(11)  # a uniform float keeps a word's top 53 bits
# Words per trial and round, and the chunk of a larger attempt: 2 KiB.  An
# attempt within a round has at most 23 vertices, so its bit rows, summed
# as floats, stay exact.
_DRAW_WORDS = _BLOCK_ENTRIES >> 8

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


@functools.cache
def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(i, j)``, ``i < j``, of ``range(n)`` in lexicographic
    order, the order of an attempt's draws, for every ``n`` a round draws:
    ``i`` and ``j`` as arrays indexed by ``[n, pair]``, built on first use."""
    size = max(n for n in range(2, _DRAW_WORDS + 2) if n * (n - 1) // 2 <= _DRAW_WORDS)
    i, j = np.zeros((2, size + 1, size * (size - 1) // 2), dtype=np.int64)
    for n in range(2, size + 1):
        row, col = np.triu_indices(n, 1)
        i[n, : len(row)], j[n, : len(col)] = row, col
    return i, j


def _below(p) -> int:
    """The bound ``b`` with ``uniform() < p`` iff ``word >> 11 < b``, for
    an edge probability ``p``, unless ``p`` lies outside [0, 1]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p!r}")
    return math.ceil(float(p) * 2.0**53)


class _Trial:
    """One stream's draw in progress: the words taken, the connected part's
    size ``n`` (``None`` while it is still to draw, from ``lo`` and
    ``span``) and its bit rows once connected."""

    __slots__ = ("stream", "kind", "p", "below", "lo", "span", "n", "used", "tries", "rows")

    def __init__(
        self, stream: SplitMix64, kind, p, below: int, n: Optional[int] = None, n_max: int = 0
    ) -> None:
        if kind is PerturbationKind.EDGE_ADDITION and below >> 53:  # every host complete: no edge to add
            raise ValueError(f"an added edge needs an edge probability below 1, got {p!r}")
        self.stream, self.kind, self.p, self.below = stream, kind, p, below
        if n is None:
            lo, offset = _SHAPES[kind].sizes
            self.lo, self.span = lo, n_max + offset - lo + 1
        self.n, self.used, self.tries, self.rows = n, 0, 0, None

    def attempted(self, count: int, max_attempts: int) -> None:
        """Count ``count`` rejected attempts, ``RuntimeError`` past ``max_attempts``."""
        self.used += count * (self.n * (self.n - 1) // 2)
        self.tries += count
        if self.tries >= max_attempts:
            raise RuntimeError(f"no connected G({self.n}, {self.p}) found in {max_attempts} attempts")

    def connected(self, rows: list[int], tries: int) -> None:
        """Keep ``rows``, the ``tries``-th attempt, unless an added edge's
        host came out complete: then the size is drawn again."""
        self.used += tries * (self.n * (self.n - 1) // 2)
        edge = self.kind is PerturbationKind.EDGE_ADDITION
        if edge and sum(r.bit_count() for r in rows) == self.n * (self.n - 1):  # complete
            self.n, self.tries = None, 0
        else:
            self.rows = rows


def _connect(trials: list[_Trial], max_attempts: int) -> None:
    """Draw each trial's connected part into its ``rows``, in rounds.  A
    round draws the size of every trial that needs one, one word each in
    one pass; then the trials with at most ``_DRAW_WORDS`` pairs draw their
    next run of attempts together (:func:`_round`), and a larger one its
    attempts alone (:func:`_connect_alone`).  A part of one vertex is
    connected without a draw."""
    pending = trials
    while pending:
        sizing = [t for t in pending if t.n is None]
        if sizing:
            states = np.array([t.stream._state for t in sizing], dtype=np.uint64)
            words = _words(states, np.array([t.used + 1 for t in sizing], dtype=np.uint64))
            for t, word in zip(sizing, words.tolist()):
                t.n, t.used = t.lo + word % t.span, t.used + 1
        runs = []
        for t in pending:
            pairs = t.n * (t.n - 1) // 2
            if not pairs:
                t.rows = [0] * t.n
            elif pairs > _DRAW_WORDS:
                _connect_alone(t, max_attempts)
            else:
                runs.append(t)
        if runs:
            _round(runs, max_attempts)
        pending = [t for t in pending if t.rows is None]


def _round(trials: list[_Trial], max_attempts: int) -> None:
    """The next run of attempts of each trial, drawn in one array pass: as
    many as it has rejected so far, at least 4 and at most ``_DRAW_WORDS``
    words' worth.  Each trial tests its run in order, on bit rows that one
    ``bincount`` over the pass's edges builds for every attempt."""
    n = np.array([t.n for t in trials])
    pairs = n * (n - 1) // 2
    count = np.array(
        [min(max(4, t.tries), _DRAW_WORDS // p, max_attempts - t.tries) for t, p in zip(trials, pairs.tolist())]
    )
    length = count * pairs
    trial = np.repeat(np.arange(len(trials)), length)
    at = np.arange(len(trial)) - (np.cumsum(length) - length)[trial]  # the word's place in its trial's run
    used = np.array([t.used + 1 for t in trials])[trial] + at
    states = np.array([t.stream._state for t in trials], dtype=np.uint64)[trial]
    words = _words(states, used.astype(np.uint64))
    below = np.array([t.below for t in trials], dtype=np.uint64)
    hit = np.flatnonzero((words >> _UNIFORM_SHIFT) < below[trial])
    k = trial[hit]
    attempt, q = np.divmod(at[hit], pairs[k])
    i, j = (ends[n[k], q] for ends in _pair_table())
    base = (np.cumsum(count * n) - count * n)[k] + attempt * n[k]  # the attempt's first row
    sums = np.bincount(np.concatenate([base + i, base + j]), np.exp2(np.concatenate([j, i])), int(count @ n))
    rows, first = sums.astype(np.int64).tolist(), 0
    for t, tries, size in zip(trials, count.tolist(), n.tolist()):
        for a in range(tries):
            attempt_rows = rows[first + a * size : first + (a + 1) * size]
            if len(_components(attempt_rows)) == 1:
                t.connected(attempt_rows, a + 1)
                break
        else:
            t.attempted(tries, max_attempts)
        first += tries * size


def _connect_alone(t: _Trial, max_attempts: int) -> None:
    """Attempts of one trial with more pairs than a round holds, one at a
    time, each drawn in chunks of ``_DRAW_WORDS`` words into a boolean
    adjacency matrix, until one is connected."""
    n, pairs = t.n, t.n * (t.n - 1) // 2
    state, below = np.array([t.stream._state], dtype=np.uint64), np.uint64(t.below)
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # each row's first pair
    while True:
        adjacency = np.zeros((n, n), dtype=bool)
        for start in range(0, pairs, _DRAW_WORDS):
            q = np.arange(start, min(start + _DRAW_WORDS, pairs))
            q = q[(_words(state, (t.used + 1 + q).astype(np.uint64)) >> _UNIFORM_SHIFT) < below]
            i = np.searchsorted(starts, q, side="right") - 1
            adjacency[i, q - starts[i] + i + 1] = True
        adjacency |= adjacency.T
        rows = _row_bits(adjacency)
        if len(_components(rows)) == 1:
            t.connected(rows, 1)
            return
        t.attempted(1, max_attempts)


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


class _Drawn(NamedTuple):
    """A drawn trial: its perturbation (``kind``, ``u``, ``targets``, as a
    :class:`~specbound.graphs.Perturbation` reads them), its host as bit
    rows, with a vertex connection's isolated ``u``, and ``A_I``'s
    components."""

    kind: PerturbationKind
    u: int
    targets: tuple[int, ...]
    host: _BitGraph
    comps: list[list[int]]

    @property
    def size(self) -> int:
        """Vertex count of the final graph."""
        return self.host.n + (not self.targets)

    def pair(self) -> tuple[Graph, Perturbation]:
        return self.host.graph(), Perturbation(self.kind, self.u, self.targets)


def _draw(streams: list[SplitMix64], kinds, n_max: int, ps) -> list[_Drawn]:
    """One random instance per stream, of the kind and edge probability at
    its place in ``kinds`` and ``ps``, with at most ``n_max`` vertices in
    its final graph: the connected parts in rounds (:func:`_connect`), then
    one pass of the last draw, which leaves each stream where a draw one
    word at a time would.  A vertex connection joins an isolated vertex to
    its connected part, the other kinds perturb a connected host."""
    below = {p: _below(p) for p in set(ps)}
    trials = [_Trial(stream, kind, p, below[p], n_max=n_max) for stream, kind, p in zip(streams, kinds, ps)]
    _connect(trials, 10_000)
    drawn = []
    for t in trials:
        stream, n = t.stream, t.n
        stream._state = (stream._state + t.used * _GOLDEN) & _MASK64
        if t.kind is PerturbationKind.VERTEX_CONNECTION:
            u, targets, rows = n, tuple(stream.nonempty_subset(n)), t.rows + [0]
        elif t.kind is PerturbationKind.EDGE_ADDITION:
            missing = n * (n - 1) // 2 - sum(r.bit_count() for r in t.rows) // 2
            (u, v), rows = _missing_pair(t.rows, stream.randint(0, missing - 1)), t.rows
            targets = (v,)
        else:
            u, targets, rows = stream.randint(0, n - 1), (), t.rows
        comps = [list(range(n))] + [[n]] * (t.kind is not PerturbationKind.EDGE_ADDITION)
        drawn.append(_Drawn(t.kind, u, targets, _BitGraph(rows), comps))
    return drawn


def _set_up(drawn: list[_Drawn]) -> tuple[list, list]:
    """The components and the per-size stacks ``(group, A_I stack, W
    stack)`` of the drawn trials, for
    :func:`~specbound.graphs._solve_stacks`: each trial is checked with
    :func:`~specbound.graphs._added_edges` on its bit rows and against the
    vertex limit, and each size's ``A_I`` stack is its members' bit rows,
    unpacked in one pass."""
    by_size: dict[int, list[int]] = {}
    for k, d in enumerate(drawn):
        _added_edges(d.host, d)
        by_size.setdefault(_check_vertex_count(d.size), []).append(k)
    stacks = []
    for n, group in by_size.items():
        rows = [r for k in group for r in drawn[k].host.rows + [0] * (not drawn[k].targets)]
        a_stack = _unpack_rows(rows, n).reshape(len(group), n, n).astype(float, order="C")
        w_stack = _w_stack(n, [_ends(drawn[k], drawn[k].host.n) for k in group])
        stacks.append((group, a_stack, w_stack))
    return [d.comps for d in drawn], stacks


def random_connected_graph(rng: SplitMix64, n: int, p: float, max_attempts: int = 10_000) -> Graph:
    """Erdos-Renyi G(n, p), rejection-sampled until connected: each attempt
    draws its pairs ``(i, j)``, ``i < j``, in order, and the first connected
    one is kept."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    trial = _Trial(rng, None, p, _below(p), n=n)
    if max_attempts < 1:
        raise RuntimeError(f"no connected G({n}, {p}) found in {max_attempts} attempts")
    _connect([trial], max_attempts)
    rng._state = (rng._state + trial.used * _GOLDEN) & _MASK64
    return _BitGraph(trial.rows).graph()


def random_instance(
    rng: SplitMix64, kind: PerturbationKind, n_max: int, p: float
) -> tuple[Graph, Perturbation]:
    """A random host graph plus an applicable perturbation of the given kind.

    The final graph never exceeds ``n_max`` vertices and is always connected:
    vertex connections start from a connected component plus one isolated
    vertex, the other kinds start from a connected host.
    """
    if not isinstance(n_max, numbers.Integral) or isinstance(n_max, bool):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    if kind not in _SHAPES:  # pragma: no cover
        raise ValueError(f"unknown perturbation kind {kind}")
    return _draw([rng], [kind], int(n_max), [p])[0].pair()
