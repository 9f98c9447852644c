"""Deterministic PRNG and random instance generation."""

import hashlib
import math

import numpy as np
import pytest

import oracles
import specbound as sb
import specbound.rng as rng_module
from specbound.rng import EDGE_PROBABILITIES, SplitMix64, random_connected_graph, random_instance
from specbound.verify import _blocks


def test_splitmix64_reference_first_output():
    # published reference output for seed 0
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_streams_are_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_uniform_range_and_determinism():
    rng = SplitMix64(9)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) > 990  # no obvious collisions


def test_randint_bounds():
    rng = SplitMix64(3)
    vals = [rng.randint(2, 5) for _ in range(200)]
    assert set(vals) == {2, 3, 4, 5}
    with pytest.raises(ValueError):
        rng.randint(5, 2)


def test_nonempty_subset():
    rng = SplitMix64(4)
    for _ in range(100):
        s = rng.nonempty_subset(6)
        assert s and all(0 <= i < 6 for i in s) and s == sorted(s)


def test_randint_refuses_a_span_one_draw_cannot_cover():
    # One 64-bit draw reduced modulo the span never reaches the values above
    # 2^64: such a range is refused, and the widest one-draw range is not.
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match="more than 2\\^64"):
        rng.randint(0, 1 << 64)
    assert SplitMix64(3).randint(1, 1 << 64) == 1 + SplitMix64(3).next_u64()


@pytest.mark.parametrize("count", [1, 6, 63, 64])
def test_nonempty_subset_up_to_64_elements_is_one_randint_draw(count):
    # The draws of verify's n_max <= 65 keep their bits.
    rng, ref = SplitMix64(11), SplitMix64(11)
    for _ in range(50):
        mask = ref.randint(1, (1 << count) - 1)
        assert rng.nonempty_subset(count) == [i for i in range(count) if mask >> i & 1]


@pytest.mark.parametrize("count", [65, 100, 130])
def test_nonempty_subset_above_64_elements_reaches_every_element(count):
    rng = SplitMix64(4)
    seen = set()
    for _ in range(200):
        s = rng.nonempty_subset(count)
        assert s and s == sorted(s) and 0 <= s[0] and s[-1] < count
        seen.update(s)
    assert seen == set(range(count))


class ScriptedRng(SplitMix64):
    __slots__ = ("words",)

    def __init__(self, words) -> None:
        super().__init__(0)
        self.words = list(words)

    def next_u64(self) -> int:
        return self.words.pop(0)


def test_nonempty_subset_above_64_elements_masks_its_words_and_redraws_an_empty_one():
    # 100 elements take two words, the low word first; bit 40 of the high
    # word is element 104, masked off, so that draw is empty and redrawn.
    rng = ScriptedRng([0, 1 << 40, 5, 1 << 35 | 1 << 36])
    assert rng.nonempty_subset(100) == [0, 2, 99]
    assert rng.words == []


def test_vertex_connection_reaches_targets_above_63():
    # A host of more than 64 vertices gets targets among all its vertices.
    targets = []
    for seed in range(5):
        rng = SplitMix64.spawn(seed, 0)
        host, pert = random_instance(rng, sb.PerturbationKind.VERTEX_CONNECTION, 200, 0.3)
        assert all(t < pert.u == host.n - 1 for t in pert.targets)
        targets += pert.targets
    assert max(targets) >= 64


def test_spawn_gives_independent_reproducible_streams():
    x = SplitMix64.spawn(42, 7).next_u64()
    y = SplitMix64.spawn(42, 7).next_u64()
    z = SplitMix64.spawn(42, 8).next_u64()
    assert x == y and x != z


def test_random_connected_graph():
    rng = SplitMix64(5)
    for n in (1, 2, 5, 9):
        g = random_connected_graph(rng, n, 0.5)
        assert g.n == n and sb.is_connected(g)


def test_random_instances_are_valid():
    for kind in sb.PerturbationKind:
        for i in range(20):
            rng = SplitMix64.spawn(100, i)
            host, pert = random_instance(rng, kind, 9, 0.5)
            final = sb.apply_perturbation(host, pert)  # validates
            assert final.n <= 9
            assert sb.is_connected(final)
            assert pert.kind is kind


def test_numpy_bounds_draw_like_python_ints():
    assert type(SplitMix64(3).randint(0, np.int64(5))) is int
    for kind in sb.PerturbationKind:
        for i in range(10):
            expected = random_instance(SplitMix64.spawn(100, i), kind, 9, 0.5)
            for n_max in (np.int64(9), np.int32(9)):
                assert random_instance(SplitMix64.spawn(100, i), kind, n_max, 0.5) == expected


# sha256 of the edge lists and specs that ``verify --trials 30`` draws for
# trials 0-29 of seeds 0-4, in trial order: a change to the draw fails here
# on its own, not only through the summary extremes it moves.
DRAW_DIGESTS = {
    0: "de868f3f9371571d",
    1: "d8cb8ebaa506676b",
    2: "1377db2829a7f381",
    3: "7ab3bb6912ec9254",
    4: "a93abeb9498a2acc",
}


@pytest.mark.parametrize("seed", sorted(DRAW_DIGESTS))
def test_verify_draws_keep_their_bits(seed):
    digest = hashlib.sha256()
    for block in _blocks(seed, 30, 9, 8):
        for _, drawn in block:
            host, pert = drawn.pair()
            digest.update(f"{sb.format_edge_list(host)}{sb.format_perturbation_spec(pert)}\n".encode())
    assert digest.hexdigest()[:16] == DRAW_DIGESTS[seed]


def test_random_connected_graph_builds_one_graph_per_call(monkeypatch):
    # A rejected attempt is tested on its bit rows and builds no Graph.
    built, tested = [], []
    post_init, components = sb.Graph.__post_init__, rng_module._components

    def counted(self):
        built.append(self.n)
        post_init(self)

    def searched(rows):
        tested.append(len(rows))
        return components(rows)

    monkeypatch.setattr(sb.Graph, "__post_init__", counted)
    monkeypatch.setattr(rng_module, "_components", searched)
    for seed in range(10):
        built.clear()
        g = random_connected_graph(SplitMix64(seed), 9, 0.2)
        assert built == [9] and sb.is_connected(g)
    assert set(tested) == {9} and len(tested) > 20  # most calls rejected several attempts


# ---------------------------------------------------------------------------
# The block draw against the scalar reference draw of ``oracles``
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_max", [3, 4, 9, 20, 70, 130])
def test_block_draw_equals_the_scalar_reference(n_max):
    # Seeds 0-199, every kind at each edge probability in turn, drawn as one
    # block: each instance, and the state each stream is left in, are those
    # of the draw one uniform at a time.  Above 64 vertices a target mask
    # takes several words, and above 91 an attempt spans several runs.
    streams, kinds, ps, expected = [], [], [], []
    for seed in range(200):
        for k, kind in enumerate(sb.PerturbationKind):
            p = EDGE_PROBABILITIES[(seed + k) % 3]
            ref = SplitMix64.spawn(seed, k)
            expected.append((oracles.random_instance(ref, kind, n_max, p), ref._state))
            streams.append(SplitMix64.spawn(seed, k))
            kinds.append(kind)
            ps.append(p)
    drawn = rng_module._draw(streams, kinds, n_max, ps)
    assert [(d.pair(), s._state) for d, s in zip(drawn, streams)] == expected


@pytest.mark.parametrize("kind", list(sb.PerturbationKind))
def test_random_instance_is_the_draw_of_one_trial(kind):
    # Two draws from one stream: the second starts where the first left it.
    for seed in range(200):
        ours, ref = SplitMix64(seed), SplitMix64(seed)
        for n_max, p in ((9, 0.3), (20, 0.8)):
            assert random_instance(ours, kind, n_max, p) == oracles.random_instance(ref, kind, n_max, p)
            assert ours._state == ref._state


def test_random_connected_graph_equals_the_scalar_reference():
    # n = 1 reads no pair word; an attempt at n = 100 is longer than one run.
    assert 100 * 99 // 2 > rng_module._RUN_WORDS
    for seed in range(40):
        for n, p in ((1, 0.5), (2, 0.2), (5, 0.3), (23, 0.1), (24, 0.1), (40, 0.2), (100, 0.05)):
            ours, ref = SplitMix64(seed), SplitMix64(seed)
            assert random_connected_graph(ours, n, p) == oracles.random_connected_graph(ref, n, p)
            assert ours._state == ref._state


@pytest.mark.parametrize(
    "n, p, attempts", [(5, 0.0, 7), (3, 0.01, 1), (40, 0.0, 2), (4, 0.5, 0), (100, 0.0, 2)]
)
def test_exhausted_attempts_keep_their_message(n, p, attempts):
    # The stream is left where the reference leaves it, the words read of
    # the last run included.  At n = 100 an attempt is longer than a run.
    ours, ref = SplitMix64(1), SplitMix64(1)
    with pytest.raises(RuntimeError) as raised:
        random_connected_graph(ours, n, p, attempts)
    with pytest.raises(RuntimeError) as expected:
        oracles.random_connected_graph(ref, n, p, attempts)
    assert str(raised.value) == str(expected.value) == f"no connected G({n}, {p}) found in {attempts} attempts"
    assert ours._state == ref._state


@pytest.mark.parametrize("attempts", [2.5, True, "3", None], ids=repr)
def test_random_connected_graph_refuses_a_max_attempts_that_is_not_an_integer(attempts):
    # 2.5 failed inside numpy, True ran as 1 and said "found in True
    # attempts", and "3" and None raised TypeError.
    rng = SplitMix64(1)
    with pytest.raises(ValueError) as excinfo:
        random_connected_graph(rng, 5, 0.0, attempts)
    assert str(excinfo.value) == f"max_attempts must be an integer, got {attempts!r}"
    assert rng._state == SplitMix64(1)._state


def test_numpy_max_attempts_count_like_python_ints():
    for attempts in (np.int64(3), np.int32(3)):
        expected = random_connected_graph(SplitMix64(2), 6, 0.3, 3)
        assert random_connected_graph(SplitMix64(2), 6, 0.3, attempts) == expected
    with pytest.raises(RuntimeError) as excinfo:
        random_connected_graph(SplitMix64(1), 5, 0.0, np.int64(2))
    assert str(excinfo.value) == "no connected G(5, 0.0) found in 2 attempts"


@pytest.mark.parametrize("seed", [-7, 2**70])
def test_verify_draws_of_any_seed_equal_the_scalar_reference(seed):
    drawn = [d.pair() for block in _blocks(seed, 30, 9, 8) for _, d in block]
    expected = [
        oracles.random_instance(
            SplitMix64.spawn(seed, trial), list(sb.PerturbationKind)[trial % 3], 9, EDGE_PROBABILITIES[(trial // 3) % 3]
        )
        for trial in range(30)
    ]
    assert drawn == expected


# ---------------------------------------------------------------------------
# Input checks, made before any draw
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [math.nan, 1.5, -0.25, True, "0.5"], ids=repr)
def test_draws_refuse_an_edge_probability_outside_the_unit_interval(p):
    # nan ran 10,000 attempts and then raised RuntimeError; 1.5 drew K5.
    message = f"edge probability must lie in [0, 1], got {p!r}"
    for draw in (
        lambda rng: random_connected_graph(rng, 5, p),
        lambda rng: random_instance(rng, sb.PerturbationKind.PENDANT_EDGE, 9, p),
    ):
        rng = SplitMix64(1)
        with pytest.raises(ValueError) as excinfo:
            draw(rng)
        assert str(excinfo.value) == message
        assert rng._state == SplitMix64(1)._state


def test_an_added_edge_refuses_an_edge_probability_of_1():
    # Every host came out complete, so the draw never ended.
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="an added edge needs an edge probability below 1, got 1.0"):
        random_instance(rng, sb.PerturbationKind.EDGE_ADDITION, 9, 1.0)
    assert rng._state == SplitMix64(1)._state
    host, pert = random_instance(rng, sb.PerturbationKind.PENDANT_EDGE, 9, 1.0)
    assert host == sb.complete_graph(host.n)


@pytest.mark.parametrize("n_max", [2, np.int64(2), -5])
def test_random_instance_refuses_an_n_max_below_3(n_max):
    # It failed inside randint with "empty range [3, 2]".
    for kind in sb.PerturbationKind:
        rng = SplitMix64(1)
        with pytest.raises(ValueError) as excinfo:
            random_instance(rng, kind, n_max, 0.5)
        assert str(excinfo.value) == f"n_max must be at least 3, got {n_max}"
        assert rng._state == SplitMix64(1)._state


def test_random_instance_refuses_an_n_max_past_the_vertex_limit():
    # It drew a host of up to a million vertices, as verify refuses to.
    rng = SplitMix64(1)
    with pytest.raises(ValueError) as excinfo:
        random_instance(rng, sb.PerturbationKind.PENDANT_EDGE, 10**6, 0.5)
    assert str(excinfo.value) == "n_max must be at most 8192, got 1000000"
    assert rng._state == SplitMix64(1)._state


def test_random_instance_refuses_a_non_integer_n_max():
    with pytest.raises(ValueError, match="n_max must be an integer, got 9.0"):
        random_instance(SplitMix64(1), sb.PerturbationKind.EDGE_ADDITION, 9.0, 0.5)


def test_numpy_counts_draw_like_python_ints():
    # nonempty_subset(np.int64(70)) raised OverflowError.
    for count in (6, 70, 130):
        assert SplitMix64(3).nonempty_subset(np.int64(count)) == SplitMix64(3).nonempty_subset(count)
    assert random_connected_graph(SplitMix64(3), np.int64(7), 0.5) == random_connected_graph(SplitMix64(3), 7, 0.5)
