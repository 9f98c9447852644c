"""Graph construction, perturbations, recognizers, and text formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specbound as sb
from specbound import Perturbation, PerturbationError, PerturbationKind
from specbound.rng import SplitMix64, random_connected_graph, random_instance


def test_from_edge_list_path():
    g = sb.from_edge_list(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.degree(1) == 2 and g.degree(0) == 1


def test_from_edge_list_trivial():
    g = sb.from_edge_list(1, [])
    assert g.n == 1 and g.m == 0


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(ValueError):
        sb.from_edge_list(3, [(0, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError):
        sb.from_edge_list(3, [(0, 3)])


def test_duplicate_edges_collapse():
    g = sb.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_degree_examples():
    assert sb.path_graph(3).degree(1) == 2
    assert sb.empty_graph(1).degree(0) == 0
    assert all(sb.cycle_graph(4).degree(v) == 2 for v in range(4))
    with pytest.raises(ValueError):
        sb.path_graph(3).degree(5)


def test_is_connected():
    assert sb.is_connected(sb.path_graph(3))
    assert not sb.is_connected(sb.disjoint_union(sb.empty_graph(1), sb.empty_graph(1)))
    assert sb.is_connected(sb.cycle_graph(4))
    with pytest.raises(ValueError):
        sb.is_connected(sb.empty_graph(0))


def test_is_regular():
    assert sb.is_regular(sb.cycle_graph(4)) == 2
    assert sb.is_regular(sb.path_graph(3)) is None
    assert sb.is_regular(sb.empty_graph(5)) == 0


def test_disjoint_union():
    g = sb.disjoint_union(sb.empty_graph(1), sb.cycle_graph(4))
    assert sorted(g.degrees()) == [0, 2, 2, 2, 2]
    assert sb.disjoint_union(sb.empty_graph(1), sb.empty_graph(1)).m == 0
    g2 = sb.disjoint_union(sb.path_graph(3), sb.path_graph(3))
    assert g2.n == 6 and g2.m == 4


def test_join():
    cone = sb.join(sb.empty_graph(1), sb.cycle_graph(4))
    assert cone.degree(0) == 4
    k2 = sb.join(sb.empty_graph(1), sb.empty_graph(1))
    assert k2.n == 2 and k2.m == 1
    p3 = sb.join(sb.empty_graph(2), sb.empty_graph(1))
    assert p3.edges == frozenset({(0, 2), (1, 2)})


def test_apply_vertex_connection_builds_star():
    host = sb.empty_graph(4)
    pert = Perturbation.vertex_connection(0, [1, 2, 3])
    final = sb.apply_perturbation(host, pert)
    assert final.edges == sb.star_graph(3).edges


def test_apply_edge_addition_builds_triangle():
    final = sb.apply_perturbation(sb.path_graph(3), Perturbation.edge_addition(0, 2))
    assert final.edges == sb.cycle_graph(3).edges


def test_apply_pendant_grows_by_one():
    final = sb.apply_perturbation(sb.complete_graph(2), Perturbation.pendant_edge(0))
    assert final.n == 3
    assert final.edges == frozenset({(0, 1), (0, 2)})


def test_perturbation_preconditions():
    with pytest.raises(PerturbationError):  # u not isolated
        sb.apply_perturbation(sb.path_graph(3), Perturbation.vertex_connection(0, [2]))
    with pytest.raises(PerturbationError):  # edge already present
        sb.apply_perturbation(sb.path_graph(3), Perturbation.edge_addition(0, 1))
    with pytest.raises(PerturbationError):  # out of range
        sb.apply_perturbation(sb.path_graph(3), Perturbation.pendant_edge(7))
    with pytest.raises(PerturbationError):  # empty target list
        Perturbation.vertex_connection(0, [])
    with pytest.raises(PerturbationError):  # duplicate targets
        Perturbation.vertex_connection(0, [1, 1])
    with pytest.raises(PerturbationError):  # loop edge
        Perturbation.edge_addition(2, 2)


def test_perturbation_matrix_edge():
    p = sb.perturbation_matrix(sb.empty_graph(3), Perturbation.edge_addition(0, 1))
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(p, expected)


def test_perturbation_matrix_vertex_row_is_indicator():
    host = sb.disjoint_union(sb.cycle_graph(4), sb.empty_graph(1))
    pert = Perturbation.vertex_connection(4, [0, 2])
    p = sb.perturbation_matrix(host, pert)
    assert np.array_equal(p[4], np.array([1.0, 0.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(p, p.T)


def test_perturbation_matrix_pendant_position():
    host = sb.complete_graph(2)
    p = sb.perturbation_matrix(host, Perturbation.pendant_edge(1))
    assert p.shape == (3, 3)
    assert p[1, 2] == p[2, 1] == 1.0 and p.sum() == 2.0


@pytest.mark.parametrize("kind", list(PerturbationKind))
def test_perturbation_matrix_is_adjacency_difference(kind):
    rng = SplitMix64(2024)
    for _ in range(25):
        host, pert = random_instance(rng, kind, 9, 0.5)
        p = sb.perturbation_matrix(host, pert)
        final = sb.apply_perturbation(host, pert)
        padded = np.zeros((final.n, final.n))
        padded[: host.n, : host.n] = host.adjacency()
        assert np.array_equal(p, final.adjacency() - padded)
        # edge-count growth: g new edges, or exactly one
        grown = pert.g if kind is PerturbationKind.VERTEX_CONNECTION else 1
        assert final.m == host.m + grown


def test_is_cone_over_regular():
    star = sb.star_graph(3)
    assert sb.is_cone_over_regular(star, 0)
    assert not sb.is_cone_over_regular(star, 1)
    cone = sb.join(sb.empty_graph(1), sb.cycle_graph(4))
    assert sb.is_cone_over_regular(cone, 0)
    assert not sb.is_cone_over_regular(sb.path_graph(3), 0)
    assert sb.is_cone_over_regular(sb.empty_graph(1), 0)  # degenerate single vertex


def test_is_double_cone_over_regular():
    assert sb.is_double_cone_over_regular(sb.path_graph(3), 0, 2)
    assert sb.is_double_cone_over_regular(sb.cycle_graph(4), 0, 2)
    assert not sb.is_double_cone_over_regular(sb.path_graph(4), 0, 3)
    assert sb.is_double_cone_over_regular(sb.empty_graph(2), 0, 1)  # degenerate pair
    assert not sb.is_double_cone_over_regular(sb.complete_graph(2), 0, 1)
    with pytest.raises(ValueError):
        sb.is_double_cone_over_regular(sb.cycle_graph(4), 1, 1)


def _regular_family(n_max=8):
    for n in range(1, n_max + 1):
        for delta in range(n):
            if (n * delta) % 2 == 0:
                yield sb.circulant_graph(n, delta)


def test_recognizers_round_trip_on_regular_family():
    for core in _regular_family():
        cone = sb.join(sb.empty_graph(1), core)
        assert sb.is_cone_over_regular(cone, 0)
        double = sb.join(sb.empty_graph(2), core)
        assert sb.is_double_cone_over_regular(double, 0, 1)


def test_circulant_degrees_and_feasibility():
    for n in range(1, 9):
        for delta in range(n):
            if (n * delta) % 2 == 0:
                g = sb.circulant_graph(n, delta)
                assert sb.is_regular(g) == delta
            else:
                with pytest.raises(ValueError):
                    sb.circulant_graph(n, delta)
    with pytest.raises(ValueError):
        sb.circulant_graph(4, 4)


def test_edge_list_round_trip():
    g = sb.cycle_graph(5)
    text = sb.format_edge_list(g)
    assert sb.parse_edge_list(text).edges == g.edges


def test_edge_list_parsing_tolerates_comments():
    text = "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n"
    g = sb.parse_edge_list(text)
    assert g.edges == sb.path_graph(3).edges


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "3 2\n0 1\n",  # announced two edges, provided one
        "3 1\n0 0\n",  # self-loop
        "3 1\n0 5\n",  # out of range
        "3 1\n0 x\n",
        "a b\n",
    ],
)
def test_edge_list_parse_errors(text):
    with pytest.raises(sb.GraphParseError):
        sb.parse_edge_list(text)


def test_perturbation_spec_round_trip():
    for spec in ("vertex 4 0 1 2", "edge 0 2", "pendant 1"):
        assert sb.format_perturbation_spec(sb.parse_perturbation_spec(spec)) == spec


@pytest.mark.parametrize(
    "spec", ["", "loop 1", "vertex 4", "edge 1", "edge 1 2 3", "pendant", "edge a b"]
)
def test_perturbation_spec_errors(spec):
    with pytest.raises(PerturbationError):
        sb.parse_perturbation_spec(spec)


def test_bound_parameters():
    host = sb.path_graph(4)
    assert sb.bound_parameters(host, Perturbation.edge_addition(0, 3)) == {
        "delta_u": 1,
        "delta_v": 1,
    }
    assert sb.bound_parameters(host, Perturbation.pendant_edge(1)) == {"delta_u": 2}
    host2 = sb.disjoint_union(sb.cycle_graph(4), sb.empty_graph(1))
    assert sb.bound_parameters(host2, Perturbation.vertex_connection(4, [0, 1, 2])) == {"g": 3}


def test_graphs_are_immutable_values():
    g = sb.path_graph(3)
    with pytest.raises(Exception):
        g.n = 5  # frozen dataclass
    a = g.adjacency()
    a[0, 1] = 7.0  # exports are fresh copies
    assert g.adjacency()[0, 1] == 1.0


def _reference_adjacency(g):
    """The adjacency matrix written edge by edge."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def test_adjacency_equals_the_edge_by_edge_matrix():
    graphs = [sb.empty_graph(0), sb.empty_graph(3), sb.complete_graph(150), sb.cycle_graph(7)]
    graphs += [sb.Graph(np.int64(4), frozenset({(np.int32(0), np.int64(3))}))]
    graphs += [random_connected_graph(SplitMix64(i), 5 + 7 * i, 0.3) for i in range(8)]
    for g in graphs:
        a = g.adjacency()
        assert a.dtype == np.float64 and a.shape == (g.n, g.n)
        assert np.array_equal(a, _reference_adjacency(g))


def test_public_matrices_refuse_graphs_past_the_vertex_limit():
    # 10^6 vertices used to end in numpy's MemoryError ("Unable to allocate
    # 7.28 TiB"); both public matrices refuse before allocating, each naming
    # the graph it was asked about: the host itself, or the final graph.
    host = sb.parse_edge_list("1000000 0\n")
    with pytest.raises(ValueError, match="^the graph has 1000000 vertices; at most 8192 are supported$"):
        host.adjacency()
    with pytest.raises(ValueError, match="^the final graph has 1000001 vertices; at most 8192 are supported$"):
        sb.perturbation_matrix(host, Perturbation.pendant_edge(0))


def test_graph_rejects_fractional_vertex():
    with pytest.raises(ValueError, match="non-integer vertex"):
        sb.Graph(2, frozenset({(0, 1.5)}))


def test_graph_rejects_bool_vertices():
    with pytest.raises(ValueError, match="non-integer vertex"):
        sb.Graph(2, frozenset({(False, True)}))


def test_graph_rejects_edge_that_is_not_a_pair():
    with pytest.raises(ValueError, match="not a vertex pair"):
        sb.Graph(3, frozenset({5}))


def test_graph_rejects_mutable_edge_set():
    with pytest.raises(ValueError, match="frozenset"):
        sb.Graph(2, {(0, 1)})


def test_graph_rejects_float_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        sb.Graph(3.0)


def test_graph_rejects_bool_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        sb.Graph(True)


def test_perturbation_rejects_negative_vertex():
    with pytest.raises(PerturbationError, match="nonnegative integer"):
        Perturbation.pendant_edge(-1)


def test_perturbation_rejects_bool_vertex():
    with pytest.raises(PerturbationError, match="nonnegative integer"):
        Perturbation.edge_addition(0, True)


def test_perturbation_rejects_fractional_target():
    with pytest.raises(PerturbationError, match="nonnegative integer"):
        Perturbation.vertex_connection(3, [0, 1.5])


def test_perturbation_rejects_wrong_target_count():
    with pytest.raises(PerturbationError, match="one opposite endpoint"):
        Perturbation(PerturbationKind.EDGE_ADDITION, 0, ())


# Per kind: its usage line, a wrong target tuple with the wording of the
# count rule it breaks, a right one, whether u must be isolated, and degrees
# with a positive weight d.
KIND_RULES = [
    (PerturbationKind.VERTEX_CONNECTION, "vertex u v1 [v2 ...]", (), "at least one target", (2,), True, {"g": 1}),
    (PerturbationKind.EDGE_ADDITION, "edge u v", (1, 2), "one opposite endpoint", (2,), False,
     {"delta_u": 1, "delta_v": 0}),
    (PerturbationKind.PENDANT_EDGE, "pendant u", (1,), "no targets", (), False, {"delta_u": 1}),
]


@pytest.mark.parametrize("kind, usage, wrong, wording, right, isolated, degrees", KIND_RULES, ids=[rule[0].value for rule in KIND_RULES])
def test_each_kind_words_its_rules(kind, usage, wrong, wording, right, isolated, degrees):
    for text in (kind.value, " ".join(map(str, (kind.value, 0, *wrong)))):
        with pytest.raises(PerturbationError) as excinfo:
            sb.parse_perturbation_spec(text)
        assert str(excinfo.value) == f"usage: {usage}"
    with pytest.raises(PerturbationError) as excinfo:
        Perturbation(kind, 0, wrong)
    assert str(excinfo.value) == f"{kind.name.lower().replace('_', ' ')} needs {wording}, got {wrong}"
    pert, host = Perturbation(kind, 0, right), sb.path_graph(3)  # u = 0 has degree 1
    if isolated:
        with pytest.raises(PerturbationError) as excinfo:
            sb.apply_perturbation(host, pert)
        assert str(excinfo.value) == "vertex 0 is not isolated"
    else:
        assert sb.apply_perturbation(host, pert).m == 3
    # Only an isolated u lets the host have no edge, so lambda_I = 0 with d > 0.
    if isolated:
        assert sb.perturbation_bound(kind, 0.0, **degrees) == 1.0  # sqrt(g): the star K_{1,1}
    else:
        with pytest.raises(ValueError) as excinfo:
            sb.perturbation_bound(kind, 0.0, **degrees)
        assert str(excinfo.value) == "lambda_i must be positive"
    with pytest.raises(ValueError) as excinfo:
        sb.perturbation_bound(kind, -1.0, **degrees)
    assert str(excinfo.value) == f"lambda_i must be {'nonnegative' if isolated else 'positive'}"


def test_graph_and_perturbation_accept_numpy_integers():
    g = sb.Graph(np.int64(3), frozenset({(np.int64(0), np.int32(2))}))
    assert g.adjacency()[0, 2] == 1.0 and g.m == 1
    pert = Perturbation.pendant_edge(np.int64(1))
    assert sb.apply_perturbation(g, pert).n == 4


# ---------------------------------------------------------------------------
# Text formats round-trip (property tests)
# ---------------------------------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
VERTICES = st.integers(0, 40)


@st.composite
def perturbations(draw):
    kind = draw(st.sampled_from(list(PerturbationKind)))
    u = draw(VERTICES)
    if kind is PerturbationKind.VERTEX_CONNECTION:
        targets = draw(st.sets(VERTICES.filter(lambda t: t != u), min_size=1, max_size=8))
        return Perturbation.vertex_connection(u, targets)
    if kind is PerturbationKind.EDGE_ADDITION:
        return Perturbation.edge_addition(u, draw(VERTICES.filter(lambda v: v != u)))
    return Perturbation.pendant_edge(u)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return sb.Graph(n, frozenset(edges))


@PROPERTY
@given(perturbations())
def test_perturbation_spec_parse_inverts_format(pert):
    assert sb.parse_perturbation_spec(sb.format_perturbation_spec(pert)) == pert


@PROPERTY
@given(graphs())
def test_edge_list_parse_inverts_format(g):
    assert sb.parse_edge_list(sb.format_edge_list(g)) == g


def test_perturbation_uses_the_self_loop_wording():
    for spec in ("edge 2 2", "vertex 1 1"):
        with pytest.raises(PerturbationError, match="self-loop at vertex"):
            sb.parse_perturbation_spec(spec)
