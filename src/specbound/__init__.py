"""Sharp spectral-radius bounds for graphs under local perturbations.

The library bounds the index (largest adjacency eigenvalue) of a graph after
one of three modifications -- connecting an isolated vertex to g vertices,
adding an edge, attaching a pendant edge -- using only the degrees involved,
and verifies the whole differential machinery behind the bounds against
exact eigensolvers: derivative identities along the continuous perturbation
path, per-kind differential inequalities, dominance of the majorizing Cauchy
solution, and the closed-form eigenpairs of the equality cases (cones and
double cones over regular graphs).
"""

from .bounds import (
    BoundInput,
    BoundReport,
    CocliqueBound,
    PerturbationKind,
    asymptotic_gap,
    bound_edge_addition,
    bound_pendant_edge,
    bound_vertex_connection,
    coclique_bound,
    comparison_solution,
    h_fn,
    h_inv,
    inequality_rhs,
    k_fn,
    k_inv,
    l1,
    l2,
    l2_inv,
    perturbation_bound,
)
from .graphs import (
    DisconnectedError,
    Graph,
    GraphParseError,
    Perturbation,
    PerturbationError,
    apply_perturbation,
    bound_parameters,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    format_perturbation_spec,
    from_edge_list,
    is_cone_over_regular,
    is_connected,
    is_double_cone_over_regular,
    is_regular,
    join,
    parse_edge_list,
    parse_perturbation_spec,
    path_graph,
    perturbation_matrix,
    star_graph,
)
from .pathsim import (
    ComparisonCheck,
    JoinSolution,
    PathSample,
    PerturbationPath,
    check_comparison,
    check_differential_inequality,
    closed_form_edge_join,
    closed_form_join,
    closed_form_pendant_join,
    closed_form_vertex_join,
    comparison_curve,
    format_path_dump,
    sample_path,
)
from .report import bound_report, equality_case
from .rng import SplitMix64, random_connected_graph, random_instance
from .spectral import (
    PerronPair,
    connected_components,
    full_spectrum,
    perron,
    spectral_radius,
)
from .verify import VerifySummary, run_verification

__version__ = "0.1.0"
