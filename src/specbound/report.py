"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer for the perturbation kind.
"""

from __future__ import annotations

from .bounds import BoundInput, BoundReport
from .graphs import (
    Graph,
    Perturbation,
    PerturbationKind,
    apply_perturbation,
    bound_parameters,
    is_cone_over_regular,
    is_connected,
    is_double_cone_over_regular,
    validate_perturbation,
)
from .spectral import full_spectrum, spectral_radius


def equality_case(graph: Graph, pert: Perturbation) -> bool:
    """Structural test for bound attainment.

    * vertex connection: the final graph is a cone over a regular graph with
      apex ``u``;
    * edge addition: the host is a double cone over a regular graph with
      apexes ``u`` and ``v``;
    * pendant edge: the host is a cone over a regular graph with apex ``u``.
    """
    if pert.kind is PerturbationKind.VERTEX_CONNECTION:
        return is_cone_over_regular(apply_perturbation(graph, pert), pert.u)
    if pert.kind is PerturbationKind.EDGE_ADDITION:
        return is_double_cone_over_regular(graph, pert.u, pert.targets[0])
    if pert.kind is PerturbationKind.PENDANT_EDGE:
        return is_cone_over_regular(graph, pert.u)
    raise ValueError(f"unknown perturbation kind {pert.kind}")  # pragma: no cover


def bound_input(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundInput:
    """Numeric bound inputs for an instance (initial index plus degree data)."""
    validate_perturbation(graph, pert)
    lam_i = spectral_radius(graph.adjacency(), tol=tol) if graph.m else 0.0
    return BoundInput(kind=pert.kind, lambda_i=lam_i, **bound_parameters(graph, pert))


def bound_report(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundReport:
    """Evaluate one instance end to end.

    The final graph must be connected (the bounds do not apply otherwise);
    the exact final index is the top of the final graph's full spectrum.
    """
    final = apply_perturbation(graph, pert)
    if not is_connected(final):
        raise ValueError("the perturbed graph must be connected")
    inp = bound_input(graph, pert, tol=tol)
    bound = inp.bound()
    lam_f = float(full_spectrum(final.adjacency())[0])
    gap = inp.gap_estimate()
    return BoundReport(
        lambda_i=inp.lambda_i,
        lambda_f_exact=lam_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else inp.lambda_i + gap,
        equality_case=equality_case(graph, pert),
        slack=bound - lam_f,
    )
