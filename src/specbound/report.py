"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer, its apexes read from the closed-form table
in :mod:`specbound.pathsim`.  A report builds the final graph once, for the
connectivity check, the final index and the equality test.
"""

from __future__ import annotations

from .bounds import BoundInput, BoundReport
from .graphs import (
    _SHAPES,
    DisconnectedError,
    Graph,
    Perturbation,
    apply_perturbation,
    bound_parameters,
    is_cone_over_regular,
    is_connected,
    is_double_cone_over_regular,
)
from .pathsim import _JOINS
from .spectral import full_spectrum, spectral_radius


def equality_case(graph: Graph, pert: Perturbation) -> bool:
    """Structural test for bound attainment.

    * vertex connection: the final graph is a cone over a regular graph with
      apex ``u``;
    * edge addition: the host is a double cone over a regular graph with
      apexes ``u`` and ``v``;
    * pendant edge: the host is a cone over a regular graph with apex ``u``.
    """
    return _attains_bound(graph, apply_perturbation(graph, pert), pert)


def _attains_bound(graph: Graph, final: Graph, pert: Perturbation) -> bool:
    """:func:`equality_case` given the final graph as well: the apexes are
    the first k of ``u`` and its targets, in the final graph if ``u`` starts
    isolated and in the host otherwise."""
    apexes = (pert.u, *pert.targets)[: _JOINS[pert.kind].apexes]
    cone = final if _SHAPES[pert.kind].isolated else graph
    recognize = is_cone_over_regular if len(apexes) == 1 else is_double_cone_over_regular
    return recognize(cone, *apexes)


def bound_input(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundInput:
    """Numeric bound inputs for an instance (initial index plus degree data)."""
    params = bound_parameters(graph, pert)
    lam_i = spectral_radius(graph.adjacency(), tol=tol) if graph.m else 0.0
    return BoundInput(kind=pert.kind, lambda_i=lam_i, **params)


def bound_report(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundReport:
    """Evaluate one instance end to end.

    The final graph must be connected (the bounds do not apply otherwise;
    :class:`DisconnectedError`); the exact final index is the top of the
    final graph's full spectrum.
    """
    final = apply_perturbation(graph, pert)
    if not is_connected(final):
        raise DisconnectedError("the perturbed graph is disconnected")
    inp = bound_input(graph, pert, tol=tol)
    bound = inp.bound()
    lam_f = float(full_spectrum(final.adjacency())[0])
    gap = inp.gap_estimate()
    return BoundReport(
        lambda_i=inp.lambda_i,
        lambda_f_exact=lam_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else inp.lambda_i + gap,
        equality_case=_attains_bound(graph, final, pert),
        slack=bound - lam_f,
    )
