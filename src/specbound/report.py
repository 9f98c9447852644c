"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer, one apex per degree keyword of the kind's
entry in :data:`~specbound.bounds.KIND_SPECS`.  A report reads the instance
of :mod:`specbound.graphs` that :func:`~specbound.pathsim.sample_path`
samples: ``lambda_I`` is its start and the final index the top of the
spectrum of ``A_I + P``, both solved with it.  The perturbation is checked
once, with the instance, and its degree data once, for the bound and the
gap; the final graph is built only where the equality case lives in it,
and there only once ``u`` has as many targets as an apex needs.
"""

from __future__ import annotations

from .bounds import KIND_SPECS, BoundReport, _bound_and_gap
from .graphs import (
    _SHAPES,
    Graph,
    Perturbation,
    _added_edges,
    _Instance,
    _instances,
    apply_perturbation,
    is_cone_over_regular,
    is_double_cone_over_regular,
)


def equality_case(graph: Graph, pert: Perturbation) -> bool:
    """Structural test for bound attainment.

    * vertex connection: the final graph is a cone over a regular graph with
      apex ``u``;
    * edge addition: the host is a double cone over a regular graph with
      apexes ``u`` and ``v``;
    * pendant edge: the host is a cone over a regular graph with apex ``u``.

    The apexes are the first k of ``u`` and its targets, in the final graph
    if ``u`` starts isolated and in the host otherwise.
    """
    _added_edges(graph, pert)  # PerturbationError unless pert applies
    return _equality(graph, pert)


def _equality(graph: Graph, pert: Perturbation) -> bool:
    """:func:`equality_case` of a perturbation known to apply.  A vertex
    connection gives ``u`` degree ``g`` in the final graph: unless ``g = n - 1``,
    ``u`` is no cone's apex, and the final graph is not built."""
    if _SHAPES[pert.kind].isolated:
        if pert.g != graph.n - 1:
            return False
        graph = apply_perturbation(graph, pert)
    apexes = (pert.u, *pert.targets)[: len(KIND_SPECS[pert.kind].params)]  # one per degree keyword
    recognize = is_cone_over_regular if len(apexes) == 1 else is_double_cone_over_regular
    return recognize(graph, *apexes)


def bound_report(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundReport:
    """Evaluate one instance end to end.

    The final graph must be connected (the bounds do not apply otherwise;
    :class:`~specbound.graphs.DisconnectedError`); the initial index is the
    spectral radius of ``A_I``, certified to ``tol``, and the exact final
    index the top of the spectrum of ``A_I + P``.
    """
    return _report(_instances([(graph, pert)], tol)[0])


def _report(inst: _Instance) -> BoundReport:
    """:func:`bound_report` of a solved instance, its degree data checked
    once: the bound is ``u(1)`` of :func:`~specbound.bounds.perturbation_bound`
    and the gap that of :func:`~specbound.bounds.asymptotic_gap`."""
    lambda_i = inst.lambda_i
    bound, gap = _bound_and_gap(inst.pert.kind, lambda_i, **inst.params)
    return BoundReport(
        lambda_i=lambda_i,
        lambda_f_exact=inst.lambda_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else lambda_i + gap,
        equality_case=_equality(inst.graph, inst.pert),
        slack=bound - inst.lambda_f,
    )
