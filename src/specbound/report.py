"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer, its apexes read from the closed-form table
in :mod:`specbound.pathsim`.  A report reads the instance of
:mod:`specbound.graphs` that :func:`~specbound.pathsim.sample_path` samples:
``lambda_I`` is its start and the final index, which the caller solves with
it, the top of the spectrum of ``A_I + P``.  The perturbation is checked
once, with the instance; the final graph is built only where the equality
case lives in it.
"""

from __future__ import annotations

from .bounds import BoundInput, BoundReport
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
from .pathsim import _JOINS


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
    """:func:`equality_case` of a perturbation known to apply."""
    if _SHAPES[pert.kind].isolated:
        graph = apply_perturbation(graph, pert)
    apexes = (pert.u, *pert.targets)[: _JOINS[pert.kind].apexes]
    recognize = is_cone_over_regular if len(apexes) == 1 else is_double_cone_over_regular
    return recognize(graph, *apexes)


def bound_report(graph: Graph, pert: Perturbation, tol: float = 1e-11) -> BoundReport:
    """Evaluate one instance end to end.

    The final graph must be connected (the bounds do not apply otherwise;
    :class:`~specbound.graphs.DisconnectedError`); the initial index is the
    spectral radius of ``A_I``, certified to ``tol``, and the exact final
    index the top of the spectrum of ``A_I + P``.
    """
    inst = _instances([(graph, pert)], tol, top=(1.0,))[0]
    return _report(inst, inst.tops[0])


def _report(inst: _Instance, lambda_f: float) -> BoundReport:
    """:func:`bound_report` of an instance, given its exact final index."""
    inp = BoundInput(kind=inst.pert.kind, lambda_i=inst.lambda_i, **inst.params)
    bound = inp.bound()
    gap = inp.gap_estimate()
    return BoundReport(
        lambda_i=inst.lambda_i,
        lambda_f_exact=lambda_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else inst.lambda_i + gap,
        equality_case=_equality(inst.graph, inst.pert),
        slack=bound - lambda_f,
    )
