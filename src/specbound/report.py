"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer, its apexes read from the closed-form table
in :mod:`specbound.pathsim`.  A report reads the instance of
:mod:`specbound.graphs` that :func:`~specbound.pathsim.sample_path` samples:
``lambda_I`` is its start and the final index the top of the spectrum of
``A_I + P``.  The final graph is built only where the equality case lives in it.
"""

from __future__ import annotations

from .bounds import BoundInput, BoundReport
from .graphs import (
    _SHAPES,
    Graph,
    Perturbation,
    _added_edges,
    _Instance,
    _instance,
    apply_perturbation,
    is_cone_over_regular,
    is_double_cone_over_regular,
)
from .pathsim import _JOINS
from .spectral import full_spectrum


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
    if _SHAPES[pert.kind].isolated:
        graph = apply_perturbation(graph, pert)
    else:
        _added_edges(graph, pert)  # PerturbationError unless pert applies
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
    return _report(_instance(graph, pert, tol))


def _report(inst: _Instance) -> BoundReport:
    inp = BoundInput(kind=inst.pert.kind, lambda_i=inst.lambda_i, **inst.params)
    bound = inp.bound()
    lam_f = float(full_spectrum(inst.a_initial + inst.p_mat)[0])
    gap = inp.gap_estimate()
    return BoundReport(
        lambda_i=inst.lambda_i,
        lambda_f_exact=lam_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else inst.lambda_i + gap,
        equality_case=equality_case(inst.graph, inst.pert),
        slack=bound - lam_f,
    )
