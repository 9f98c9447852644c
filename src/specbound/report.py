"""Assemble full bound reports for concrete graph instances.

Ties the pieces together: exact initial and final indices from the
eigensolver, the closed-form bound, the first-order gap estimate, and the
structural equality recognizer.  A report reads the instance of
:mod:`specbound.graphs` that :func:`~specbound.pathsim.sample_path`
samples: ``lambda_I`` is its start and the final index the top of the
spectrum of ``A_I + P``, both solved with it.  The perturbation is checked
once, with the instance, and its degree data and equality case are read
once, off its host's bit rows; no final graph is built.
"""

from __future__ import annotations

from .bounds import BoundReport, _bound_and_gap
from .graphs import Graph, Perturbation, _added_edges, _equality, _instances
from .spectral import PERRON_TOL


def equality_case(graph: Graph, pert: Perturbation) -> bool:
    """Structural test for bound attainment.

    * vertex connection: the final graph is a cone over a regular graph with
      apex ``u``;
    * edge addition: the host is a double cone over a regular graph with
      apexes ``u`` and ``v``;
    * pendant edge: the host is a cone over a regular graph with apex ``u``.

    The apexes are ``u`` and its targets, ``u`` alone for the vertex
    connection; the test reads only the host's degrees.
    """
    _added_edges(graph, pert)  # PerturbationError unless pert applies
    return _equality(pert, graph.degrees())


def bound_report(graph: Graph, pert: Perturbation, tol: float = PERRON_TOL) -> BoundReport:
    """Evaluate one instance end to end.

    The final graph must be connected (the bounds do not apply otherwise;
    :class:`~specbound.graphs.DisconnectedError`); the initial index is the
    spectral radius of ``A_I``, certified to ``tol``, and the exact final
    index the top of the spectrum of ``A_I + P``.  The bound is ``u(1)`` of
    :func:`~specbound.bounds.perturbation_bound` and the gap that of
    :func:`~specbound.bounds.asymptotic_gap`, from degree data checked once.
    """
    inst = _instances([(graph, pert)], tol)[0]
    bound, gap = _bound_and_gap(inst.kind, inst.lambda_i, **inst.params)
    return BoundReport(
        lambda_i=inst.lambda_i,
        lambda_f_exact=inst.lambda_f,
        bound=bound,
        asymptotic_estimate=None if gap is None else inst.lambda_i + gap,
        equality_case=inst.equality,
        slack=bound - inst.lambda_f,
    )
