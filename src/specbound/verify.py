"""Randomized invariant harness behind the ``verify`` CLI command.

Each trial draws a random connected instance of one perturbation kind, sets
it up once and checks every certificate of its one report and path:

* bound validity (exact final index <= bound, up to the tolerance),
* the equality dichotomy (recognizer fires iff the bound is attained),
* strict growth of the sampled spectral radius,
* the derivative identity (quadratic form vs. finite differences),
* the differential inequality along the path,
* dominance of the comparison solution.

Trials are seeded per-index from a master splitmix64 seed, so summaries are
bit-for-bit reproducible and order-independent.  They run in blocks of about
``_BLOCK_ENTRIES`` matrix entries: a block's instances are drawn and set up,
solved together (``A_I``'s components and ``A_I + P`` one LAPACK call per
matrix size and stack, the secular roots of every path point as one array
iteration, the grid vectors one ``matmul`` in the components' eigenbases
per size and stack), and then each trial is checked in order.  A stacked
matrix gets the same bits as a lone one, and each root and vector the same
bits as in a lone path, so the summary does not depend on the blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

from .bounds import _check_count
from .graphs import (
    PerturbationKind,
    _Instance,
    _instances,
    format_edge_list,
    format_perturbation_spec,
    perturbed_dimension,
)
from .pathsim import PerturbationPath, _sample, check_comparison, check_differential_inequality
from .report import _report
from .rng import EDGE_PROBABILITIES, SplitMix64, random_instance

_KINDS = tuple(PerturbationKind)

DERIVATIVE_TOL = 1e-6
INEQUALITY_TOL = 1e-6
COMPARISON_TOL = 1e-9
EQUALITY_GAP_TOL = 1e-8
STRICT_SLACK_MIN = 1e-7
_SOLVE_TOL = 1e-11  # Perron certificate tolerance: the default of bound_report and sample_path
_BLOCK_ENTRIES = 1 << 16  # matrix entries solved per block of trials: 512 KiB of float64


@dataclass
class TrialFailure:
    trial: int
    kind: str
    check: str
    detail: str
    graph: str
    perturbation: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerifySummary:
    seed: int
    trials: int
    n_max: int
    tolerance: float
    counts: dict[str, int] = field(default_factory=dict)
    equality_cases: int = 0
    strict_cases: int = 0
    max_bound_violation: float = 0.0
    min_strict_slack: float = float("inf")
    max_equality_gap: float = 0.0
    max_derivative_mismatch: float = 0.0
    max_inequality_violation: float = float("-inf")
    max_comparison_violation: float = 0.0
    failures: list[TrialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "n_max": self.n_max,
            "tolerance": self.tolerance,
            "instances": dict(self.counts),
            "equality_cases": self.equality_cases,
            "strict_cases": self.strict_cases,
            "max_bound_violation": self.max_bound_violation,
            "min_strict_slack": self.min_strict_slack if self.strict_cases else None,
            "max_equality_gap": self.max_equality_gap,
            "max_derivative_mismatch": self.max_derivative_mismatch,
            "max_inequality_violation": self.max_inequality_violation,
            "max_comparison_violation": self.max_comparison_violation,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
        }


def run_verification(
    seed: int,
    trials: int,
    n_max: int = 9,
    tolerance: float = COMPARISON_TOL,
    steps: int = 8,
    inject_failure: bool = False,
) -> VerifySummary:
    """Run the randomized suite; ``inject_failure`` corrupts the first trial's
    bound to prove the harness actually trips (self-test)."""
    for name, count in (("trials", trials), ("n_max", n_max)):
        if not isinstance(count, numbers.Integral) or isinstance(count, bool):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    trials, n_max = int(trials), int(n_max)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    steps = _check_count("steps", steps, 2)
    summary = VerifySummary(seed=seed, trials=trials, n_max=n_max, tolerance=tolerance)
    for block in _blocks(seed, trials, n_max, steps):
        # no name holds a block's instances, so they go before the next block is solved
        pairs = [(host, pert) for _, host, pert in block]
        for (trial, _, _), inst in zip(block, _instances(pairs, _SOLVE_TOL, steps)):
            _check_trial(summary, trial, inst, _sample(inst), inject_failure and trial == 0)
    return summary


def _blocks(seed: int, trials: int, n_max: int, steps: int):
    """The trials ``(trial, host, pert)``, drawn in order, in blocks that end
    once their matrices reach ``_BLOCK_ENTRIES`` entries."""
    block, entries = [], 0
    for trial in range(trials):
        kind = _KINDS[trial % 3]
        p_edge = EDGE_PROBABILITIES[(trial // 3) % 3]
        host, pert = random_instance(SplitMix64.spawn(seed, trial), kind, n_max, p_edge)
        block.append((trial, host, pert))
        entries += 3 * steps * perturbed_dimension(host, pert) ** 2
        if entries >= _BLOCK_ENTRIES:
            yield block
            block, entries = [], 0
    if block:
        yield block


def _check_trial(
    summary: VerifySummary, trial: int, inst: _Instance, path: PerturbationPath, corrupt: bool
) -> None:
    """Every check of one trial's solved instance and its path, into
    ``summary``; ``corrupt`` forces its bound below the exact value."""
    kind, tolerance = inst.pert.kind, summary.tolerance
    summary.counts[kind.value] = summary.counts.get(kind.value, 0) + 1

    def fail(check: str, detail: str) -> None:
        """Record one failed check with its reproducer, built only here."""
        graph, pert = format_edge_list(inst.graph), format_perturbation_spec(inst.pert)
        summary.failures.append(TrialFailure(trial, kind.value, check, detail, graph, pert))

    rep = _report(inst)
    bound = rep.lambda_f_exact - 1.0 if corrupt else rep.bound
    violation = rep.lambda_f_exact - bound
    summary.max_bound_violation = max(summary.max_bound_violation, violation)
    if violation > tolerance:
        fail("bound_validity", f"lambda_F - bound = {violation:.3e}")
    gap = bound - rep.lambda_f_exact
    if rep.equality_case:
        summary.equality_cases += 1
        summary.max_equality_gap = max(summary.max_equality_gap, abs(gap))
        if abs(gap) > EQUALITY_GAP_TOL:
            fail("equality_gap", f"|bound - lambda_F| = {abs(gap):.3e}")
    else:
        summary.strict_cases += 1
        summary.min_strict_slack = min(summary.min_strict_slack, gap)
        if gap < STRICT_SLACK_MIN:
            fail("strict_slack", f"bound - lambda_F = {gap:.3e}")

    values = [s.value for s in path.samples]
    if any(b <= a for a, b in zip(values, values[1:])):
        fail("monotonicity", f"lambda(t) not strictly increasing: {values}")
    mismatch = max(
        abs(s.derivative_lhs - s.derivative_rhs)
        for s in path.samples
        if s.derivative_lhs is not None
    )
    summary.max_derivative_mismatch = max(summary.max_derivative_mismatch, mismatch)
    if mismatch > DERIVATIVE_TOL:
        fail("derivative_identity", f"|fd - quadratic form| = {mismatch:.3e}")
    ineq = check_differential_inequality(path)
    summary.max_inequality_violation = max(summary.max_inequality_violation, ineq)
    if ineq > INEQUALITY_TOL:
        fail("differential_inequality", f"rhs - f(t, lambda) = {ineq:.3e}")
    comp = check_comparison(path, tolerance=tolerance)
    summary.max_comparison_violation = max(
        summary.max_comparison_violation, comp.max_violation
    )
    if not comp.ok:
        fail("comparison_dominance", f"lambda - u = {comp.max_violation:.3e}")
