"""Randomized invariant harness behind the ``verify`` CLI command.

Each trial draws a random connected instance of one perturbation kind, sets
it up once and checks every certificate of its bound and its path:

* bound validity (exact final index <= bound, up to the tolerance),
* the equality dichotomy (recognizer fires iff the bound is attained),
* strict growth of the sampled spectral radius,
* the derivative identity (quadratic form vs. the secular equation's slope),
* the differential inequality along the path,
* dominance of the comparison solution.

Trials are seeded per-index from a master splitmix64 seed, so summaries are
bit-for-bit reproducible and order-independent.  They run in blocks of about
``_BLOCK_ENTRIES`` matrix entries.  A block's instances are drawn together
(:func:`~specbound.rng._draw`: each trial's draw one generator that tests
its attempts on their bit rows, the words of all of them one numpy pass
per round) and set up straight from their bare bit rows, the rows a
``Graph`` holds, by the one set-up of every instance,
:func:`~specbound.graphs._solve_stacks`: one stack of ``A_I`` and one of
``W`` per final size, with each host's degrees, for its degree data and
its equality case, read off its rows.  No ``Graph`` or ``Perturbation`` is
built for a trial that passes.  They are solved
together: ``A_I``'s components one LAPACK call per matrix size, the secular
roots of every path point as one array iteration, the grid vectors one
``matmul`` in the components' eigenbases per size.  The root at ``t = 1``
is ``lambda_F``, so ``A_I + P`` is never built.  The set-up hands the block
over as arrays (:class:`~specbound.graphs._Block`), and they are checked
together (:func:`_check_block`): each check is one array over the block,
with ``u(t)`` and ``f(t, lambda)`` evaluated once per kind on those
arrays.  The vertex and edge roots are quadratic, the pendant root a Newton
iteration from above masked per point, and the majorant each kind's closed
form, all in a few numpy calls over the block with the bits of the scalar
forms the public functions take.  A failure record is built only
for a failed check, in trial order and then in the order of the list
above.  The block is the only bound on how many matrices one call stacks.
A stacked matrix gets the same bits as a lone one, and each root and
vector the same bits as in a lone path, so the summary does not depend on
the blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import KIND_SPECS, PerturbationKind, _majorant, _phi_at_zero
from .graphs import (
    _BLOCK_ENTRIES,
    _Block,
    _solve_stacks,
    _Trial,
    format_edge_list,
    format_perturbation_spec,
)
from .pathsim import COMPARISON_TOL, _check_steps, _curves
from .rng import EDGE_PROBABILITIES, SplitMix64, _check_n_max, _draw
from .spectral import PERRON_TOL, _as_float

_KINDS = tuple(PerturbationKind)

DERIVATIVE_TOL = 1e-6
INEQUALITY_TOL = 1e-6
EQUALITY_GAP_TOL = 1e-8
STRICT_SLACK_MIN = 1e-7


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
    for name, count in (("seed", seed), ("trials", trials), ("n_max", n_max)):
        if not isinstance(count, numbers.Integral) or isinstance(count, bool):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    seed, trials = int(seed), int(trials)  # any integer seed, negative ones too
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n_max = _check_n_max(n_max)
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
        raise ValueError(f"tolerance must be a real number, got {tolerance!r}")
    value = _as_float(tolerance)  # a numpy float runs, and is reported, as the Python float of its value
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    tolerance = value
    steps = _check_steps(steps)
    summary = VerifySummary(seed=seed, trials=trials, n_max=n_max, tolerance=tolerance)
    for block in _blocks(seed, trials, n_max, steps):
        # no name holds a block's instances, so they go before the next block is solved
        ids, drawn = [trial for trial, _ in block], [d for _, d in block]
        _check_block(summary, ids, drawn, _solve_stacks(drawn, PERRON_TOL, steps), inject_failure)
    return summary


def _blocks(seed: int, trials: int, n_max: int, steps: int):
    """The drawn trials ``(trial, drawn)``, in order, in blocks that end
    once their matrices reach ``_BLOCK_ENTRIES`` entries.  A trial of final
    size ``n`` counts ``3 steps n^2``: with room, its three ``n x n``
    matrices (``A_I``, their stack, ``Q``) and its ``steps`` vectors; the
    room keeps the blocks, and so ``verify``'s peak memory, at their
    measured size.  Trials are drawn together, as many at a time as a block
    of final size ``n_max`` holds."""
    window = max(1, _BLOCK_ENTRIES // (3 * steps * n_max**2))
    block, entries = [], 0
    for first in range(0, trials, window):
        ids = range(first, min(first + window, trials))
        streams = [SplitMix64.spawn(seed, trial) for trial in ids]
        kinds = [_KINDS[trial % 3] for trial in ids]
        ps = [EDGE_PROBABILITIES[(trial // 3) % 3] for trial in ids]
        for trial, drawn in zip(ids, _draw(streams, kinds, n_max, ps)):
            block.append((trial, drawn))
            entries += 3 * steps * drawn.size**2
            if entries >= _BLOCK_ENTRIES:
                yield block
                block, entries = [], 0
    if block:
        yield block


def _check_block(summary: VerifySummary, trials: list[int], drawn: list[_Trial], block: _Block, corrupt: bool) -> None:
    """Every check of a block's solved trials, into ``summary``: each check
    one array over the block, ``u(t)`` and ``f(t, lambda)`` from one array
    evaluation per kind; ``corrupt`` forces the bound of trial 0 below the
    exact value.  Failures come in trial order, then in check order, each
    with its trial's graph and perturbation, built from ``drawn``."""
    tolerance, grid = summary.tolerance, block.grid
    ts = np.concatenate([[0.0], grid])
    lambda_f = block.lambda_f
    values = np.column_stack([block.lambda_i, block.values])
    forms = block.forms[:, :-1]  # <P x, x> at the interior grid
    mismatch = np.abs(block.lhs - forms).max(axis=1)
    u, f = np.empty_like(values), np.empty_like(forms)
    for kind, spec in KIND_SPECS.items():
        idx = [i for i, k in enumerate(block.kinds) if k is kind]
        if not idx:
            continue
        summary.counts[kind.value] = summary.counts.get(kind.value, 0) + len(idx)
        lambda_i, d = block.lambda_i[idx], block.weights[idx].astype(float)  # cast once, not in each call
        u[idx] = _curves(spec, lambda_i, _phi_at_zero(spec, lambda_i, d), d, ts)
        f[idx] = _majorant(spec, grid[:-1], values[idx, 1:-1], d[:, None])
    bound = u[:, -1].copy()
    if corrupt and trials[0] == 0:
        bound[0] = lambda_f[0] - 1.0
    violation, gap = lambda_f - bound, bound - lambda_f
    ineq, comp = (forms - f).max(axis=1), (-(u - values)).max(axis=1)
    equal = block.equality

    summary.equality_cases += int(equal.sum())
    summary.strict_cases += len(equal) - int(equal.sum())
    for name, pick, rows in (
        ("max_bound_violation", max, violation),
        ("max_equality_gap", max, np.abs(gap[equal])),
        ("min_strict_slack", min, gap[~equal]),
        ("max_derivative_mismatch", max, mismatch),
        ("max_inequality_violation", max, ineq),
        ("max_comparison_violation", max, comp),
    ):
        setattr(summary, name, pick([getattr(summary, name), *rows.tolist()]))

    checks = (  # each check, its failed rows, and the detail of a failed row
        ("bound_validity", violation > tolerance, "lambda_F - bound = {:.3e}", violation),
        ("equality_gap", equal & (abs(gap) > EQUALITY_GAP_TOL), "|bound - lambda_F| = {:.3e}", abs(gap)),
        ("strict_slack", ~equal & (gap < STRICT_SLACK_MIN), "bound - lambda_F = {:.3e}", gap),
        ("monotonicity", (values[:, 1:] <= values[:, :-1]).any(axis=1),
         "lambda(t) not strictly increasing: {}", values.tolist()),
        ("derivative_identity", mismatch > DERIVATIVE_TOL, "|lambda' - quadratic form| = {:.3e}", mismatch),
        ("differential_inequality", ineq > INEQUALITY_TOL, "rhs - f(t, lambda) = {:.3e}", ineq),
        ("comparison_dominance", ~(comp <= tolerance), "lambda - u = {:.3e}", comp),
    )
    for i in np.flatnonzero(np.any([failed for _, failed, _, _ in checks], axis=0)):
        graph, pert = drawn[i].pair()  # a reproducer is built only for a failure
        summary.failures += [
            TrialFailure(
                trials[i], pert.kind.value, check, detail.format(rows[i]),
                format_edge_list(graph), format_perturbation_spec(pert),
            )
            for check, failed, detail, rows in checks
            if failed[i]
        ]
