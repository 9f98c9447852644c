"""Command-line interface.

Four commands:

* ``bound GRAPH SPEC``      -- one-instance report (JSON or TSV),
* ``path GRAPH SPEC``       -- sampled continuous-perturbation dump,
* ``verify``                -- seeded randomized invariant suite,
* ``construct KIND N DELTA``-- emit the equality-case instance of the
  kind's entry in ``KIND_SPECS``, with its closed-form values checked by the
  eigensolver.

Graphs are read in the edge-list format (header ``n m``, then ``i j`` lines;
``#`` comments and blank lines ignored).  Perturbations use the mini-grammar
``vertex u v1 ... vg`` | ``edge u v`` | ``pendant u``.

Exit codes: 0 success, 1 invariant failure, 2 parse failure (a graph file
that cannot be read or is not UTF-8 included; a byte-order mark is
skipped), 3 usage, invalid perturbation, a final graph above the vertex
limit of :func:`~specbound.graphs._instances` or unwritable
``construct --out``, 4 structural precondition (disconnected result),
141 stdout closed by its reader (the console script and ``python -m``).
``bound`` and ``path`` leave the instance checks to the library and map the
error class to the code, with one ``error:`` line on stderr.  ``main`` may be
called any number of times in one process; it builds its parser once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from .bounds import KIND_SPECS, BoundReport, PerturbationKind
from .graphs import (
    DisconnectedError,
    Graph,
    GraphParseError,
    Perturbation,
    _check_vertex_count,
    circulant_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    format_perturbation_spec,
    join,
    parse_edge_list,
    parse_perturbation_spec,
)
from .pathsim import (
    COMPARISON_TOL,
    _path_rows,
    closed_form_join,
    format_number,
    format_path_dump,
    sample_path,
)
from .report import bound_report
from .verify import run_verification

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_STRUCTURE = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ends

_ORACLE_TOL = 1e-9


def _round12(value):
    """Round floats to 12 significant digits, recursively, for stable output."""
    if isinstance(value, float):
        return float(format_number(value)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _print_json(payload: dict) -> None:
    print(json.dumps(_round12(payload), indent=2))


def _report_payload(rep: BoundReport) -> dict:
    return {
        "lambda_I": rep.lambda_i,
        "lambda_F_exact": rep.lambda_f_exact,
        "bound": rep.bound,
        "asymptotic_estimate": rep.asymptotic_estimate,
        "equality_case": rep.equality_case,
        "slack": rep.slack,
    }


def _error(exc: ValueError) -> int:
    """Print ``exc`` as one ``error:`` line; the exit code of its class."""
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, GraphParseError):
        return EXIT_PARSE
    return EXIT_STRUCTURE if isinstance(exc, DisconnectedError) else EXIT_USAGE


def _run_instance(args, command) -> int:
    """Read the instance ``args`` names and run ``command(graph, pert)`` on it."""
    try:
        with open(args.graph, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not text
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _error(GraphParseError(f"cannot read {args.graph}: {exc}"))
    try:
        command(parse_edge_list(text), parse_perturbation_spec(" ".join(args.perturbation)))
    except ValueError as exc:
        return _error(exc)
    return EXIT_OK


def _cmd_bound(args) -> int:
    def command(graph: Graph, pert: Perturbation) -> None:
        payload = _report_payload(bound_report(graph, pert))
        if args.format == "json":
            _print_json(payload)
        else:
            keys = list(payload)
            print("\t".join(keys))
            print("\t".join(format_number(payload[k]) for k in keys))

    return _run_instance(args, command)


def _cmd_path(args) -> int:
    def command(graph: Graph, pert: Perturbation) -> None:
        path = sample_path(graph, pert, steps=args.steps)
        if args.format == "tsv":
            sys.stdout.write(format_path_dump(path))
            return
        _print_json({"kind": path.kind.value, "rows": _path_rows(path)})

    return _run_instance(args, command)


def _cmd_verify(args) -> int:
    try:
        summary = run_verification(
            seed=args.seed,
            trials=args.trials,
            n_max=args.n_max,
            tolerance=args.tolerance,
            steps=args.steps,
            inject_failure=args.inject_failure,
        )
    except ValueError as exc:
        return _error(exc)
    _print_json(summary.to_dict())
    if not summary.ok:
        first = summary.failures[0]
        print(
            f"invariant failure in trial {first.trial} ({first.check}): {first.detail}\n"
            f"reproducer perturbation: {first.perturbation}\n"
            f"reproducer graph:\n{first.graph}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_construct(args) -> int:
    kind, n, delta = PerturbationKind(args.kind), args.n, args.delta
    spec = KIND_SPECS[kind]
    k = len(spec.params)  # one apex per degree keyword
    u, targets = (n, range(n)) if spec.isolated else (0, range(1, k))  # a new vertex, or the first apex
    try:
        _check_vertex_count(n + k + (not targets))  # the final graph's, before any graph is built
        core = circulant_graph(n, delta)
    except ValueError as exc:
        return _error(exc)
    # the new vertex apart from the core, or k apexes joined to it
    host = disjoint_union(core, empty_graph(1)) if spec.isolated else join(empty_graph(k), core)
    pert = Perturbation(kind, u, tuple(targets))
    lam_i_closed = spec.root(0.0, delta, k * n)
    lam_f_closed = closed_form_join(kind, n, delta, 1.0).value
    try:
        rep = bound_report(host, pert)
    except ValueError as exc:
        return _error(exc)
    checks = {
        "lambda_I": abs(rep.lambda_i - lam_i_closed),
        "lambda_F": abs(rep.lambda_f_exact - lam_f_closed),
        "bound": abs(rep.bound - lam_f_closed),
        "slack": abs(rep.slack),
    }
    graph_text = format_edge_list(host)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(graph_text)
        except OSError as exc:
            return _error(ValueError(f"cannot write {args.out}: {exc}"))
    payload = {
        "kind": args.kind,
        "n": args.n,
        "delta": args.delta,
        "graph": graph_text,
        "perturbation": format_perturbation_spec(pert),
        "closed_form": {"lambda_I": lam_i_closed, "lambda_F": lam_f_closed},
        **_report_payload(rep),
    }
    _print_json(payload)
    worst = max(checks.values())
    if worst > _ORACLE_TOL or not rep.equality_case:
        bad = {k: v for k, v in checks.items() if v > _ORACLE_TOL}
        print(
            f"error: closed form disagrees with the eigensolver oracle: {bad}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="specbound",
        description="Spectral-radius bounds for graphs under local perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bound report for one instance")
    p_bound.add_argument("graph", help="edge-list file")
    p_bound.add_argument("perturbation", nargs="+", help="e.g. 'edge 0 2'")
    p_bound.add_argument("--format", choices=("json", "tsv"), default="json")
    p_bound.set_defaults(func=_cmd_bound)

    p_path = sub.add_parser("path", help="continuous-perturbation dump")
    p_path.add_argument("graph", help="edge-list file")
    p_path.add_argument("perturbation", nargs="+", help="e.g. 'pendant 0'")
    p_path.add_argument("--steps", type=int, default=32)
    p_path.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_path.set_defaults(func=_cmd_path)

    p_verify = sub.add_parser("verify", help="seeded randomized invariant suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--n-max", type=int, default=9, dest="n_max")
    p_verify.add_argument(
        "--tolerance",
        type=float,
        default=COMPARISON_TOL,
        help="validity threshold override (exploratory runs only)",
    )
    p_verify.add_argument("--steps", type=int, default=8)
    p_verify.add_argument(
        "--inject-failure", action="store_true", help="harness self-test: force one failure"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser("construct", help="emit an equality-case instance")
    p_con.add_argument("kind", choices=[kind.value for kind in PerturbationKind])
    p_con.add_argument("n", type=int, help="order of the regular core graph")
    p_con.add_argument("delta", type=int, help="degree of the regular core graph")
    p_con.add_argument("--out", help="also write the host edge list to this file")
    p_con.set_defaults(func=_cmd_construct)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    return args.func(args)


def entrypoint() -> None:  # pragma: no cover - run as a program
    """:func:`main` as a program: a reader that closes stdout early (``|
    head -1``) ends it with ``EXIT_PIPE`` and no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit writes nowhere
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
