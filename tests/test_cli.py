"""CLI commands, output schemas, and exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import specbound as sb
from specbound import bounds, cli, graphs, pathsim, rng, spectral, verify
from specbound.cli import main
from specbound.rng import EDGE_PROBABILITIES
from specbound.verify import COMPARISON_TOL

SQRT2 = math.sqrt(2.0)


def write_graph(tmp_path, graph, name="g.txt"):
    path = tmp_path / name
    path.write_text(sb.format_edge_list(graph))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_edge_equality_instance(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    code, out, _ = run(capsys, ["bound", gfile, "edge", "0", "2"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "lambda_I",
        "lambda_F_exact",
        "bound",
        "asymptotic_estimate",
        "equality_case",
        "slack",
    }
    assert payload["bound"] == pytest.approx(2.0, abs=1e-9)
    assert payload["lambda_F_exact"] == pytest.approx(2.0, abs=1e-9)
    assert payload["equality_case"] is True
    assert abs(payload["slack"]) <= 1e-8


def test_bound_pendant_strict_instance(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    code, out, _ = run(capsys, ["bound", gfile, "pendant", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == pytest.approx(1.6566967996302286, abs=1e-9)
    assert payload["lambda_F_exact"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
    assert payload["equality_case"] is False
    assert payload["slack"] > 1e-7


def test_bound_star_reports_null_estimate(tmp_path, capsys):
    # empty host: lambda_I = 0, no first-order estimate to report
    gfile = write_graph(tmp_path, sb.empty_graph(4))
    code, out, _ = run(capsys, ["bound", gfile, "vertex", "0", "1", "2", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_I"] == 0.0
    assert payload["bound"] == pytest.approx(math.sqrt(3), abs=1e-9)
    assert payload["asymptotic_estimate"] is None


def test_bound_tsv_format(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    code, out, _ = run(capsys, ["bound", gfile, "--format", "tsv", "edge", "0", "2"])
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split("\t"), row.split("\t")))
    assert float(cells["bound"]) == pytest.approx(2.0, abs=1e-9)
    assert cells["equality_case"] == "true"


def test_bound_output_is_deterministic(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.cycle_graph(5))
    args = ["bound", gfile, "pendant", "3"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2
    payload = json.loads(out1)  # schema round-trips through JSON
    assert json.loads(json.dumps(payload)) == payload


def test_bound_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")  # self-loop
    code, _, err = run(capsys, ["bound", str(bad), "edge", "0", "2"])
    assert code == 2 and "error" in err


def test_bound_missing_file_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, ["bound", str(tmp_path / "nope.txt"), "edge", "0", "2"])
    assert code == 2


@pytest.mark.parametrize("command", [["bound"], ["path", "--steps", "4"]])
def test_graph_file_that_is_not_utf8_exit_2(tmp_path, capsys, command):
    gfile = tmp_path / "g.txt"
    gfile.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, [*command, str(gfile), "edge", "0", "2"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {gfile}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["bound"], ["path", "--steps", "4"]])
def test_graph_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    # An editor's UTF-8 BOM used to make the header "\ufeff3 2" and exit 2.
    plain = write_graph(tmp_path, sb.path_graph(3))
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    expected = run(capsys, [*command, plain, "edge", "0", "2"])
    assert expected[0] == 0
    assert run(capsys, [*command, str(marked), "edge", "0", "2"]) == expected


def test_bound_invalid_perturbation_exit_3(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    code, _, _ = run(capsys, ["bound", gfile, "edge", "0", "1"])  # already present
    assert code == 3
    code, _, _ = run(capsys, ["bound", gfile, "frobnicate", "0"])
    assert code == 3


def _disconnected_result(tmp_path):
    # triangle plus an isolated vertex plus the new one: connecting the new
    # vertex to the isolated one leaves the triangle detached
    host = sb.disjoint_union(
        sb.disjoint_union(sb.cycle_graph(3), sb.empty_graph(1)), sb.empty_graph(1)
    )
    return write_graph(tmp_path, host)


def test_bound_disconnected_final_exit_4(tmp_path, capsys):
    gfile = _disconnected_result(tmp_path)
    code, _, _ = run(capsys, ["bound", gfile, "vertex", "4", "3"])
    assert code == 4


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.<name>`` through every module name bound to it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("specbound") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


def test_bound_checks_each_instance_once(tmp_path, capsys, monkeypatch):
    # No matrix search: the host's components come from its edge set, and
    # the final pattern's connectivity from them; the final graph is never
    # built, not even for the vertex kind, whose cone lives in it: the
    # recognizer reads the host's degrees off its bit rows.
    p6 = write_graph(tmp_path, sb.path_graph(6), "p6.txt")
    p6_k1 = write_graph(tmp_path, sb.disjoint_union(sb.path_graph(6), sb.empty_graph(1)), "p6_k1.txt")
    c4_k1 = write_graph(tmp_path, sb.disjoint_union(sb.cycle_graph(4), sb.empty_graph(1)), "c4_k1.txt")
    searches = _count_calls(monkeypatch, spectral, "connected_components")
    applied = _count_calls(monkeypatch, graphs, "apply_perturbation")
    cases = [
        (p6, "edge 0 5", 0), (p6, "pendant 0", 0), (p6_k1, "vertex 6 0 5", 0), (c4_k1, "vertex 4 0 1 2 3", 0),
    ]
    for gfile, spec, builds in cases:
        searches.clear()
        applied.clear()
        code, _, _ = run(capsys, ["bound", gfile, *spec.split()])
        assert code == 0
        assert (len(searches), len(applied)) == (0, builds), spec


def test_bound_checks_each_perturbation_once(tmp_path, capsys, monkeypatch):
    # One applicability check per op, with the instance; no recognizer
    # applies the perturbation, which would check it once more.
    p6 = write_graph(tmp_path, sb.path_graph(6), "p6.txt")
    p6_k1 = write_graph(tmp_path, sb.disjoint_union(sb.path_graph(6), sb.empty_graph(1)), "p6_k1.txt")
    checks = _count_calls(monkeypatch, graphs, "_added_edges")
    applied = _count_calls(monkeypatch, graphs, "apply_perturbation")
    for gfile, spec in [(p6, "edge 0 5"), (p6, "pendant 0"), (p6_k1, "vertex 6 0 5")]:
        checks.clear()
        applied.clear()
        code, _, _ = run(capsys, ["bound", gfile, *spec.split()])
        assert code == 0
        assert len(checks) - len(applied) == 1, spec



def test_bound_checks_the_degree_data_once(tmp_path, capsys, monkeypatch):
    # The bound and the gap estimate come from one validated weight.
    p6 = write_graph(tmp_path, sb.path_graph(6), "p6.txt")
    p6_k1 = write_graph(tmp_path, sb.disjoint_union(sb.path_graph(6), sb.empty_graph(1)), "p6_k1.txt")
    weights = _count_calls(monkeypatch, bounds, "_weight")
    for gfile, spec in [(p6, "edge 0 5"), (p6, "pendant 0"), (p6_k1, "vertex 6 0 5")]:
        weights.clear()
        code, _, _ = run(capsys, ["bound", gfile, *spec.split()])
        assert (code, len(weights)) == (0, 1), spec

# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------

def test_path_star_dump(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.empty_graph(4))
    code, out, _ = run(capsys, ["path", gfile, "--steps", "8", "vertex", "0", "1", "2", "3"])
    assert code == 0
    rows = [ln.split("\t") for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert len(rows) == 9
    assert all(abs(float(r[5])) <= 1e-7 for r in rows)  # equality-case margins


def test_path_strict_margins_positive(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(4))
    code, out, _ = run(capsys, ["path", gfile, "--steps", "8", "edge", "0", "3"])
    assert code == 0
    rows = [ln.split("\t") for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert float(rows[0][5]) == 0.0
    assert all(float(r[5]) > 0.0 for r in rows[1:])


def test_path_json_format(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    code, out, _ = run(capsys, ["path", gfile, "--steps", "4", "--format", "json", "edge", "0", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "edge"
    assert len(payload["rows"]) == 5
    assert payload["rows"][0]["derivative_lhs"] is None


def test_path_steps_usage_error_exit_3(tmp_path, capsys):
    # `sample_path` owns the rule, so `path` and `verify` refuse alike
    gfile = write_graph(tmp_path, sb.path_graph(3))
    refusal = (3, "", "error: steps must be an integer >= 2, got 1\n")
    assert run(capsys, ["path", gfile, "--steps", "1", "edge", "0", "2"]) == refusal
    assert run(capsys, ["verify", "--trials", "3", "--steps", "1"]) == refusal


@pytest.mark.parametrize("command", ["path", "verify"])
def test_steps_past_the_grid_limit_exit_3(tmp_path, capsys, monkeypatch, command):
    # A grid of 10^11 points used to end in numpy's MemoryError and exit 1,
    # the code of an invariant failure.  It is refused before any solve, so
    # nothing is allocated for it here.
    def no_solve(*args, **kwargs):
        raise AssertionError("the step count reached a solve")

    monkeypatch.setattr(pathsim, "_instances", no_solve)
    monkeypatch.setattr(verify, "_solve_stacks", no_solve)
    gfile = write_graph(tmp_path, sb.path_graph(3))
    argv = {"path": ["path", gfile, "pendant", "0"], "verify": ["verify", "--trials", "1"]}[command]
    refusal = (3, "", "error: steps must be at most 1048576, got 100000000000\n")
    assert run(capsys, [*argv, "--steps", "100000000000"]) == refusal


@pytest.mark.parametrize("command", ["bound", "path", "construct", "verify"])
def test_final_graphs_past_the_vertex_limit_exit_3(tmp_path, capsys, monkeypatch, command):
    # A final graph of 10^6 vertices used to end in numpy's MemoryError and
    # exit 1, and `verify --n-max 3e21` drew its first graph for ever.  The
    # limit is lowered to 5 here, so nothing large is allocated even without
    # the check.
    monkeypatch.setattr(graphs, "_MAX_VERTICES", 5)
    monkeypatch.setattr(rng, "_MAX_VERTICES", 5)
    at_limit, past = write_graph(tmp_path, sb.path_graph(4), "p4.txt"), write_graph(tmp_path, sb.path_graph(5))
    argv = {
        "bound": ["bound", past, "pendant", "0"],
        "path": ["path", past, "pendant", "0"],
        "construct": ["construct", "vertex", "5", "2"],
        "verify": ["verify", "--trials", "3", "--n-max", "6"],
    }[command]
    message = "n_max must be at most 5, got 6" if command == "verify" else "the final graph has 6 vertices; at most 5 are supported"
    assert run(capsys, argv) == (3, "", f"error: {message}\n")
    assert run(capsys, ["bound", at_limit, "pendant", "0"])[0] == 0


@pytest.mark.parametrize("command", ["bound", "path"])
def test_header_past_the_vertex_limit_exit_3(tmp_path, capsys, command):
    # numpy refuses a matrix this size before allocating it, with "array is
    # too big"; the library refuses it first, with the limit in the message.
    gfile = tmp_path / "huge.txt"
    gfile.write_text("99999999999 0\n")
    refusal = (3, "", "error: the final graph has 100000000000 vertices; at most 8192 are supported\n")
    assert run(capsys, [command, str(gfile), "pendant", "0"]) == refusal


def test_path_disconnected_final_exit_4(tmp_path, capsys):
    gfile = _disconnected_result(tmp_path)
    for fmt in ("tsv", "json"):
        code, out, err = run(capsys, ["path", gfile, "--format", fmt, "vertex", "4", "3"])
        assert (code, out, err) == (4, "", "error: the perturbed graph is disconnected\n")


def _assert_degenerate_equality(capsys, gfile, spec):
    # Both endpoints of the added edge have degree 0, so d = 0 and
    # lambda_I = 0: the final graph is K2, and the bound is its index 1,
    # attained, on the path too, where lambda(t) = u(t) = t.
    code, out, err = run(capsys, ["bound", gfile, *spec])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert (rep["lambda_I"], rep["lambda_F_exact"], rep["bound"], rep["slack"]) == (0.0, 1.0, 1.0, 0.0)
    assert rep["equality_case"] is True and rep["asymptotic_estimate"] is None
    code, out, err = run(capsys, ["path", gfile, "--steps", "4", *spec])
    assert (code, err) == (0, "")
    rows = [[float(x) for x in ln.split("\t")] for ln in out.splitlines()[1:]]
    assert [(r[0], r[1], r[4], r[5]) for r in rows] == [(t, t, t, 0.0) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(abs(r[2] - 1.0) <= 1e-9 and abs(r[3] - 1.0) <= 1e-12 for r in rows[1:-1])


def test_path_edge_between_isolated_pair_is_an_equality_case(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.empty_graph(2))
    _assert_degenerate_equality(capsys, gfile, ["edge", "0", "1"])


def test_path_pendant_on_single_vertex_is_an_equality_case(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.empty_graph(1))
    _assert_degenerate_equality(capsys, gfile, ["pendant", "0"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_run_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "7", "--trials", "9", "--n-max", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["instances"] == {"vertex": 3, "edge": 3, "pendant": 3}
    assert payload["max_bound_violation"] <= 1e-9
    assert payload["max_derivative_mismatch"] <= 1e-6


def test_verify_is_bit_reproducible(tmp_path, capsys):
    args = ["verify", "--seed", "42", "--trials", "6", "--n-max", "6"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_verify_usage_errors_exit_3(capsys):
    code, _, _ = run(capsys, ["verify", "--trials", "0"])
    assert code == 3
    code, _, _ = run(capsys, ["verify", "--n-max", "2"])
    assert code == 3


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_refuses_meaningless_tolerance_exit_3(capsys, tolerance):
    # a negative tolerance fails bounds that hold, nan fails every trial and
    # inf passes every trial
    code, out, err = run(capsys, ["verify", "--trials", "3", "--tolerance", tolerance])
    expected = f"error: tolerance must be finite and >= 0, got {float(tolerance)}\n"
    assert (code, out, err) == (3, "", expected)


def test_verify_injected_failure_exit_1(capsys):
    code, out, err = run(
        capsys, ["verify", "--seed", "7", "--trials", "3", "--n-max", "6", "--inject-failure"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"][0]["check"] == "bound_validity"
    # the reproducer is printed for rerunning by hand
    assert "reproducer" in err and "edge" in err or "vertex" in err or "pendant" in err



def test_verify_formats_reproducers_only_for_failures(monkeypatch):
    formats = _count_calls(monkeypatch, verify, "format_edge_list")
    assert sb.run_verification(42, 30).ok
    assert formats == []
    failed = sb.run_verification(7, 3, n_max=6, inject_failure=True)
    assert len(formats) == len(failed.failures) > 0

def test_verify_builds_no_graph_for_a_passing_trial(monkeypatch):
    # A trial is drawn, set up, solved and checked from arrays: its Graph
    # and its Perturbation are built only for a failing trial's record.
    built = []
    for cls in (sb.Graph, sb.Perturbation):

        def counted(self, _name=cls.__name__, _post_init=cls.__post_init__):
            built.append(_name)
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for seed in range(4):
        assert sb.run_verification(seed, 30).ok
    assert built == []
    failed = sb.run_verification(7, 30, inject_failure=True)
    assert {f.trial for f in failed.failures} == {0}
    assert sorted(built) == ["Graph", "Perturbation"]


def _cone_by_matrix(host, pert):
    """The equality case straight from the adjacency matrix of the graph it
    lives in: the apexes adjacent to every other vertex and not to each
    other, and the other vertices of one degree among themselves."""
    a = host.adjacency()
    apexes = [pert.u, *pert.targets]
    if pert.kind is sb.PerturbationKind.VERTEX_CONNECTION:
        a, apexes = a + sb.perturbation_matrix(host, pert), [pert.u]
    others = [v for v in range(len(a)) if v not in apexes]
    if a[np.ix_(apexes, apexes)].any() or not a[np.ix_(apexes, others)].all():
        return False
    return len(set(a[np.ix_(others, others)].sum(axis=1).tolist())) <= 1


def _bits(value):
    """A value as its exact bits: an array's dtype, shape and bytes, a
    float's ``float.hex``."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value.hex() if isinstance(value, float) else value


def test_the_row_sum_recognizer_is_the_graph_recognizer(capsys, monkeypatch):
    # verify reads each host's degrees off its bit rows; equality_case
    # reads them off the graph, and _cone_by_matrix reads neither.  The
    # Graph entry sets each drawn trial up again, alone: it builds the same
    # trial record, components included, and the same instance, to the bit.
    set_up, solve_stacks = [], graphs._solve_stacks

    def recorded(trials, *args):
        set_up.extend(trials)
        return solve_stacks(trials, *args)

    monkeypatch.setattr(graphs, "_solve_stacks", recorded)
    for seed in range(60):
        for block in verify._blocks(seed, 30, 9, 2):
            drawn = [d for _, d in block]
            insts = solve_stacks(drawn, spectral.PERRON_TOL, 2).instances()
            for d, inst in zip(drawn, insts, strict=True):
                host, pert = d.pair()
                assert inst.equality == sb.equality_case(host, pert) == _cone_by_matrix(host, pert)
                set_up.clear()
                (alone,) = graphs._instances([(host, pert)], spectral.PERRON_TOL, 2)
                assert set_up == [d]
                assert [_bits(v) for v in alone] == [_bits(v) for v in inst]
    for kind in sb.PerturbationKind:
        for n, delta in ((1, 0), (4, 0), (4, 2), (6, 3), (7, 4)):
            code, out, _ = run(capsys, ["construct", kind.value, str(n), str(delta)])
            payload = json.loads(out)
            host = sb.parse_edge_list(payload["graph"])
            pert = sb.parse_perturbation_spec(payload["perturbation"])
            assert code == 0 and payload["equality_case"] is True
            assert sb.bound_report(host, pert).equality_case and sb.equality_case(host, pert)
            assert _cone_by_matrix(host, pert)


def _lone_failures(trial, host, pert, inst, tol, corrupt):
    """The failure records of one solved trial of ``pert`` on ``host``,
    check by check, from its sampled path and the public checks, with
    ``lambda_F`` from the lone public path solve."""
    kind, failures = inst.kind, []
    lambda_f = sb.sample_path(host, pert, steps=len(inst.grid)).lambda_f

    def fail(check, detail):
        graph, spec = sb.format_edge_list(host), sb.format_perturbation_spec(pert)
        failures.append(verify.TrialFailure(trial, kind.value, check, detail, graph, spec))

    bound = lambda_f - 1.0 if corrupt else sb.perturbation_bound(kind, inst.lambda_i, **inst.params)
    if lambda_f - bound > tol:
        fail("bound_validity", f"lambda_F - bound = {lambda_f - bound:.3e}")
    gap = bound - lambda_f
    if sb.equality_case(host, pert):
        if abs(gap) > verify.EQUALITY_GAP_TOL:
            fail("equality_gap", f"|bound - lambda_F| = {abs(gap):.3e}")
    elif gap < verify.STRICT_SLACK_MIN:
        fail("strict_slack", f"bound - lambda_F = {gap:.3e}")
    lhs, rhs = inst.lhs.tolist() + [None], inst.forms[:-1].tolist() + [None]
    samples = [sb.PathSample(0.0, inst.lambda_i, inst.vector, None, None)]
    samples += map(sb.PathSample, inst.grid.tolist(), inst.values.tolist(), inst.vectors, lhs, rhs)
    path = sb.PerturbationPath(kind=kind, samples=tuple(samples), **inst.params)
    values = [s.value for s in path.samples]
    if any(b <= a for a, b in zip(values, values[1:])):
        fail("monotonicity", f"lambda(t) not strictly increasing: {values}")
    mismatch = max(abs(s.derivative_lhs - s.derivative_rhs) for s in path.samples[1:-1])
    if mismatch > verify.DERIVATIVE_TOL:
        fail("derivative_identity", f"|lambda' - quadratic form| = {mismatch:.3e}")
    ineq = sb.check_differential_inequality(path)
    if ineq > verify.INEQUALITY_TOL:
        fail("differential_inequality", f"rhs - f(t, lambda) = {ineq:.3e}")
    comp = sb.check_comparison(path, tolerance=tol)
    if not comp.ok:
        fail("comparison_dominance", f"lambda - u = {comp.max_violation:.3e}")
    return failures


def test_verify_records_every_failed_check_like_the_lone_checks(monkeypatch):
    # Every check is made to fail on some trials: thresholds past every
    # value, a zero tolerance, trial 0's bound corrupted, and trial 4's path
    # flattened.  The block's records are the lone trials' records, in
    # trial order and then in check order.
    monkeypatch.setattr(verify, "DERIVATIVE_TOL", -1.0)
    monkeypatch.setattr(verify, "INEQUALITY_TOL", -1e9)
    monkeypatch.setattr(verify, "EQUALITY_GAP_TOL", -1.0)
    monkeypatch.setattr(verify, "STRICT_SLACK_MIN", math.inf)
    solved, solve_stacks = [], verify._solve_stacks

    def flattened(*args):
        block = solve_stacks(*args)
        if not solved:
            block.values[4, 2] = block.values[4, 1]
        solved.extend(block.instances())
        return block

    monkeypatch.setattr(verify, "_solve_stacks", flattened)
    summary = sb.run_verification(11, 12, tolerance=0.0, inject_failure=True)
    expected = []
    for trial, inst in enumerate(solved):
        kind, p_edge = list(sb.PerturbationKind)[trial % 3], EDGE_PROBABILITIES[(trial // 3) % 3]
        host, pert = sb.random_instance(sb.SplitMix64.spawn(11, trial), kind, 9, p_edge)
        expected += _lone_failures(trial, host, pert, inst, 0.0, trial == 0)
    assert {f.check for f in expected} == {
        "bound_validity", "equality_gap", "strict_slack", "monotonicity",
        "derivative_identity", "differential_inequality", "comparison_dominance",
    }
    assert summary.failures == expected


def _lone_components(seed, trials):
    """Each verify trial's A_I component blocks, rebuilt with the public
    functions, as (size, bytes) keys."""
    components = []
    for trial in range(trials):
        kind = list(sb.PerturbationKind)[trial % 3]
        p_edge = EDGE_PROBABILITIES[(trial // 3) % 3]
        host, pert = sb.random_instance(sb.SplitMix64.spawn(seed, trial), kind, 9, p_edge)
        p_mat = sb.perturbation_matrix(host, pert)
        a_initial = np.zeros_like(p_mat)
        a_initial[: host.n, : host.n] = host.adjacency()
        mats = [a_initial[np.ix_(c, c)] for c in spectral.connected_components(a_initial)]
        components += [(len(m), m.tobytes()) for m in mats]
    return components


def test_verify_sets_each_trial_up_once(monkeypatch):
    # Trials are solved in blocks: the eigendecompositions cover each trial's
    # A_I components exactly once, and lambda_F is the root at t = 1, so no
    # eigvalsh runs.  eigh runs exactly once per matrix size and block, on
    # one stack of all the block's matrices of that size.  The grid vectors
    # come from the components' eigendecompositions, so no grid point
    # reaches a linear solve.
    blocks = _count_calls(monkeypatch, graphs, "_solve_stacks")
    calls, components = [], []
    original_stack = spectral._perron_stack

    def recorded_stack(stack):
        components.extend((len(m), m.tobytes()) for m in stack)
        return original_stack(stack)

    monkeypatch.setattr(spectral, "_perron_stack", recorded_stack)
    for name in ("eigh", "eigvalsh", "solve"):

        def recorded(stack, *args, _name=name, _original=getattr(np.linalg, name)):
            calls.append((_name, len(blocks), stack.shape[-1], len(stack)))
            return _original(stack, *args)

        monkeypatch.setattr(np.linalg, name, recorded)
    summary = sb.run_verification(42, 300).to_dict()
    assert summary["instances"] == {"vertex": 100, "edge": 100, "pendant": 100}
    assert (summary["equality_cases"], summary["strict_cases"], summary["ok"]) == (63, 237, True)
    assert Counter(components) == Counter(_lone_components(42, 300))
    assert {name for name, _, _, _ in calls} == {"eigh"}
    groups = Counter((block, n) for _, block, n, _ in calls)
    assert set(groups.values()) == {1}  # one call per block and size
    dims = {n for _, _, n, _ in calls}
    assert len(calls) <= len(dims) * len(blocks)
    assert len(calls) < 300  # alone, each trial would make at least one


def test_verify_groups_each_block_by_size_once(monkeypatch):
    # The draw lays a block out as one A_I stack and one W stack per final
    # size, and the paths are the rows of those stacks: the only regrouping
    # by size is of the components.  lambda_F is each path's root at t = 1,
    # so no A_I + P is built or solved.
    blocks = _count_calls(monkeypatch, graphs, "_solve_stacks")
    groupings = _count_calls(monkeypatch, spectral, "_by_size")
    tops = _count_calls(monkeypatch, spectral, "_final_tops")
    rows = []
    solve_paths = graphs._solve_paths

    def recorded_paths(paths, *args):
        rows.extend(a for a, _, _ in paths)
        return solve_paths(paths, *args)

    monkeypatch.setattr(graphs, "_solve_paths", recorded_paths)
    assert sb.run_verification(7, 30).ok
    assert (len(blocks), len(groupings), len(tops)) == (1, 1, 0)
    assert len(rows) == 30
    stacks = {id(a.base): a.base for a in rows}.values()
    assert len(stacks) == len({len(a) for a in rows})  # one A_I stack per final size
    assert all(stack.ndim == 3 and stack.shape[0] == sum(a.base is stack for a in rows) for stack in stacks)


def test_verify_extremes_equal_the_lone_public_solves():
    # Stacking a block of trials must not change a bit of the summary.
    # lambda_F is the lone path's root at t = 1, as in verify.
    tol = COMPARISON_TOL
    for seed in range(20):
        worst = {
            "max_bound_violation": 0.0,
            "min_strict_slack": math.inf,
            "max_equality_gap": 0.0,
            "max_derivative_mismatch": 0.0,
            "max_inequality_violation": -math.inf,
            "max_comparison_violation": 0.0,
        }
        for trial in range(30):
            kind = list(sb.PerturbationKind)[trial % 3]
            p_edge = EDGE_PROBABILITIES[(trial // 3) % 3]
            host, pert = sb.random_instance(sb.SplitMix64.spawn(seed, trial), kind, 9, p_edge)
            rep = sb.bound_report(host, pert)
            path = sb.sample_path(host, pert, steps=8)
            gap = rep.bound - path.lambda_f
            worst["max_bound_violation"] = max(worst["max_bound_violation"], -gap)
            if rep.equality_case:
                worst["max_equality_gap"] = max(worst["max_equality_gap"], abs(gap))
            else:
                worst["min_strict_slack"] = min(worst["min_strict_slack"], gap)
            mismatch = max(
                abs(s.derivative_lhs - s.derivative_rhs)
                for s in path.samples
                if s.derivative_lhs is not None
            )
            worst["max_derivative_mismatch"] = max(worst["max_derivative_mismatch"], mismatch)
            ineq = sb.check_differential_inequality(path)
            worst["max_inequality_violation"] = max(worst["max_inequality_violation"], ineq)
            comp = sb.check_comparison(path, tolerance=tol).max_violation
            worst["max_comparison_violation"] = max(worst["max_comparison_violation"], comp)
        summary = sb.run_verification(seed, 30)
        assert {key: getattr(summary, key) for key in worst} == worst, seed


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"trials": "3"}, "trials must be an integer, got '3'"),
        ({"trials": 3, "n_max": 9.5}, "n_max must be an integer, got 9.5"),
        ({"trials": 3, "n_max": False}, "n_max must be an integer, got False"),
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"trials": 3, "n_max": 2}, "n_max must be at least 3, got 2"),
        ({"seed": 1.5, "trials": 3}, "seed must be an integer, got 1.5"),
        ({"seed": "1", "trials": 3}, "seed must be an integer, got '1'"),
        ({"seed": True, "trials": 3}, "seed must be an integer, got True"),
        ({"trials": 3, "tolerance": True}, "tolerance must be a real number, got True"),
        ({"trials": 3, "tolerance": "x"}, "tolerance must be a real number, got 'x'"),
        ({"trials": 3, "tolerance": 10**400}, f"tolerance must be finite and >= 0, got {10**400}"),
    ],
)
def test_verify_refuses_non_integer_counts(counts, message):
    with pytest.raises(ValueError) as excinfo:
        sb.run_verification(**{"seed": 42, **counts})
    assert str(excinfo.value) == message


def test_verify_accepts_numpy_integer_counts():
    summary = sb.run_verification(42, np.int64(3), np.int32(6))
    assert summary.ok and summary.counts == {"vertex": 1, "edge": 1, "pendant": 1}


def test_verify_reports_a_numpy_float_tolerance_as_a_float():
    summary = sb.run_verification(42, 3, tolerance=np.float32(0.5))
    assert type(summary.tolerance) is float
    assert json.dumps(summary.to_dict()) == json.dumps(sb.run_verification(42, 3, tolerance=0.5).to_dict())


@pytest.mark.parametrize("seed", [np.int64(3), np.int64(-3), -1])
def test_verify_takes_any_integer_seed(seed):
    # A numpy integer seed runs as the Python int of its value; a negative
    # seed is as valid as any other.
    summary = sb.run_verification(seed, 6)
    assert summary.ok and summary.to_dict() == sb.run_verification(int(seed), 6).to_dict()
    assert type(summary.to_dict()["seed"]) is int


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_vertex_cone(tmp_path, capsys):
    out_file = tmp_path / "host.txt"
    code, out, _ = run(capsys, ["construct", "vertex", "4", "2", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"]["lambda_F"] == pytest.approx(1 + math.sqrt(5), abs=1e-12)
    assert payload["equality_case"] is True
    assert abs(payload["slack"]) <= 1e-9
    emitted = sb.parse_edge_list(out_file.read_text())
    assert emitted.n == 5 and emitted.degree(4) == 0


def test_construct_edge_triangle(capsys):
    code, out, _ = run(capsys, ["construct", "edge", "1", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_I"] == pytest.approx(SQRT2, abs=1e-9)
    assert payload["bound"] == pytest.approx(2.0, abs=1e-9)
    assert payload["perturbation"] == "edge 0 1"


def test_construct_pendant_p3(capsys):
    code, out, _ = run(capsys, ["construct", "pendant", "1", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_I"] == pytest.approx(1.0, abs=1e-9)
    assert payload["bound"] == pytest.approx(SQRT2, abs=1e-9)


def test_construct_infeasible_exit_3(capsys):
    code, _, err = run(capsys, ["construct", "vertex", "3", "1"])  # odd degree sum
    assert code == 3 and "error" in err


def test_construct_refuses_the_size_before_building_a_graph(capsys, monkeypatch):
    # `construct vertex 200000 0` used to build the core, the host and the
    # targets before the bound refused the final graph.
    def no_core(*args):
        raise AssertionError("the core was built")

    monkeypatch.setattr(cli, "circulant_graph", no_core)
    refusal = (3, "", "error: the final graph has 200001 vertices; at most 8192 are supported\n")
    assert run(capsys, ["construct", "vertex", "200000", "0"]) == refusal


def test_construct_unwritable_out_exit_3(tmp_path, capsys):
    # refused like `bound`'s unreadable graph file: one error line, no JSON
    target = tmp_path / "no" / "such" / "h.txt"
    code, out, err = run(capsys, ["construct", "vertex", "4", "2", "--out", str(target)])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_unknown_command_exit_3(capsys):
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

MIXED_CODES = [0, 0, 0, 0, 0, 0, 0, 3, 0, 3]


def _mixed_calls(tmp_path):
    gfile = write_graph(tmp_path, sb.path_graph(4))
    return [
        ["bound", gfile, "edge", "0", "3"],
        ["bound", gfile, "--format", "tsv", "pendant", "1"],
        ["bound", gfile, "edge", "0", "3"],
        ["path", gfile, "--steps", "4", "--format", "json", "edge", "0", "2"],
        ["path", gfile, "pendant", "0"],
        ["verify", "--seed", "3", "--trials", "3", "--n-max", "5"],
        ["construct", "edge", "1", "0"],
        ["frobnicate"],
        ["--help"],
        ["bound", gfile, "--format", "xml", "edge", "0", "3"],
    ]


def test_parser_is_built_once_across_commands(tmp_path, capsys, monkeypatch):
    progs = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    calls = _mixed_calls(tmp_path)
    codes = [run(capsys, calls[0])[0]]
    built = len(progs)  # the top-level parser and one per command
    codes += [run(capsys, argv)[0] for argv in calls[1:] + calls]
    assert codes == MIXED_CODES * 2
    assert progs.count("specbound") == 1 and len(progs) == built


def test_shared_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    calls = _mixed_calls(tmp_path)
    shared = [run(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == MIXED_CODES


def _run_fresh_interpreter(*argv, stdout=subprocess.PIPE):
    """``python -m specbound.cli ARGV`` in a new process, from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "specbound.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120, check=False,
    )


def test_fresh_interpreter_matches_in_process(tmp_path, capsys):
    gfile = write_graph(tmp_path, sb.path_graph(3))
    argv = ["bound", gfile, "edge", "0", "2"]
    proc = _run_fresh_interpreter(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)
    assert _run_fresh_interpreter("--help").returncode == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 0\n")  # self-loop
    assert _run_fresh_interpreter("bound", str(bad), "edge", "0", "2").returncode == 2


def test_closed_stdout_ends_quietly_with_its_own_code():
    # "verify | head -1" printed a BrokenPipeError traceback and exited 1,
    # the code of a failed invariant.
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the program writes
    try:
        proc = _run_fresh_interpreter("verify", "--trials", "3", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")
