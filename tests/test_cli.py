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
from specbound import bounds, cli, graphs, spectral, verify
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
    # the final pattern's connectivity from them; the final graph is built
    # only for the vertex kind, whose cone lives in it.
    p6 = write_graph(tmp_path, sb.path_graph(6), "p6.txt")
    p6_k1 = write_graph(tmp_path, sb.disjoint_union(sb.path_graph(6), sb.empty_graph(1)), "p6_k1.txt")
    searches = _count_calls(monkeypatch, spectral, "connected_components")
    applied = _count_calls(monkeypatch, graphs, "apply_perturbation")
    cases = [(p6, "edge 0 5", 0), (p6, "pendant 0", 0), (p6_k1, "vertex 6 0 5", 1)]
    for gfile, spec, builds in cases:
        searches.clear()
        applied.clear()
        code, _, _ = run(capsys, ["bound", gfile, *spec.split()])
        assert code == 0
        assert (len(searches), len(applied)) == (0, builds), spec


def test_bound_checks_each_perturbation_once(tmp_path, capsys, monkeypatch):
    # One applicability check per op, with the instance; the vertex kind's
    # recognizer applies the perturbation, which checks it once more.
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

def _lone_matrices(seed, trials):
    """Each verify trial's A_I component blocks and its A_I + P, rebuilt with
    the public functions, as (size, bytes) keys."""
    components, final = [], []
    for trial in range(trials):
        kind = list(sb.PerturbationKind)[trial % 3]
        p_edge = EDGE_PROBABILITIES[(trial // 3) % 3]
        host, pert = sb.random_instance(sb.SplitMix64.spawn(seed, trial), kind, 9, p_edge)
        p_mat = sb.perturbation_matrix(host, pert)
        a_initial = np.zeros_like(p_mat)
        a_initial[: host.n, : host.n] = host.adjacency()
        mats = [a_initial[np.ix_(c, c)] for c in spectral.connected_components(a_initial)]
        components += [(len(m), m.tobytes()) for m in mats]
        final.append((len(p_mat), (1.0 * p_mat + a_initial).tobytes()))
    return components, final


def test_verify_sets_each_trial_up_once(monkeypatch):
    # Trials are solved in blocks: the eigendecompositions cover each trial's
    # A_I components exactly once, and eigvalsh its A_I + P once.  Each
    # LAPACK routine runs once per matrix size and block, split only into
    # full stacks.  The grid vectors come from the components'
    # eigendecompositions, so no grid point reaches a linear solve.
    blocks = _count_calls(monkeypatch, graphs, "_instances")
    calls, components, final = [], [], []
    original_stack = spectral._perron_stack

    def recorded_stack(stack):
        components.extend((len(m), m.tobytes()) for m in stack)
        return original_stack(stack)

    monkeypatch.setattr(spectral, "_perron_stack", recorded_stack)
    for name in ("eigh", "eigvalsh", "solve"):

        def recorded(stack, *args, _name=name, _original=getattr(np.linalg, name)):
            calls.append((_name, len(blocks), stack.shape[-1], len(stack)))
            if _name == "eigvalsh":
                final.extend((stack.shape[-1], m.tobytes()) for m in stack)
            return _original(stack, *args)

        monkeypatch.setattr(np.linalg, name, recorded)
    summary = sb.run_verification(42, 300).to_dict()
    assert summary["instances"] == {"vertex": 100, "edge": 100, "pendant": 100}
    assert (summary["equality_cases"], summary["strict_cases"], summary["ok"]) == (63, 237, True)
    lone_components, lone_final = _lone_matrices(42, 300)
    assert Counter(components) == Counter(lone_components)
    assert Counter(final) == Counter(lone_final)
    assert [name for name, _, _, _ in calls if name == "solve"] == []
    groups = {}
    for name, block, n, count in calls:
        groups.setdefault((name, block, n), []).append(count)
    for (_, _, n), counts in groups.items():
        assert set(counts[:-1]) <= {spectral._STACK_ENTRIES // n**2}
    splits = len(calls) - len(groups)
    dims = {n for _, _, n, _ in calls}
    assert len(calls) <= 2 * len(dims) * (len(blocks) + splits)  # eigh, eigvalsh
    assert len(calls) < 300  # alone, each trial would make at least two


def test_verify_extremes_equal_the_lone_public_solves():
    # Stacking a block of trials must not change a bit of the summary.
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
            gap = rep.bound - rep.lambda_f_exact
            worst["max_bound_violation"] = max(worst["max_bound_violation"], -gap)
            if rep.equality_case:
                worst["max_equality_gap"] = max(worst["max_equality_gap"], abs(gap))
            else:
                worst["min_strict_slack"] = min(worst["min_strict_slack"], gap)
            path = sb.sample_path(host, pert, steps=8)
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
    ],
)
def test_verify_refuses_non_integer_counts(counts, message):
    with pytest.raises(ValueError) as excinfo:
        sb.run_verification(42, **counts)
    assert str(excinfo.value) == message


def test_verify_accepts_numpy_integer_counts():
    summary = sb.run_verification(42, np.int64(3), np.int32(6))
    assert summary.ok and summary.counts == {"vertex": 1, "edge": 1, "pendant": 1}


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


def _run_fresh_interpreter(*argv):
    """``python -m specbound.cli ARGV`` in a new process, from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "specbound.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120, check=False,
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
