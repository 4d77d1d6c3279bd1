import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geocert as gc
from geocert.cli import main
from geocert.problems import load_problem
from geocert.errors import ProblemFileError

from conftest import SIGMA_2, rel_err

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MATRIX_SQRT_2D = """
variables:
  - {name: X, manifold: SPD, dim: 2}
constants:
  A: [[4.0, 0.0], [0.0, 9.0]]
  I2: [[1.0, 0.0], [0.0, 1.0]]
objective: "sdivergence(X, A) + sdivergence(X, I2)"
solver: {grad_tol: 1.0e-7}
"""

NORM1_REGRESSION = """
variables:
  - {name: X, manifold: SPD, dim: 3}
constants:
  S1: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
  S2: [[1.0, 0.5, -0.6], [0.5, 1.2, 0.4], [-0.6, 0.4, 1.0]]
objective: "elementwise_norm1(X)"
fuzz:
  trials: 50
  seed: 3
  inject:
    - {a: S1, b: S2}
"""


LOG_SHIFTED_2D = """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "log(tr(X) - 100)"
"""


class TestProblemFiles:
    def test_load_shipped_files(self):
        for name in ("matrix_sqrt", "karcher", "brascamp_lieb", "tyler"):
            prob = load_problem(PROBLEMS / f"{name}.yaml")
            assert prob.manifold.dim == 5

    def test_csv_constant(self, tmp_path):
        np.savetxt(tmp_path / "a.csv", np.diag([4.0, 9.0]), delimiter=",")
        path = write(tmp_path, "p.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
constants:
  A: {file: a.csv, format: csv}
objective: "sdivergence(X, A)"
""")
        prob = load_problem(path)
        assert np.allclose(prob.constants["A"], np.diag([4.0, 9.0]))

    def test_constant_that_symmetrizing_overflows_exit_1(self, tmp_path, capsys):
        # The parent symmetrized it to inf, took its NaN eigenvalues for
        # positive ones, printed a RuntimeWarning and exited 0.
        path = write(tmp_path, "huge.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
constants:
  C: [[1.7e308, 0.0], [0.0, 1.0]]
objective: "distance(X, C)"
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "symmetrizing overflows" in err and "Warning" not in err

    def test_inline_injection_points(self, tmp_path):
        path = write(tmp_path, "inj.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X)"
fuzz:
  trials: 10
  inject:
    - {a: [[1.0, 0.0], [0.0, 1.0]], b: [[4.0, 0.0], [0.0, 4.0]]}
""")
        prob = load_problem(path)
        assert len(prob.injected) == 1
        assert np.allclose(prob.injected[0][1], 4.0 * np.eye(2))

    @pytest.mark.parametrize("a", ["[[1.0, 0.0], [0.0, -1.0]]", "[[1.0, 0.0], [0.0, 1.0]]"],
                             ids=["not-pd", "identity"])
    def test_an_asymmetric_injected_point_exits_1_whatever_the_other_is(self, tmp_path, capsys,
                                                                        a):
        # logdet(A) raises for the indefinite A; the pair's gates ran only
        # after that, so the fuzz skipped the trial and exited 0.
        path = write(tmp_path, "inj.yaml", f"""
variables:
  - {{name: X, manifold: SPD, dim: 2}}
objective: "logdet(X)"
fuzz:
  trials: 10
  inject:
    - {{a: {a}, b: [[1.0, 0.5], [0.0, 1.0]]}}
""")
        code, out, err = run_main(capsys, ["fuzz", path])
        assert (code, out) == (1, "")
        assert err == "error: matrix is not symmetric within 1e-12 relative\n"

    def test_validation_errors(self, tmp_path):
        bad = [
            "objective: 'tr(X)'",  # missing variables
            "variables:\n  - {name: X, dim: 2}\nobjective: ''",
            "variables:\n  - {name: X, dim: 2}\nobjective: 'tr(X)'\nextra: 1",
            "variables:\n  - {name: X, manifold: Sphere, dim: 2}\nobjective: 'tr(X)'",
            "variables:\n  - {name: X, dim: 2}\nconstants: {X: [[1.0]]}\nobjective: 'tr(X)'",
        ]
        for i, text in enumerate(bad):
            with pytest.raises(ProblemFileError):
                load_problem(write(tmp_path, f"bad{i}.yaml", text))

    # One value per exception a bare cast raises: ValueError, OverflowError
    # and TypeError; then fractional values, which a bare int() truncates.
    @pytest.mark.parametrize("command, block, key", [
        ("solve", "solver: {max_iter: abc}", "solver.max_iter"),
        ("solve", "solver: {max_iter: .inf}", "solver.max_iter"),
        ("fuzz", "fuzz: {trials: null}", "fuzz.trials"),
        ("fuzz", "fuzz: {seed: x}", "fuzz.seed"),
        ("fuzz", "fuzz: {trials: 2.7}", "fuzz.trials"),
        ("fuzz", "fuzz: {dim: 2.5}", "fuzz.dim"),
        ("solve", "solver: {max_iter: 2.9}", "solver.max_iter"),
    ])
    def test_malformed_block_value_exit_1(self, capsys, tmp_path, command, block, key):
        text = "variables:\n  - {name: X, manifold: SPD, dim: 2}\nobjective: 'logdet(X)'\n"
        path = write(tmp_path, "bad.yaml", text + block + "\n")
        for argv in ([command, path], ["analyze", path]):
            code, out, err = run_main(capsys, argv)
            assert code == 1
            assert not out
            assert err.startswith("error: ") and key in err, err

    def test_malformed_csv_constant_exit_1(self, capsys, tmp_path):
        (tmp_path / "a.csv").write_text("4.0,0.0\n0.0,nine\n")
        path = write(tmp_path, "p.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
constants:
  A: {file: a.csv, format: csv}
objective: "sdivergence(X, A)"
""")
        code, out, err = run_main(capsys, ["analyze", path])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and "a.csv" in err, err

    # Strings that spell numbers are not numbers, as in an atom's parameter.
    @pytest.mark.parametrize("value", ['["1", "2.5"]', '[[1, 2], [3]]', '"12"'])
    def test_a_constant_that_is_not_numbers_exit_1(self, capsys, tmp_path, value):
        text = ("variables:\n  - {name: X, manifold: SPD, dim: 2}\n"
                f"constants: {{h: {value}}}\nobjective: 'quad_form(h, X) - logdet(X)'\n")
        path = write(tmp_path, "bad.yaml", text)
        with pytest.raises(ProblemFileError, match="constant 'h' is not numeric"):
            load_problem(path)
        code, out, err = run_main(capsys, ["analyze", path])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and "constant 'h'" in err, err

    def test_a_number_with_a_bare_exponent_loads_as_a_number(self, tmp_path):
        # YAML 1.1 reads 1e-3 as a string, which a constant no longer takes.
        text = ("variables:\n  - {name: X, manifold: SPD, dim: 2}\n"
                "constants: {A: [[1e-3, 0], [0, 2E+0]]}\nobjective: 'sdivergence(X, A)'\n"
                "solver: {grad_tol: 1e-7}\n")
        prob = load_problem(write(tmp_path, "ok.yaml", text))
        assert prob.constants["A"].tolist() == [[1e-3, 0.0], [0.0, 2.0]]
        assert prob.solver == {"grad_tol": 1e-7}

    def test_integral_floats_accepted(self, tmp_path):
        text = ("variables:\n  - {name: X, manifold: SPD, dim: 2.0}\nobjective: 'logdet(X)'\n"
                "solver: {max_iter: 3.0}\nfuzz: {trials: 3, dim: 2.0}\n")
        prob = load_problem(write(tmp_path, "ok.yaml", text))
        assert prob.manifold.dim == 2
        assert prob.solver == {"max_iter": 3}
        assert prob.fuzz == {"trials": 3, "dim": 2}
        assert all(type(v) is int for v in (*prob.solver.values(), *prob.fuzz.values()))

    # A string entry, a NaN entry and points of the wrong shape, inline or a
    # constant's: each gets a constant's checks, and the objective's shape.
    @pytest.mark.parametrize("point, message", [
        ('[[1, "x"], [0, 1]]', "is not numeric"),
        ("[[.nan, 0], [0, 1]]", "has non-finite entries"),
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "must be a 2x2 matrix"),
        ("[1, 1]", "must be a 2x2 matrix"),
        ("h", "must be a 2x2 matrix"),
    ])
    def test_malformed_inject_point_exit_1(self, capsys, tmp_path, point, message):
        text = ("variables:\n  - {name: X, manifold: SPD, dim: 2}\nconstants: {h: [1.0, 2.0]}\n"
                "objective: 'logdet(X)'\nfuzz:\n  inject:\n"
                f"    - {{a: {point}, b: [[2, 0], [0, 2]]}}\n")
        path = write(tmp_path, "bad.yaml", text)
        with pytest.raises(ProblemFileError, match=f"fuzz.inject.*{message}"):
            load_problem(path)
        for argv in (["fuzz", path, "--trials", "20"], ["analyze", path]):
            code, out, err = run_main(capsys, argv)
            assert code == 1
            assert not out
            assert err.startswith("error: ") and "fuzz.inject" in err and message in err, err

    @pytest.mark.parametrize("dim", ["abc", "2.5", "null", "true", "yes"])
    def test_malformed_variable_dim_exit_1(self, capsys, tmp_path, dim):
        text = f"variables:\n  - {{name: X, manifold: SPD, dim: {dim}}}\nobjective: 'logdet(X)'\n"
        code, out, err = run_main(capsys, ["analyze", write(tmp_path, "bad.yaml", text)])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and "variable 'X': dim must be an integer" in err, err

    # YAML reads true and yes as booleans, which Python's int and float take as 1.
    @pytest.mark.parametrize("block, message", [
        ("fuzz: {trials: true}", "fuzz.trials must be an integer, got True"),
        ("fuzz: {tol: yes}", "fuzz.tol must be a number, got True"),
        ("solver: {max_iter: yes, grad_tol: 1.0e-6}", "solver.max_iter must be an integer, got True"),
        ("solver: {max_iter: 5, grad_tol: true}", "solver.grad_tol must be a number, got True"),
    ])
    def test_a_boolean_number_field_exit_1(self, capsys, tmp_path, block, message):
        text = f"variables:\n  - {{name: X, manifold: SPD, dim: 2}}\nobjective: 'logdet(X)'\n{block}\n"
        path = write(tmp_path, "bad.yaml", text)
        with pytest.raises(ProblemFileError, match=message):
            load_problem(path)
        for argv in (["fuzz", path, "--trials", "20"], ["solve", path]):
            code, out, err = run_main(capsys, argv)
            assert code == 1
            assert not out
            assert err.startswith("error: ") and message in err, err


class TestConstantWithoutAValue:
    @pytest.mark.parametrize("argv", [["analyze"], ["solve"], ["fuzz", "--trials", "50"]],
                             ids=["analyze", "solve", "fuzz"])
    @pytest.mark.parametrize("objective, message", [
        ("tr(X) + log(-1)", "atom 'log' has no value at its constant arguments"),
        ("tr(X) + 1e300 * exp(700)", "constant sum has no finite value"),
        # conjugation(A, B) underflows to the zero matrix: a finite value,
        # but no point of SPD, so distance has no value at any X.
        ("pow(distance(conjugation(A, B), X), 2)",
         "atom 'distance': its constant argument is not positive definite"),
    ], ids=["atom", "sum", "not-positive-definite"])
    def test_every_command_refuses_it_as_an_input_error(self, capsys, tmp_path, argv,
                                                        objective, message):
        # The constant part has no value, so no point has one: analyze does
        # not certify it, and solve and fuzz do not start.
        path = write(tmp_path, "c.yaml", f"""
variables:
  - {{name: X, manifold: SPD, dim: 2}}
constants:
  A: [[1.0, 0.0], [0.0, 1.0]]
  B: [[1.0e-200, 0.0], [0.0, 1.0e-200]]
objective: "{objective}"
""")
        code, out, err = run_main(capsys, [argv[0], path, *argv[1:]])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err, err

    @pytest.mark.parametrize("argv", [["analyze"], ["solve"], ["fuzz", "--trials", "50"]],
                             ids=["analyze", "solve", "fuzz"])
    @pytest.mark.parametrize("objective, atom", [
        ("pow(distance(conjugation(A, B), X), 2)", "distance"),
        ("tr(X) + log(-1)", "log"),
    ], ids=["not-positive-definite", "no-value"])
    def test_a_refusal_names_its_atom_once(self, capsys, tmp_path, argv, objective, atom):
        # The node's own refusal names the atom, so the parser adds no
        # "in call to" prefix naming it again.
        path = write(tmp_path, "c.yaml", f"""
variables:
  - {{name: X, manifold: SPD, dim: 2}}
constants:
  A: [[1.0, 0.0], [0.0, 1.0]]
  B: [[1.0e-200, 0.0], [0.0, 1.0e-200]]
objective: "{objective}"
""")
        code, out, err = run_main(capsys, [argv[0], path, *argv[1:]])
        assert code == 1 and not out
        assert err.count(f"'{atom}'") == 1, err
        assert f"atom '{atom}'" in err and "in call to" not in err, err


class TestAnalyzeCommand:
    def test_verdict_lines_exact(self, capsys):
        code, out, _ = run_main(capsys, ["analyze", str(PROBLEMS / "matrix_sqrt.yaml")])
        lines = out.splitlines()
        assert lines[0] == "Objective Euclidean curvature: UnknownCurvature"
        assert lines[1] == "Objective Geodesic curvature: GConvex"
        assert code == 0

    def test_report_document_structure(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_main(
            capsys, ["analyze", str(PROBLEMS / "tyler.yaml"), "--out", str(out_file)]
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["report"]["gcurvature"] == "GConvex"
        assert doc["report"]["sign"] in ("Positive", "Negative", "AnySign")
        assert len(doc["report"]["trace"]) >= 1

    def test_uncertified_exit_2(self, capsys, tmp_path):
        path = write(tmp_path, "u.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X) - eigmax(X)"
""")
        code, out, _ = run_main(capsys, ["analyze", path])
        assert code == 2
        assert "Objective Geodesic curvature: GUnknown" in out

    def test_an_odd_power_of_a_negative_constant_is_not_certified(self, capsys, tmp_path):
        # (tr X - 8)^3: pow(-2, 3) may not be read as Positive, the sign pow
        # is registered with, so the outer cube's argument is AnySign.
        path = write(tmp_path, "b.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 3}
objective: "pow(pow(-2, 3) + tr(X), 3)"
""")
        code, out, _ = run_main(capsys, ["analyze", path])
        assert code == 2
        assert "Objective Geodesic curvature: GUnknown" in out
        code, _, err = run_main(capsys, ["solve", path])
        assert code == 5
        assert "refusing" in err
        code, out, _ = run_main(capsys, ["fuzz", path, "--trials", "200", "--seed", "1"])
        assert code == 3
        assert json.loads(out)["result"]["verdict"] == "INFO"

    def test_parse_failure_exit_1(self, capsys, tmp_path):
        path = write(tmp_path, "p.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X) * logdet(X)"
""")
        code, _, err = run_main(capsys, ["analyze", path])
        assert code == 1
        assert "not DGCP-representable" in err

    def test_nesting_past_the_recursion_limit_exit_1(self, capsys, tmp_path):
        objective = "(" * 250 + "logdet(X)" + ")" * 250
        path = write(tmp_path, "p.yaml", "variables:\n  - {name: X, manifold: SPD, dim: 2}\n"
                                         f"objective: '{objective}'\n")
        code, out, err = run_main(capsys, ["analyze", path])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and "nests too deeply" in err, err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_main(capsys, ["analyze", "no_such_file.yaml"])
        assert code == 1

    def test_usage_errors_exit_1(self, capsys):
        # argparse usage failures map to the input-error code, not 2
        assert main(["analyze"]) == 1
        assert main(["not-a-command"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestFuzzCommand:
    def test_consistent_exit_0(self, capsys):
        code, out, _ = run_main(
            capsys, ["fuzz", str(PROBLEMS / "brascamp_lieb.yaml"), "--trials", "150"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "CONSISTENT"

    def test_injected_counterexample_exit_3(self, capsys, tmp_path):
        path = write(tmp_path, "n.yaml", NORM1_REGRESSION)
        code, out, _ = run_main(capsys, ["fuzz", path])
        assert code == 3
        doc = json.loads(out)
        check = doc["result"]["checks"]["geodesic-convexity"]
        assert check["verdict"] == "ViolationFound"
        assert np.allclose(np.array(check["witness"]["point_b"][0]), SIGMA_2)
        assert abs(check["witness"]["lhs"] - 4.7638) <= 5e-4

    def test_inconclusive_exit_1(self, capsys, tmp_path):
        # log(tr(X) - 100) is undefined at every sampled point of SPD(2).
        path = write(tmp_path, "l.yaml", LOG_SHIFTED_2D)
        code, out, err = run_main(capsys, ["fuzz", path, "--trials", "50"])
        assert code == 1
        assert not out
        assert err.startswith("inconclusive: 50 of 50 trials"), err

    def test_zero_trials_exit_1(self, capsys):
        code, _, err = run_main(
            capsys, ["fuzz", str(PROBLEMS / "tyler.yaml"), "--trials", "0"]
        )
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--cond", "inf"), ("--cond", "nan")])
    def test_non_finite_bound_exit_1(self, capsys, flag, value):
        code, out, err = run_main(capsys, ["fuzz", str(PROBLEMS / "tyler.yaml"), flag, value])
        assert code == 1
        assert not out
        assert err.startswith("error: ")

    def test_dim_conflict_exit_1(self, capsys):
        code, _, err = run_main(
            capsys, ["fuzz", str(PROBLEMS / "tyler.yaml"), "--dim", "3"]
        )
        assert code == 1

    @pytest.mark.parametrize("used, unused", [(3, 2), (2, 3)])
    def test_fuzz_runs_at_the_objective_dimension(self, capsys, tmp_path, used, unused):
        text = f"""
variables:
  - {{name: X, manifold: SPD, dim: {used}}}
  - {{name: Y, manifold: SPD, dim: {unused}}}
objective: "logdet(X)"
"""
        path = write(tmp_path, "p.yaml", text)
        for flags in ([], ["--dim", str(used)]):
            code, out, _ = run_main(capsys, ["fuzz", path, "--trials", "20", *flags])
            assert code == 0
            assert json.loads(out)["config"]["dim"] == used
        code, out, err = run_main(capsys, ["fuzz", path, "--trials", "20", "--dim", str(unused)])
        assert code == 1 and not out
        assert f"--dim {unused} conflicts with the objective's dimension {used}" in err
        declared = write(tmp_path, "q.yaml", text + f"fuzz: {{dim: {unused}}}\n")
        code, out, err = run_main(capsys, ["fuzz", declared, "--trials", "20"])
        assert code == 1 and not out
        assert f"fuzz.dim {unused} conflicts with the objective's dimension {used}" in err

    def test_joint_two_variable_objective(self, capsys, tmp_path):
        path = write(tmp_path, "joint.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 3}
  - {name: Y, manifold: SPD, dim: 3}
objective: "sdivergence(X, Y) + distance(X, Y)"
""")
        code, out, _ = run_main(capsys, ["analyze", path])
        assert code == 0
        assert "Objective Geodesic curvature: GConvex" in out
        code, out, _ = run_main(capsys, ["fuzz", path, "--trials", "200", "--seed", "4"])
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "CONSISTENT"
        code, _, err = run_main(capsys, ["solve", path])
        assert code == 1  # joint problems have no single-variable solve

    def test_seed_from_environment(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "e.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X)"
""")
        monkeypatch.setenv("GEOCERT_SEED", "123")
        code, out, _ = run_main(capsys, ["fuzz", path, "--trials", "20"])
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 123
        monkeypatch.setenv("GEOCERT_SEED", "not-a-number")
        code, _, err = run_main(capsys, ["fuzz", path, "--trials", "20"])
        assert code == 1


class TestSolveCommand:
    def test_matrix_sqrt_diag(self, capsys, tmp_path):
        path = write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)
        code, out, _ = run_main(capsys, ["solve", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["used_fd_gradient"] is False
        minimizer = np.array(doc["solve"]["minimizer"])
        assert rel_err(minimizer, np.diag([2.0, 3.0])) <= 1e-6

    def test_shipped_files_use_exact_gradients(self, capsys):
        for name in ("matrix_sqrt", "karcher", "brascamp_lieb", "tyler"):
            code, out, _ = run_main(capsys, ["solve", str(PROBLEMS / f"{name}.yaml")])
            assert code == (4 if name == "tyler" else 0), name
            assert json.loads(out)["solve"]["used_fd_gradient"] is False, name

    def test_tyler_file_stagnates_exit_4(self, capsys):
        # two samples in d = 5 leave the objective unbounded below; the line
        # search must reject candidates past the PD tolerance and stagnate
        code, out, _ = run_main(capsys, ["solve", str(PROBLEMS / "tyler.yaml")])
        assert code == 4
        doc = json.loads(out)["solve"]
        assert doc["stagnated"] is True
        assert doc["converged"] is False

    def test_cone_exit_regression(self, capsys, tmp_path):
        # the minimizer A sits 1e-9 from the cone's boundary; a central
        # difference step there leaves the cone
        path = write(tmp_path, "cone.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 3}
constants:
  A: [[1.0, 0.0, 0.0], [0.0, 1.0e-9, 0.0], [0.0, 0.0, 1.0]]
objective: "pow(distance(A, X), 2)"
""")
        code, out, err = run_main(capsys, ["solve", path])
        assert code == 0, err
        doc = json.loads(out)["solve"]
        assert doc["used_fd_gradient"] is False
        a = np.diag([1.0, 1e-9, 1.0])
        assert rel_err(np.array(doc["minimizer"]), a) <= 1e-6

    def test_atom_without_vjp_falls_back_to_fd(self, capsys, tmp_path):
        sig = gc.AtomSignature(
            id="half_trace_nograd", positions=(gc.ArgKind.MANIFOLD,), result="scalar",
            sign=gc.Sign.POSITIVE, gcurv=gc.GCurvature.CONVEX,
            gmono=gc.GMonotonicity.INCREASING, ecurv=gc.ECurvature.AFFINE,
        )
        gc.register_atom(sig, lambda x: 0.5 * float(np.trace(x)))
        try:
            path = write(tmp_path, "fb.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "half_trace_nograd(X) - logdet(X)"
solver: {grad_tol: 1.0e-6}
""")
            code, out, err = run_main(capsys, ["solve", path])
        finally:
            gc.unregister_atom("half_trace_nograd")
        assert code == 0, err
        doc = json.loads(out)["solve"]
        assert doc["used_fd_gradient"] is True
        assert rel_err(np.array(doc["minimizer"]), 2.0 * np.eye(2)) <= 1e-5

    def test_karcher_two_point(self, capsys, tmp_path):
        a = np.asarray(gc.random_spd(3, 10.0, 61))
        b = np.asarray(gc.random_spd(3, 10.0, 62))
        target = gc.geometric_mean(a, b).entries
        fmt = lambda m: "[" + ", ".join(
            "[" + ", ".join(repr(float(v)) for v in row) + "]" for row in m
        ) + "]"
        path = write(tmp_path, "ka.yaml", f"""
variables:
  - {{name: X, manifold: SPD, dim: 3}}
constants:
  A1: {fmt(a)}
  A2: {fmt(b)}
objective: "0.5 * pow(distance(A1, X), 2) + 0.5 * pow(distance(A2, X), 2)"
solver: {{grad_tol: 1.0e-7}}
""")
        code, out, _ = run_main(capsys, ["solve", path])
        assert code == 0
        minimizer = np.array(json.loads(out)["solve"]["minimizer"])
        assert rel_err(minimizer, target) <= 1e-6

    def test_numeric_failure_exit_4(self, capsys, tmp_path, monkeypatch):
        # A LinAlgError inside the solve is the library's failure, not the input's.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("geocert.cli.gradient_descent", fail)
        code, out, err = run_main(capsys, ["solve", write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)])
        assert code == 4
        assert not out
        assert err.startswith("error: ") and "Eigenvalues did not converge" in err, err

    def test_benchmark_ill_conditioned_karcher_converges(self, capsys, tmp_path, monkeypatch):
        # The solve-family instance whose last steps gain less than the
        # evaluator's roundoff; it stagnated under a value-only line search.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import _problem_yaml, family_instances

        (inst,) = [i for i in family_instances(1) if i[0] == "karcher3-d5-c10000-0"]
        _label, consts, objective, d, _ref = inst
        path = write(tmp_path, "k.yaml", _problem_yaml(consts, objective, d))
        code, out, err = run_main(capsys, ["solve", path])
        assert code == 0, err
        solve = json.loads(out)["solve"]
        assert solve["converged"] is True and solve["grad_norm"] <= 1e-6

    def test_uncertified_refused_exit_5(self, capsys, tmp_path):
        path = write(tmp_path, "u.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X) - eigmax(X)"
""")
        code, _, err = run_main(capsys, ["solve", path])
        assert code == 5
        assert "refusing" in err

    def test_force_overrides_gate(self, capsys, tmp_path):
        path = write(tmp_path, "f.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X) - logdet(X)"
solver: {grad_tol: 1.0e-6}
""")
        # GConvex here, so no force needed; check --force also accepted
        code, out, _ = run_main(capsys, ["solve", path, "--force"])
        assert code == 0
        minimizer = np.array(json.loads(out)["solve"]["minimizer"])
        assert rel_err(minimizer, np.eye(2)) <= 1e-4

    def test_max_iter_exhaustion_exit_4(self, capsys, tmp_path):
        path = write(tmp_path, "m.yaml", MATRIX_SQRT_2D)
        code, out, _ = run_main(capsys, ["solve", path, "--max-iter", "2"])
        assert code == 4
        assert json.loads(out)["solve"]["converged"] is False

    def test_zero_max_iter_exit_4(self, capsys):
        code, out, _ = run_main(capsys, ["solve", str(PROBLEMS / "karcher.yaml"), "--max-iter", "0"])
        assert code == 4
        solve = json.loads(out)["solve"]
        assert solve["iterations"] == 0 and len(solve["trajectory"]) == 1
        assert solve["converged"] is False and solve["stagnated"] is False

    # Before, a NaN tolerance ran every iteration and a negative count none,
    # both exiting 4.
    @pytest.mark.parametrize("block, flags, key", [
        ("solver: {grad_tol: .nan}", [], "grad_tol"),
        ("solver: {grad_tol: -1.0e-6}", [], "grad_tol"),
        ("solver: {max_iter: -3}", [], "max_iter"),
        ("", ["--grad-tol", "nan"], "grad_tol"),
        ("", ["--grad-tol", "inf"], "grad_tol"),
        ("", ["--max-iter", "-1"], "max_iter"),
    ])
    def test_invalid_stopping_rule_exit_1(self, capsys, tmp_path, block, flags, key):
        path = write(tmp_path, "m.yaml", MATRIX_SQRT_2D.replace("solver: {grad_tol: 1.0e-7}", block))
        code, out, err = run_main(capsys, ["solve", path, *flags])
        assert code == 1
        assert not out
        assert err.startswith(f"error: {key} must be"), err

    def test_the_start_is_evaluated_once(self, capsys, monkeypatch):
        # cmd_solve validates the start and hands it to gradient_descent,
        # which evaluates it no second time.
        calls = []
        value_at = gc.solver._ExpressionObjective._value_at

        def counting(self, x, eig):
            calls.append(x)
            return value_at(self, x, eig)

        monkeypatch.setattr(gc.solver._ExpressionObjective, "_value_at", counting)
        code, out, _ = run_main(capsys, ["solve", str(PROBLEMS / "karcher.yaml"), "--max-iter", "0"])
        assert code == 4 and json.loads(out)["solve"]["iterations"] == 0
        assert len(calls) == 1

    def test_x0_file(self, capsys, tmp_path):
        np.savetxt(tmp_path / "x0.csv", 2.0 * np.eye(2), delimiter=",")
        path = write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)
        code, out, _ = run_main(capsys, ["solve", path, "--x0", str(tmp_path / "x0.csv")])
        assert code == 0

    def test_malformed_x0_file_exit_1(self, capsys, tmp_path):
        (tmp_path / "x0.csv").write_text("2.0,0.0\n0.0,two\n")
        path = write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)
        code, out, err = run_main(capsys, ["solve", path, "--x0", str(tmp_path / "x0.csv")])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and "x0.csv" in err, err

    def test_numeric_failure_after_a_valid_start_exit_4(self, capsys, tmp_path):
        # GConvex and finite at the identity, but its gradient overflows there.
        path = write(tmp_path, "e.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 5}
objective: "exp(141.9 * sum(X))"
""")
        code, out, err = run_main(capsys, ["solve", path])
        assert code == 4
        assert not out
        assert err == "error: solver failed numerically: Euclidean gradient has non-finite entries\n"

    def test_an_overflowing_riemannian_gradient_exit_4(self, capsys, tmp_path):
        # The halved first step reaches exp(400) I, where X G X overflows.
        path = write(tmp_path, "neg.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "-800 * tr(X)"
""")
        code, out, err = run_main(capsys, ["solve", path, "--force"])
        assert code == 4
        assert not out
        assert err == ("error: solver failed numerically: Riemannian gradient has non-finite "
                       "entries\n")

    @pytest.mark.parametrize("x0, message", [
        ("1.0,0.0\n0.0,-1.0\n", "not positive definite"),
        ("1.0,0.5\n0.0,1.0\n", "not symmetric"),
        ("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n", "--x0 matrix has shape (3, 3)"),
    ], ids=["not-pd", "asymmetric", "wrong-shape"])
    def test_a_bad_start_exit_1(self, capsys, tmp_path, x0, message):
        (tmp_path / "x0.csv").write_text(x0)
        path = write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)
        code, out, err = run_main(capsys, ["solve", path, "--x0", str(tmp_path / "x0.csv")])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and message in err, err

    @pytest.mark.parametrize("objective, message", [
        ("log(tr(X) - 100)", "log requires a positive argument"),
        ("exp(400 * tr(X))", "exp overflows"),
    ], ids=["undefined", "overflow"])
    def test_a_start_where_the_objective_is_undefined_exit_1(self, capsys, tmp_path,
                                                              objective, message):
        path = write(tmp_path, "u.yaml", LOG_SHIFTED_2D.replace("log(tr(X) - 100)", objective))
        code, out, err = run_main(capsys, ["solve", path, "--force"])
        assert code == 1
        assert not out
        assert err.startswith("error: ") and message in err, err

    def test_out_into_a_missing_directory_exit_1(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "report.json"
        code, out, err = run_main(capsys, ["analyze", str(PROBLEMS / "karcher.yaml"),
                                           "--out", str(out_file)])
        assert code == 1
        assert err.startswith("error: ") and "No such file or directory" in err, err
        assert not out_file.parent.exists()

    def test_parser_built_once_per_process(self):
        import geocert.cli as cli

        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


class TestTracerContract:
    def test_wrapped_layer_boundaries_keep_the_solve_report(self, capsys, monkeypatch):
        # A per-layer tracer replaces these attributes with pass-through
        # wrappers, ``evaluate`` as ``(e, env)`` and the others as
        # ``(*args, **kwargs)``; the solve must call through them unchanged.
        import geocert.cli
        import geocert.solver
        import geocert.spd

        argv = ["solve", str(PROBLEMS / "karcher.yaml")]
        expected = run_main(capsys, argv)
        seen = []

        def wrap(fn, name):
            def traced(*args, **kwargs):
                seen.append(name)
                return fn(*args, **kwargs)
            return traced

        evaluate = geocert.cli.evaluate

        def traced_evaluate(e, env):
            seen.append("evaluate")
            return evaluate(e, env)

        monkeypatch.setattr(geocert.cli, "evaluate", traced_evaluate)
        monkeypatch.setattr(geocert.cli, "gradient_descent",
                            wrap(geocert.cli.gradient_descent, "gradient_descent"))
        monkeypatch.setattr(geocert.solver.Objective, "gradient",
                            wrap(geocert.solver.Objective.gradient, "gradient"))
        monkeypatch.setattr(geocert.spd, "distance", wrap(geocert.spd.distance, "distance"))
        assert run_main(capsys, argv) == expected
        assert expected[0] == 0
        assert {"gradient_descent", "gradient"} <= set(seen)

    def test_tracer_patches_existing_names_and_restores_them(self, monkeypatch):
        # The benchmark's tracer looks up each attribute it wraps by name, so
        # renaming one fails here, not only in a traced benchmark run.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from tracer import Tracer

        tracer = Tracer()
        patched = []
        try:
            tracer.install()
            patched = list(tracer._patches)
            for owner, attr, original in patched:
                assert getattr(owner, attr) is not original, attr
        finally:
            tracer.uninstall()
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original, attr

    def test_clear_point_caches_empties_the_oracle_caches(self, monkeypatch):
        # The benchmark resets these caches by name before each fuzz run; a
        # rename would make the reset a no-op and problem-files time cache hits.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        from workloads import clear_point_caches

        cfg = gc.FuzzConfig(trials=8, dim=2, seed=1)
        gc.check_gconvex(lambda m: float(np.trace(m)), cfg)
        gc.check_monotone_loewner(lambda m: float(np.trace(m)), "increasing", cfg)
        caches = (gc.oracle._cached_points, gc.oracle._cached_ordered_pair)
        assert all(c.cache_info().currsize for c in caches)
        clear_point_caches()
        assert [c.cache_info().currsize for c in caches] == [0, 0]
        # A block's paths live with its cache entry, so they went too.
        frames = []
        monkeypatch.setattr(gc.spd, "_geodesic_frames",
                            lambda *a, build=gc.spd._geodesic_frames: frames.append(1) or build(*a))
        gc.check_gconvex(lambda m: float(np.trace(m)), cfg)
        assert frames == [1]


class TestDeterminism:
    def _run(self, argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "geocert", *argv],
            capture_output=True, cwd=cwd,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )

    def test_analyze_byte_identical(self):
        a = self._run(["analyze", "problems/karcher.yaml"], ROOT)
        b = self._run(["analyze", "problems/karcher.yaml"], ROOT)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_fuzz_byte_identical(self):
        args = ["fuzz", "problems/tyler.yaml", "--trials", "60", "--seed", "99"]
        a = self._run(args, ROOT)
        b = self._run(args, ROOT)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_different_seeds_differ(self):
        a = self._run(["fuzz", "problems/tyler.yaml", "--trials", "60", "--seed", "1"], ROOT)
        b = self._run(["fuzz", "problems/tyler.yaml", "--trials", "60", "--seed", "2"], ROOT)
        assert a.stdout != b.stdout
