import json
import os
import subprocess
import sys
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

    def test_parse_failure_exit_1(self, capsys, tmp_path):
        path = write(tmp_path, "p.yaml", """
variables:
  - {name: X, manifold: SPD, dim: 2}
objective: "tr(X) * logdet(X)"
""")
        code, _, err = run_main(capsys, ["analyze", path])
        assert code == 1
        assert "not DGCP-representable" in err

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

    def test_x0_file(self, capsys, tmp_path):
        np.savetxt(tmp_path / "x0.csv", 2.0 * np.eye(2), delimiter=",")
        path = write(tmp_path, "ms.yaml", MATRIX_SQRT_2D)
        code, out, _ = run_main(capsys, ["solve", path, "--x0", str(tmp_path / "x0.csv")])
        assert code == 0


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
