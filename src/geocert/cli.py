"""Command-line front end: analyze, fuzz, and solve problem files.

Exit codes are a stable contract:

    0  certified / consistent / converged
    1  input error (parse, validation, the start, inconclusive fuzzing)
    2  not certified (GUnknown or GConcave objective)
    3  numeric counterexample found
    4  no convergence within the iteration budget, or a numeric failure
       of the solve after its start was validated
    5  refused to solve an uncertified problem without --force

All randomness flows from an explicit --seed, the problem file, or the
GEOCERT_SEED environment variable, in that order of precedence; reports are
byte-identical across runs for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import atoms  # noqa: F401  (registry population)
from .analysis import analyze
from .errors import (
    GeocertError,
    InconclusiveError,
    ProblemFileError,
    StagnationError,
)
from .expr import GCurvature, evaluate
from .oracle import FuzzConfig, cross_validate
from .problems import LoadedProblem, load_problem
from .solver import _ExpressionObjective, _check_stopping, _validated_start, gradient_descent

DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNCERTIFIED = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_REFUSED = 5

_CERTIFIED = (GCurvature.CONVEX, GCurvature.LINEAR)


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc: dict, out_path: str | None):
    text = _canonical_json(doc)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_header(prob: LoadedProblem) -> dict:
    return {
        "source": prob.path,
        "objective": prob.objective_text,
        "variables": [
            {"name": name, "manifold": "SPD", "dim": var.manifold.dim}
            for name, var in sorted(prob.variables.items())
        ],
    }


def _seed_from(args, prob: LoadedProblem) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    if "seed" in prob.fuzz:
        return prob.fuzz["seed"]
    env = os.environ.get("GEOCERT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ProblemFileError(f"GEOCERT_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def cmd_analyze(args) -> int:
    prob = load_problem(args.path)
    report = analyze(prob.expression, prob.manifold)
    print(f"Objective Euclidean curvature: {report.ecurvature.value}")
    print(f"Objective Geodesic curvature: {report.gcurvature.value}")
    doc = {
        "command": "analyze",
        "problem": _problem_header(prob),
        "report": report.to_dict(),
    }
    _emit(doc, args.out)
    return EXIT_OK if report.gcurvature in _CERTIFIED else EXIT_UNCERTIFIED


def _chosen(block: dict, keys, **flags) -> dict:
    """Each of ``keys`` that its flag, or else the file's ``block``, sets.

    A field set by neither is left out, so the callee's own default applies.
    """
    return {key: flags[key] if flags.get(key) is not None else block[key]
            for key in keys if flags.get(key) is not None or key in block}


def _fuzz_config(args, prob: LoadedProblem) -> FuzzConfig:
    block = prob.fuzz
    seed = _seed_from(args, prob)
    # cross_validate fuzzes at the objective's own dimension.
    dim = prob.manifold.dim
    source, asked = ("--dim", args.dim) if args.dim is not None else ("fuzz.dim", block.get("dim"))
    if asked is not None and asked != dim:
        raise ProblemFileError(f"{source} {asked} conflicts with the objective's dimension {dim}")
    chosen = _chosen(block, ("trials", "cond_max", "t_samples", "tol"),
                     trials=args.trials, cond_max=args.cond, tol=args.tol)
    return FuzzConfig(dim=dim, seed=seed, injected=prob.injected, **chosen)


def cmd_fuzz(args) -> int:
    prob = load_problem(args.path)
    cfg = _fuzz_config(args, prob)
    result = cross_validate(prob.expression, cfg)
    doc = {
        "command": "fuzz",
        "problem": _problem_header(prob),
        "config": {
            "trials": cfg.trials,
            "dim": cfg.dim,
            "cond_max": cfg.cond_max,
            "t_samples": cfg.t_samples,
            "tol": cfg.tol,
            "seed": cfg.seed,
            "injected_pairs": len(cfg.injected),
        },
        "result": result.to_dict(),
    }
    _emit(doc, args.out)
    return EXIT_COUNTEREXAMPLE if result.any_violation else EXIT_OK


def _initial_point(args, prob: LoadedProblem) -> np.ndarray:
    d = prob.manifold.dim
    if args.x0 is None or args.x0 == "identity":
        return np.eye(d)
    try:
        arr = np.loadtxt(args.x0, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ProblemFileError(f"--x0 file {args.x0} is not numeric: {exc}") from exc
    if arr.shape != (d, d):
        raise ProblemFileError(f"--x0 matrix has shape {arr.shape}, expected {(d, d)}")
    return arr


def cmd_solve(args) -> int:
    prob = load_problem(args.path)
    report = analyze(prob.expression, prob.manifold)
    doc = {
        "command": "solve",
        "problem": _problem_header(prob),
        "report": {
            "sign": report.sign.value,
            "gcurvature": report.gcurvature.value,
            "ecurvature": report.ecurvature.value,
        },
    }
    if report.gcurvature not in _CERTIFIED and not args.force:
        print(
            f"refusing to solve: geodesic curvature is {report.gcurvature.value}, "
            "so a local optimum carries no global certificate (pass --force to override)",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    names = sorted(prob.expression.variables)
    if len(names) != 1:
        raise ProblemFileError("solve requires exactly one variable in the objective")
    name = names[0]
    objective = _ExpressionObjective(prob.expression, name, name, evaluate)
    x0 = _initial_point(args, prob)
    chosen = _chosen(prob.solver, ("max_iter", "grad_tol"),
                     max_iter=args.max_iter, grad_tol=args.grad_tol)
    # The user's stopping rule and start: their errors exit 1.
    _check_stopping(**chosen)
    start = _validated_start(objective, x0)
    stagnated = False
    try:
        result = gradient_descent(objective, start, **chosen)
    except StagnationError as exc:
        result, stagnated = exc.partial, True
    except (GeocertError, np.linalg.LinAlgError) as exc:
        # The start passed validation, so this is the library's own numeric
        # failure, not an input error.
        print(f"error: solver failed numerically: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # A stagnated solve's partial result is never converged.
    doc["solve"] = dict(result.to_dict(), stagnated=stagnated)
    _emit(doc, args.out)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geocert",
        description="Certify geodesic convexity of SPD matrix expressions, "
                    "cross-check the verdict numerically, and solve certified problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="propagate curvature through a problem's objective")
    p_analyze.add_argument("path", help="problem file (YAML)")
    p_analyze.add_argument("--out", help="write the report document to this file")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_fuzz = sub.add_parser("fuzz", help="cross-validate the verdict with randomized sampling")
    p_fuzz.add_argument("path", help="problem file (YAML)")
    p_fuzz.add_argument("--trials", type=int, default=None)
    p_fuzz.add_argument("--seed", type=int, default=None)
    p_fuzz.add_argument("--tol", type=float, default=None)
    p_fuzz.add_argument("--dim", type=int, default=None)
    p_fuzz.add_argument("--cond", type=float, default=None)
    p_fuzz.add_argument("--out", help="write the report document to this file")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_solve = sub.add_parser("solve", help="run Riemannian gradient descent on a certified problem")
    p_solve.add_argument("path", help="problem file (YAML)")
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--grad-tol", type=float, default=None)
    p_solve.add_argument("--x0", default=None, help="CSV start matrix, or 'identity'")
    p_solve.add_argument("--force", action="store_true",
                         help="solve even when the objective is not certified")
    p_solve.add_argument("--out", help="write the report document to this file")
    p_solve.set_defaults(fn=cmd_solve)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means "not certified" here
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.fn(args)
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GeocertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
