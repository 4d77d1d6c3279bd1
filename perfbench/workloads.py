"""The three benchmark workloads.

Each workload is a closed loop: one client, one thread, and every operation
waits for the previous one.  A workload generates its inputs from the
workload seed in ``setup``, then runs whole passes; every operation's output
is checked against a reference computed with numpy only (see ``refs``).

An operation *fails* when it does not deliver a checked result: an error
exit, a solve that does not converge, or a result that disagrees with its
reference.  The last kind is also *wrong*, which makes the run incorrect;
the first two are defects the benchmark keeps visible rather than hides.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import geocert
import geocert.oracle
import geocert.spd
from geocert.cli import main as geocert_main

import refs
from harness import derive_seed, percentile

_now = time.perf_counter
NO_SPAN = contextlib.nullcontext


@dataclass
class Op:
    kind: str
    label: str
    seconds: float
    failed: bool = False
    wrong: bool = False
    note: str = ""
    at: float = 0.0  # perf_counter at the operation's midpoint


@dataclass
class PassResult:
    tick: object = None  # called after each operation, between timed regions
    ops: list = field(default_factory=list)
    seconds: float = 0.0
    trials: int = 0  # falsifier trials attempted (run + skipped)
    skipped: int = 0
    iterations: int = 0  # accepted gradient-descent steps

    def add(self, op: Op) -> Op:
        op.at = _now() - op.seconds / 2.0
        self.ops.append(op)
        if self.tick is not None:
            self.tick()
        return op


def clear_point_caches():
    """Empty the oracle's memoized sample points, where the oracle keeps any."""
    for name in ("_cached_points", "_cached_ordered_pair"):
        cache = getattr(geocert.oracle, name, None)
        if cache is not None and hasattr(cache, "cache_clear"):
            cache.cache_clear()


def run_cli(argv, span, root: str):
    """Run ``geocert`` in-process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with span(root), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = _now()
        code = geocert_main(list(argv))
        seconds = _now() - start
    return code, out.getvalue(), err.getvalue(), seconds


def solve_op(path: Path, label: str, expected_exit: int, span, res: PassResult):
    """Run ``geocert solve``; return the operation and the minimizer on exit 0.

    An exit code other than ``expected_exit`` fails the operation; it is
    also wrong unless it is 1 (error) or 4 (no convergence), the codes of
    the known defects.
    """
    code, out, err, secs = run_cli(["solve", str(path)], span, "cli.solve")
    op = res.add(Op("solve", label, secs))
    doc = json.loads(out) if out else None
    if doc is not None:
        res.iterations += doc["solve"]["iterations"]
    if code != expected_exit:
        op.failed = True
        op.wrong = code not in (1, 4)
        op.note = f"exit {code}, expected {expected_exit}: {err.strip()[:120]}"
    if code != 0 or op.failed:
        return op, None
    return op, np.asarray(doc["solve"]["minimizer"], dtype=float)


def reject(op: Op, err_v: float, tol: float, what: str):
    """Fail ``op`` as wrong when its error against a reference exceeds ``tol``."""
    if not err_v <= tol:
        op.failed = op.wrong = True
        op.note = f"minimizer off its {what} reference by {err_v:.3g}"


def _fuzz_counts(doc: dict) -> tuple[int, int]:
    checks = doc["result"]["checks"].values()
    return (
        sum(c["trials_run"] + c["skipped"] for c in checks),
        sum(c["skipped"] for c in checks),
    )


def _samples_line(name: str, values, unit: str, scale: float = 1.0) -> str:
    parts = [f"{name}_p50={scale * percentile(values, 0.5):.4g} {unit}"]
    try:
        parts.append(f"{name}_p90={scale * percentile(values, 0.9):.4g} {unit}")
    except ValueError as exc:
        parts.append(f"{name}_p90=n/a ({exc})")
    parts.append(f"n={len(values)}")
    return "  ".join(parts)


class Workload:
    """One named workload: ``setup`` once, then ``run_pass`` a fixed number of times.

    ``latency_kinds`` names the operations whose elapsed times make the
    latency percentiles.  ``rate_kind`` names the operations whose time the
    throughput is measured against, and ``pass_work`` the work one pass does.
    ``ref_pass_s`` is one untraced pass's time at the reference speed; a run
    of ``--seconds`` does that many seconds' worth of passes.
    """

    name = ""
    latency_kinds: tuple = ()
    rate_kind = ""
    # Operations that must reach the sample floor of an upper percentile.
    floor_kinds: tuple = ()
    ref_pass_s = 1.0

    def setup(self, root: Path, seed: int):
        raise NotImplementedError

    def warm_up(self, state):
        raise NotImplementedError

    def run_pass(self, state, index: int, span, tick=None) -> PassResult:
        raise NotImplementedError

    def pass_work(self, res: PassResult) -> float:
        raise NotImplementedError

    def teardown(self, state):
        pass

    def latencies(self, passes, kinds=None) -> list[float]:
        kinds = kinds or self.latency_kinds
        return [op.seconds for p in passes for op in p.ops if op.kind in kinds]

    def rate(self, passes) -> float:
        """Work per second of ``rate_kind`` time, robust to bursts of load.

        Every pass runs the same operations, each once, so each operation's
        time is taken as its median over the passes; a slowdown that hits
        fewer than half the passes does not move it.
        """
        times = {}
        for p in passes:
            for op in p.ops:
                if op.kind == self.rate_kind:
                    times.setdefault(op.label, []).append(op.seconds)
        busy = sum(statistics.median(v) for v in times.values())
        return statistics.median(self.pass_work(p) for p in passes) / busy

    def report_lines(self, passes) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# problem-files
# ---------------------------------------------------------------------------

PROBLEM_FILES = ("matrix_sqrt", "karcher", "brascamp_lieb", "tyler")
# Documented exit codes: Tyler's two samples in d = 5 leave it unbounded.
SOLVE_EXIT = {"matrix_sqrt": 0, "karcher": 0, "brascamp_lieb": 0, "tyler": 4}
FILE_FUZZ_TRIALS = 100
# Minimizer tolerances at the files' grad_tol 1e-7; observed errors are
# near 5e-8, a wrong minimizer is off by 1e-1 or more.
SQRT_TOL = 1e-5  # relative error against the eigh square root
KARCHER_TOL = 1e-5  # first-order residual


def _constants(path: Path) -> dict:
    """A problem file's constants, read with PyYAML rather than geocert."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return {k: np.asarray(v, dtype=float) for k, v in doc["constants"].items()}


class ProblemFiles(Workload):
    name = "problem-files"
    latency_kinds = ("analyze", "fuzz", "solve")
    rate_kind = "fuzz"
    ref_pass_s = 2.0
    floor_kinds = ("analyze",)  # the analyze-only percentiles are printed too

    def setup(self, root, seed):
        paths = {name: root / "problems" / f"{name}.yaml" for name in PROBLEM_FILES}
        anchors = _constants(paths["karcher"])
        return {
            "seed": seed,
            "paths": paths,
            "sqrt_ref": refs.eigh_sqrt(_constants(paths["matrix_sqrt"])["A"]),
            "anchors": [anchors[k] for k in sorted(anchors)],
            "reports": {},  # (file, fuzz seed) -> first fuzz report
        }

    def warm_up(self, state):
        for name, path in state["paths"].items():
            run_cli(["analyze", str(path)], NO_SPAN, "")
        run_cli(["fuzz", str(state["paths"]["karcher"]), "--trials", "2"], NO_SPAN, "")
        run_cli(["solve", str(state["paths"]["brascamp_lieb"])], NO_SPAN, "")
        clear_point_caches()

    def run_pass(self, state, index, span, tick=None):
        res = PassResult(tick)
        # Passes 2k and 2k+1 share a seed, so every second pass repeats a
        # (file, seed) pair and must reproduce its report byte for byte.
        fuzz_seed = derive_seed(state["seed"], self.name, index // 2) & 0x7FFFFFFF
        start = _now()
        for name, path in state["paths"].items():
            res.add(self._analyze(path, span))
            res.add(self._fuzz(state, name, path, fuzz_seed, span, res))
            res.add(self._analyze(path, span))
            op, x = solve_op(path, name, SOLVE_EXIT[name], span, res)
            if x is not None and name == "matrix_sqrt":
                reject(op, refs.rel_err(x, state["sqrt_ref"]), SQRT_TOL, "eigh square root")
            elif x is not None and name == "karcher":
                reject(op, refs.karcher_residual(x, state["anchors"]), KARCHER_TOL, "first-order")
        res.seconds = _now() - start
        return res

    def _analyze(self, path, span):
        code, out, _, secs = run_cli(["analyze", str(path)], span, "cli.analyze")
        op = Op("analyze", path.stem, secs)
        lines = out.splitlines()
        if code != 0 or len(lines) < 2 or lines[1] != "Objective Geodesic curvature: GConvex":
            op.failed = op.wrong = True
            op.note = f"exit {code}, {lines[1:2]}"
        return op

    def _fuzz(self, state, name, path, seed, span, res):
        argv = ["fuzz", str(path), "--trials", str(FILE_FUZZ_TRIALS), "--seed", str(seed)]
        # The four files share a dimension, so without this their fuzz runs
        # would share cached points; separate CLI invocations share nothing.
        clear_point_caches()
        code, out, err, secs = run_cli(argv, span, "cli.fuzz")
        op = Op("fuzz", name, secs)
        if code != 0:
            op.failed = True
            op.wrong = code in (2, 3)
            op.note = f"exit {code}: {err.strip()[:120]}"
            return op
        doc = json.loads(out)
        trials, skipped = _fuzz_counts(doc)
        res.trials += trials
        res.skipped += skipped
        earlier = state["reports"].setdefault((name, seed), out)
        if doc["result"]["verdict"] != "CONSISTENT" or earlier != out:
            op.failed = op.wrong = True
            op.note = "verdict " + doc["result"]["verdict"] if earlier == out else "report differs on repeat"
        return op

    def pass_work(self, res):
        return res.trials

    def report_lines(self, passes):
        return [
            _samples_line("command_ms", self.latencies(passes), "ms", 1e3),
            _samples_line("analyze_ms", self.latencies(passes, ("analyze",)), "ms", 1e3),
            f"fuzz_trials_per_s={self.rate(passes):.5g} 1/s  "
            f"trials={sum(p.trials for p in passes)}",
        ]


# ---------------------------------------------------------------------------
# atom-sweep
# ---------------------------------------------------------------------------

SWEEP_DIMS = (2, 3, 5)
SWEEP_CONDS = (10.0, 1e4)
ATOM_TRIALS = 50
MONOTONE = {
    "logdet": "increasing", "tr": "increasing", "sum": "increasing",
    "eigmax": "increasing", "eigsummax": "increasing", "schatten_norm": "increasing",
    "sum_log_eigmax": "increasing", "conjugation": "increasing", "adjoint": "increasing",
    "inv": "decreasing", "hadamard_product": "increasing", "diag_matrix": "increasing",
    "positive_affine": "increasing",
}


def _bind(name, *params):
    """The atom's raw evaluator (``geocert.spd.eval_<name>``) with bound parameters."""
    fn = getattr(geocert.spd, f"eval_{name}")
    return lambda *xs: fn(*xs, *params)


def atom_instances(name: str, d: int, rng: np.random.Generator):
    """Bound evaluators for one atom: (label, fn, nargs, monotone direction)."""
    direction = MONOTONE.get(name)
    if name in ("sdivergence", "distance"):
        return [(name, _bind(name), 2, None)]
    if name in ("eigsummax", "sum_log_eigmax"):
        return [(name, _bind(name, max(1, d - 1)), 1, direction)]
    if name == "schatten_norm":
        return [(f"{name}[p={p:g}]", _bind(name, p), 1, direction) for p in (2.0, 1.0)]
    if name == "sum_pow_log_eigmax":
        # geodesically convex over the full spectrum with an even power
        return [(f"{name}[k=d,p=2]", _bind(name, d, 2.0), 1, None)]
    if name == "conjugation":
        return [(name, _bind(name, rng.normal(size=(d, max(1, d - 1)))), 1, direction)]
    if name == "hadamard_product":
        w = rng.normal(size=(d, d))
        return [(name, _bind(name, w @ w.T + 0.2 * np.eye(d)), 1, direction)]
    if name == "positive_affine":
        m = max(1, d - 1)
        ys = (rng.normal(size=(d, m)), rng.normal(size=(d, m)))
        w = rng.normal(size=(m, m))
        return [
            (f"{name}[r=+1]", _bind(name, ys, w @ w.T, 1), 1, "increasing"),
            (f"{name}[r=-1]", _bind(name, ys, w @ w.T, -1), 1, "decreasing"),
        ]
    return [(name, _bind(name), 1, direction)]


class AtomSweep(Workload):
    name = "atom-sweep"
    latency_kinds = ("check",)
    rate_kind = "check"
    ref_pass_s = 3.6

    def setup(self, root, seed):
        checks = []  # (kind, label, fn, nargs, direction, d, cond, equality)
        for name in geocert.SPD_ATOM_IDS:
            claim = geocert.lookup_atom(name).gcurv
            if claim is geocert.GCurvature.UNKNOWN and name not in MONOTONE:
                continue  # nothing claimed, nothing to corroborate
            for d in SWEEP_DIMS:
                rng = np.random.default_rng(derive_seed(seed, self.name, name, d))
                for label, fn, nargs, direction in atom_instances(name, d, rng):
                    for cond in SWEEP_CONDS:
                        if claim is not geocert.GCurvature.UNKNOWN:
                            linear = claim is geocert.GCurvature.LINEAR
                            checks.append(("gconvex", label, fn, nargs, None, d, cond, linear))
                        if direction is not None and nargs == 1:
                            checks.append(("monotone", label, fn, 1, direction, d, cond, False))
        return {"seed": seed, "checks": checks}

    def warm_up(self, state):
        for kind, _label, fn, nargs, direction, d, cond, equality in state["checks"]:
            cfg = geocert.FuzzConfig(trials=2, dim=d, cond_max=cond, seed=0)
            if kind == "gconvex":
                geocert.check_gconvex(fn, cfg, nargs=nargs, equality=equality)
            else:
                geocert.check_monotone_loewner(fn, direction, cfg)
        clear_point_caches()

    def run_pass(self, state, index, span, tick=None):
        res = PassResult(tick)
        # One falsifier seed per pass: every atom at one (d, cond) sees the
        # same sample points, which the oracle's point cache serves within
        # the pass.  Caches are emptied between passes.
        seed = derive_seed(state["seed"], self.name, index) & 0x7FFFFFFF
        start = _now()
        for kind, label, fn, nargs, direction, d, cond, equality in state["checks"]:
            cfg = geocert.FuzzConfig(trials=ATOM_TRIALS, dim=d, cond_max=cond, seed=seed)
            op = Op("check", f"{kind}:{label}:d{d}:c{cond:g}", 0.0)
            fn_traced = fn if span is NO_SPAN else _span_fn(fn, span)
            try:
                with span("oracle.check"):
                    t0 = _now()
                    if kind == "gconvex":
                        rep = geocert.check_gconvex(fn_traced, cfg, nargs=nargs, equality=equality)
                    else:
                        rep = geocert.check_monotone_loewner(fn_traced, direction, cfg)
                    op.seconds = _now() - t0
            except geocert.GeocertError as exc:
                op.seconds = _now() - t0
                op.failed = True
                op.note = f"{type(exc).__name__}: {exc}"
                res.add(op)
                continue
            res.trials += rep.trials_run + rep.skipped
            res.skipped += rep.skipped
            if rep.verdict != "NoViolationFound" or rep.trials_run + rep.skipped != ATOM_TRIALS:
                op.failed = op.wrong = True
                op.note = f"{rep.verdict}, worst residual {rep.worst_residual:.3g}"
            res.add(op)
        res.seconds = _now() - start
        return res

    def pass_work(self, res):
        return res.trials

    def report_lines(self, passes):
        return [
            _samples_line("check_ms", self.latencies(passes), "ms", 1e3),
            f"fuzz_trials_per_s={self.rate(passes):.5g} 1/s  "
            f"trials={sum(p.trials for p in passes)}",
        ]


def _span_fn(fn, span):
    """The atom evaluator inside its own span, so oracle self time excludes it."""

    def traced(*xs):
        with span("spd.atom"):
            return fn(*xs)

    return traced


# ---------------------------------------------------------------------------
# solve-family
# ---------------------------------------------------------------------------

FAMILY_DIMS = (3, 5, 10)
# Instances per (family, d, cond): small problems are cheap, so they get
# more draws, and three passes give the p90 its hundred samples.
FAMILY_REPLICATES = {3: 3, 5: 2, 10: 1}
FAMILY_CONDS = (10.0, 1e4)
FAMILY_GRAD_TOL = 1e-6
FAMILY_MAX_ITER = 500
# Tolerance on the minimizer's relative error or first-order residual at
# grad_tol 1e-6: observed errors reach 5e-6 (sqrt at cond 1e4), a wrong
# minimizer is off by 1e-1 or more.
FAMILY_TOL = 1e-4
# The known cone exit: finite differences step outside the cone near the
# minimizer A, and the solve exits 1 ("input error").
CONE_EXIT_ANCHOR = np.diag([1.0, 1e-9, 1.0])
FAMILY_BASE_SEED = 0
# Karcher instances at these conditions keep the rotation of FAMILY_BASE_SEED.
FAMILY_FIXED_CONDS = (1e4,)


def family_instances(seed: int):
    """The solve-family inputs: (label, constants, objective, dim, reference).

    The problem geometries come from the fixed ``FAMILY_BASE_SEED``; the
    workload seed draws a random rotation ``Q`` for each instance and every
    constant ``A`` becomes ``Q A Q^T``.  Both objectives are invariant under
    rotating the constants and the start point ``I`` together, so each seed
    gives new matrices but the same solver work, and runs with different
    seeds compare like with like.  The cone-exit instance is kept exactly as
    reported.
    """
    out = []
    for d in FAMILY_DIMS:
        for cond in FAMILY_CONDS:
            kinds = ("karcher2", "sqrt") if d == 10 else ("karcher2", "karcher3", "sqrt")
            families = [(f, r) for f in kinds for r in range(FAMILY_REPLICATES[d])]
            for fam, rep in families:
                label = f"{fam}-d{d}-c{cond:g}-{rep}"
                base = np.random.default_rng(derive_seed(FAMILY_BASE_SEED, fam, d, cond, rep))
                # Which ill-conditioned Karcher solves stagnate depends on
                # rounding, so on the rotation; theirs is fixed, and the
                # failure count is the same for every seed.
                fixed = fam != "sqrt" and cond in FAMILY_FIXED_CONDS
                spin = np.random.default_rng(derive_seed(
                    FAMILY_BASE_SEED if fixed else seed, "solve-family", "rotation", label))
                q = refs.random_rotation(spin, d)
                k = 1 if fam == "sqrt" else int(fam[-1])
                mats = [refs.rotate(refs.random_spd(base, d, cond), q) for _ in range(k)]
                if fam == "sqrt":
                    out.append((label, {"A": mats[0], "I": np.eye(d)},
                                "sdivergence(X, A) + sdivergence(X, I)", d,
                                ("sqrt", refs.eigh_sqrt(mats[0]))))
                    continue
                consts = {f"A{i + 1}": a for i, a in enumerate(mats)}
                objective = " + ".join(f"pow(distance(A{i + 1}, X), 2)" for i in range(k))
                ref = ("midpoint", refs.midpoint(*mats)) if k == 2 else ("karcher", mats)
                out.append((label, consts, objective, d, ref))
    out.append(("cone-exit-d3", {"A": CONE_EXIT_ANCHOR}, "pow(distance(A, X), 2)", 3,
                ("point", CONE_EXIT_ANCHOR)))
    return out


def _problem_yaml(consts, objective, d) -> str:
    return yaml.safe_dump({
        "variables": [{"name": "X", "manifold": "SPD", "dim": d}],
        "constants": {k: np.asarray(v).tolist() for k, v in consts.items()},
        "objective": objective,
        "solver": {"max_iter": FAMILY_MAX_ITER, "grad_tol": FAMILY_GRAD_TOL},
    })


class SolveFamily(Workload):
    name = "solve-family"
    latency_kinds = ("solve",)
    rate_kind = "solve"
    ref_pass_s = 11.5

    def setup(self, root, seed):
        work = root / "perfbench" / "_work" / f"solve-family-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        instances = []
        for label, consts, objective, d, ref in family_instances(seed):
            path = work / f"{label}.yaml"
            path.write_text(_problem_yaml(consts, objective, d))
            instances.append((label, path, ref))
        return {"seed": seed, "work": work, "instances": instances}

    def teardown(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def warm_up(self, state):
        for label, path, _ref in state["instances"]:
            if label.startswith("karcher2-d3"):
                run_cli(["solve", str(path)], NO_SPAN, "")
                return

    def run_pass(self, state, index, span, tick=None):
        # The instance set is fixed for the run, so every pass does the same
        # work and the failure count per pass repeats exactly.
        res = PassResult(tick)
        start = _now()
        for label, path, (kind, value) in state["instances"]:
            op, x = solve_op(path, label, 0, span, res)
            if x is None:
                continue
            if kind == "karcher":
                reject(op, refs.karcher_residual(x, value), FAMILY_TOL, kind)
            else:
                reject(op, refs.rel_err(x, value), FAMILY_TOL, kind)
        res.seconds = _now() - start
        return res

    def pass_work(self, res):
        return len(res.ops)

    def report_lines(self, passes):
        return [
            _samples_line("solve_s", self.latencies(passes), "s"),
            f"solves_per_s={self.rate(passes):.5g} 1/s",
        ]


WORKLOADS = {w.name: w for w in (ProblemFiles(), AtomSweep(), SolveFamily())}
