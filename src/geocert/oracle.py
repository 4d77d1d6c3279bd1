"""Randomized falsification of curvature and monotonicity claims.

Sampling can only refute: a clean run corroborates a claim, it does not
prove it.  Geodesic convexity is probed through the midpoint condition and
its dyadic refinements plus uniform parameters; Euclidean convexity along
straight segments (which stay inside the cone); monotonicity on ordered
pairs ``A >= B`` built by subtracting a PSD perturbation small enough to
keep ``B`` positive definite.

Every trial derives its randomness from ``(seed, trial index)``, so reports
are independent of evaluation order and identical configurations give
identical reports.  Known counterexample pairs can be injected as the
leading trials of a run.  Violation thresholds are relative to the value
scale ``max(1, |f(A)|, |f(B)|)``; claims of geodesic linearity are checked
as two-sided equalities at a looser tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import spd
from .analysis import analyze, AnalysisReport
from .errors import DomainError, InconclusiveError, RangeError
from .expr import Expression, GCurvature, Manifold, evaluate

_SEED_MASK = (1 << 63) - 1

EQUALITY_TOL = 1e-8


@dataclass(frozen=True)
class FuzzConfig:
    trials: int = 1000
    dim: int = 3
    cond_max: float = 10.0
    t_samples: int = 5
    tol: float = 1e-9
    seed: int = 0
    injected: tuple = ()

    def __post_init__(self):
        if self.trials < 1:
            raise RangeError(f"trials must be >= 1, got {self.trials}")
        if self.tol <= 0.0:
            raise RangeError(f"tol must be positive, got {self.tol}")
        if self.dim < 1:
            raise RangeError(f"dim must be >= 1, got {self.dim}")
        if self.cond_max < 1.0:
            raise RangeError(f"cond_max must be >= 1, got {self.cond_max}")
        if self.t_samples < 0:
            raise RangeError(f"t_samples must be >= 0, got {self.t_samples}")


@dataclass(frozen=True, eq=False)
class Witness:
    """A concrete violating configuration, reproducible by re-evaluation."""

    point_a: tuple
    point_b: tuple
    t: float
    lhs: float
    rhs: float
    residual: float  # relative to scale
    scale: float

    def __eq__(self, other):
        return (
            isinstance(other, Witness)
            and (self.t, self.lhs, self.rhs, self.residual, self.scale)
            == (other.t, other.lhs, other.rhs, other.residual, other.scale)
            and len(self.point_a) == len(other.point_a)
            and all(np.array_equal(p, q) for p, q in zip(self.point_a, other.point_a))
            and all(np.array_equal(p, q) for p, q in zip(self.point_b, other.point_b))
        )

    def __hash__(self):
        return hash((self.t, self.lhs, self.rhs, self.residual, self.scale))

    def to_dict(self):
        return {
            "point_a": [a.tolist() for a in self.point_a],
            "point_b": [b.tolist() for b in self.point_b],
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class FuzzReport:
    verdict: str  # "NoViolationFound" | "ViolationFound"
    trials_run: int
    skipped: int
    worst_residual: float
    witness: Witness | None = None

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "trials_run": self.trials_run,
            "skipped": self.skipped,
            "worst_residual": self.worst_residual,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & _SEED_MASK, int(index), int(stream)])


@lru_cache(maxsize=32768)
def _cached_points(seed: int, index: int, dim: int, cond_max: float, nargs: int):
    rng = _rng(seed, index, 1)
    a = tuple(spd._random_spd_raw(dim, cond_max, rng) for _ in range(nargs))
    b = tuple(spd._random_spd_raw(dim, cond_max, rng) for _ in range(nargs))
    for m in a + b:
        m.setflags(write=False)
    return a, b


def _normalize_injected(entry, nargs: int):
    a, b = entry
    if isinstance(a, (list, np.ndarray)) or isinstance(a, spd.SPDMatrix):
        a = (a,)
        b = (b,)
    if len(a) != nargs or len(b) != nargs:
        raise RangeError(f"injected pair arity {len(a)} does not match {nargs} arguments")
    conv = lambda ms: tuple(np.asarray(spd._as_array(m), dtype=float) for m in ms)
    return conv(a), conv(b)


def _trial_ts(cfg: FuzzConfig, index: int) -> tuple[float, ...]:
    base = (0.5, 0.25, 0.75)
    if cfg.t_samples == 0:
        return base
    rng = _rng(cfg.seed, index, 2)
    return base + tuple(float(t) for t in rng.uniform(0.0, 1.0, cfg.t_samples))


def _value_scale(fa, fb) -> float:
    if isinstance(fa, np.ndarray):
        na = float(np.linalg.norm(np.linalg.eigvalsh(fa), ord=np.inf))
        nb = float(np.linalg.norm(np.linalg.eigvalsh(fb), ord=np.inf))
        return max(1.0, na, nb)
    return max(1.0, abs(float(fa)), abs(float(fb)))


def _gap(fmid, chord) -> float:
    """Signed violation amount: positive when the value exceeds the chord."""
    if isinstance(fmid, np.ndarray):
        diff = chord - fmid
        return -float(np.linalg.eigvalsh((diff + diff.T) / 2.0)[0])
    return float(fmid) - float(chord)


def _two_sided_gap(fmid, chord) -> float:
    if isinstance(fmid, np.ndarray):
        diff = (chord - fmid + (chord - fmid).T) / 2.0
        return float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    return abs(float(fmid) - float(chord))


def _run_segment_check(f, cfg: FuzzConfig, nargs: int, path_builder, equality: bool,
                       equality_tol: float) -> FuzzReport:
    tol = equality_tol if equality else cfg.tol
    skipped = 0
    completed = 0
    worst = float("-inf")
    witness = None
    for i in range(cfg.trials):
        if i < len(cfg.injected):
            pa, pb = _normalize_injected(cfg.injected[i], nargs)
        else:
            pa, pb = _cached_points(cfg.seed, i, cfg.dim, float(cfg.cond_max), nargs)
        try:
            fa = f(*pa)
            fb = f(*pb)
            paths = [path_builder(a, b) for a, b in zip(pa, pb)]
        except DomainError:
            skipped += 1
            continue
        scale = _value_scale(fa, fb)
        trial_ok = True
        for t in _trial_ts(cfg, i):
            try:
                fmid = f(*(p(t) for p in paths))
            except DomainError:
                trial_ok = False
                break
            chord = (1.0 - t) * fa + t * fb
            gap = _two_sided_gap(fmid, chord) if equality else _gap(fmid, chord)
            rel = gap / scale
            worst = max(worst, rel)
            # Keep the first violation: injected counterexamples run first, so
            # they become the reported witness deterministically.
            if witness is None and rel > tol:
                witness = Witness(
                    point_a=pa,
                    point_b=pb,
                    t=float(t),
                    lhs=_scalarize(fmid),
                    rhs=_scalarize(chord),
                    residual=rel,
                    scale=scale,
                )
        if trial_ok:
            completed += 1
        else:
            skipped += 1
    if skipped * 2 > cfg.trials:
        raise InconclusiveError(
            f"{skipped} of {cfg.trials} trials hit evaluator domain errors"
        )
    if witness is not None:
        return FuzzReport("ViolationFound", completed, skipped, worst, witness)
    return FuzzReport("NoViolationFound", completed, skipped, worst)


def _scalarize(v):
    if isinstance(v, np.ndarray):
        return float(np.linalg.eigvalsh((v + v.T) / 2.0)[0])
    return float(v)


def check_gconvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False,
                  equality_tol: float = EQUALITY_TOL) -> FuzzReport:
    """Probe geodesic convexity of ``f`` along random geodesics.

    ``f`` maps ``nargs`` SPD arrays to a float or a symmetric array (matrix
    results are compared in the Loewner order).  With ``equality=True`` the
    check is two-sided, corroborating geodesic linearity.  Trials whose
    evaluation leaves the domain are skipped; more than 50% skips raises
    ``InconclusiveError``.
    """
    return _run_segment_check(f, cfg, nargs, spd.geodesic_path, equality, equality_tol)


def check_econvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False,
                  equality_tol: float = EQUALITY_TOL) -> FuzzReport:
    """Probe Euclidean convexity of ``f`` along straight segments in the cone."""

    def segment(a, b):
        return lambda t: (1.0 - t) * a + t * b

    return _run_segment_check(f, cfg, nargs, segment, equality, equality_tol)


@lru_cache(maxsize=32768)
def _cached_ordered_pair(seed: int, index: int, dim: int, cond_max: float):
    rng = _rng(seed, index, 3)
    a = spd._random_spd_raw(dim, cond_max, rng)
    w = rng.normal(size=(dim, dim))
    p = (w @ w.T) / dim
    lam_a = np.linalg.eigvalsh(a)
    lam_p = np.linalg.eigvalsh(p)
    s = 0.5 * float(lam_a[0]) / max(float(lam_p[-1]), spd.PD_FLOOR)
    b = a - s * p
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def check_monotone_loewner(g, direction: str, cfg: FuzzConfig) -> FuzzReport:
    """Probe Loewner monotonicity of ``g`` on ordered pairs ``A >= B``.

    ``direction`` is "increasing" or "decreasing".  Scalar results are
    compared as reals, matrix results in the Loewner order, both within
    ``cfg.tol`` relative to the value scale.
    """
    if direction not in ("increasing", "decreasing"):
        raise RangeError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    skipped = 0
    completed = 0
    worst = float("-inf")
    witness = None
    for i in range(cfg.trials):
        if i < len(cfg.injected):
            (a,), (b,) = _normalize_injected(cfg.injected[i], 1)
        else:
            a, b = _cached_ordered_pair(cfg.seed, i, cfg.dim, float(cfg.cond_max))
        try:
            ga = g(a)
            gb = g(b)
        except DomainError:
            skipped += 1
            continue
        completed += 1
        hi, lo = (ga, gb) if direction == "increasing" else (gb, ga)
        scale = _value_scale(ga, gb)
        gap = _gap(lo, hi)  # positive when hi >= lo fails
        rel = gap / scale
        worst = max(worst, rel)
        if witness is None and rel > cfg.tol:
            witness = Witness(
                point_a=(a,), point_b=(b,), t=1.0,
                lhs=_scalarize(lo), rhs=_scalarize(hi),
                residual=rel, scale=scale,
            )
    if skipped * 2 > cfg.trials:
        raise InconclusiveError(f"{skipped} of {cfg.trials} trials hit evaluator domain errors")
    if witness is not None:
        return FuzzReport("ViolationFound", completed, skipped, worst, witness)
    return FuzzReport("NoViolationFound", completed, skipped, worst)


def reevaluate_witness(f, w: Witness, geodesic: bool = True, equality: bool = False) -> float:
    """Recompute a witness's relative residual from its stored points."""
    if geodesic:
        paths = [spd.geodesic_path(a, b) for a, b in zip(w.point_a, w.point_b)]
    else:
        paths = [
            (lambda a=a, b=b: (lambda t: (1.0 - t) * a + t * b))()
            for a, b in zip(w.point_a, w.point_b)
        ]
    fa = f(*w.point_a)
    fb = f(*w.point_b)
    fmid = f(*(p(w.t) for p in paths))
    chord = (1.0 - w.t) * fa + w.t * fb
    gap = _two_sided_gap(fmid, chord) if equality else _gap(fmid, chord)
    return gap / _value_scale(fa, fb)


@dataclass(frozen=True)
class CrossValidation:
    """Comparison between the symbolic verdict and the numeric fuzzers."""

    verdict: str  # "CONSISTENT" | "SOUNDNESS-BUG" | "INFO"
    analysis: AnalysisReport
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def any_violation(self) -> bool:
        return any(r.verdict == "ViolationFound" for r in self.checks.values())

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "analysis": self.analysis.to_dict(),
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "notes": dict(self.notes),
        }


def cross_validate(e: Expression, cfg: FuzzConfig) -> CrossValidation:
    """Fuzz an analyzed expression against its own curvature verdict.

    Certified verdicts (GConvex, GConcave, GLinear) run the matching
    geodesic fuzzer; a violation is a soundness bug and comes back with a
    witness.  GUnknown runs the geodesic and Euclidean fuzzers informationally
    and reports what was observed.
    """
    names = sorted(e.variables)
    if not names:
        report = analyze(e, Manifold("SPD", cfg.dim))
        return CrossValidation("CONSISTENT", report, {}, {"info": "constant expression"})
    manifolds = [e.variables[n] for n in names]
    dims = {m.dim for m in manifolds}
    if len(dims) != 1:
        raise RangeError("cross validation requires all variables on one manifold")
    d = dims.pop()
    report = analyze(e, manifolds[0])
    cfg = replace(cfg, dim=d)
    nargs = len(names)

    def f(*mats):
        return evaluate(e, dict(zip(names, mats)))

    checks: dict[str, FuzzReport] = {}
    notes: dict[str, str] = {}
    g = report.gcurvature
    if g is GCurvature.CONVEX:
        checks["geodesic-convexity"] = check_gconvex(f, cfg, nargs=nargs)
    elif g is GCurvature.CONCAVE:
        checks["geodesic-concavity"] = check_gconvex(
            lambda *ms: -f(*ms), cfg, nargs=nargs
        )
    elif g is GCurvature.LINEAR:
        checks["geodesic-linearity"] = check_gconvex(f, cfg, nargs=nargs, equality=True)
    else:
        checks["geodesic-convexity"] = check_gconvex(f, cfg, nargs=nargs)
        checks["euclidean-convexity"] = check_econvex(f, cfg, nargs=nargs)
        for key, rep in checks.items():
            notes[key] = (
                "violated empirically" if rep.verdict == "ViolationFound"
                else "no violation observed"
            )
        return CrossValidation("INFO", report, checks, notes)
    if any(r.verdict == "ViolationFound" for r in checks.values()):
        return CrossValidation("SOUNDNESS-BUG", report, checks, notes)
    return CrossValidation("CONSISTENT", report, checks, notes)
