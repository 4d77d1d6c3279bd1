"""Bottom-up propagation of sign, geodesic curvature, and Euclidean curvature.

One post-order pass over an immutable expression tree computes all three at
every node, each node from its children's results.  The shared composition
table, applied to (outer curvature, outer monotonicity) against an inner
curvature, is:

    (convex, increasing)  o  convex   -> convex
    (convex, decreasing)  o  concave  -> convex
    (concave, increasing) o  concave  -> concave
    (concave, decreasing) o  convex   -> concave

A linear inner qualifies as both convex and concave, so composing with it
returns the outer curvature with no monotonicity requirement (pre-composing
with a geodesic-tracing, resp. affine, map costs nothing).  Over a curved
inner, at most one of the convex and concave conditions can hold; a linear
outer takes whichever does.  Patterns outside the table produce the top
element, never an error: failure to certify is a verdict.

The inverse atom is the one special case.  Inversion maps geodesics to
geodesics, so ``inv`` of a geodesically linear argument is itself treated
as linear for everything composed above it; applied to anything curvier its
verdict is unknown.  It and the sign gate apply by the evaluator a node
bound (the tables of ``atoms``), never by the atom's id.

Products with a non-constant factor are never certified: the midpoint test
fails already for trace times negated log-determinant on a pair of scaled
identity matrices.  Scaling by a constant is a one-term ``Add``, which
``Expression.__mul__`` builds for a number or a ``ConstScalar``.

The public ``combine_add``, ``combine_max``, ``combine_product``,
``compose_scalar``, ``compose_loewner``, ``compose_inverse`` and
``gate_positive_domain`` are the rules the pass applies; ``_curv_node``
only picks a node's rule and formats its trace entry, so patching one of
them in this module changes ``analyze``'s verdicts.  A rule that can
explain a refusal returns its note beside its result.  An atom node's signs
and outer metadata come from its ``meta``, resolved once when the node was
built.  An atom without a ``MANIFOLD`` position is a scalar outer atom and
composes by ``compose_scalar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .atoms import INVERSE_ATOMS, POSITIVE_DOMAIN_ATOMS, POWER_ATOMS, SIGN_RANGE_OVERRIDES
from .errors import DomainError, ShapeError
from .expr import (
    Add,
    ArgKind,
    AtomApply,
    ConstMatrix,
    ConstScalar,
    Definiteness,
    ECurvature,
    Expression,
    GCurvature,
    GMonotonicity,
    Manifold,
    MaxOf,
    Mul,
    Sign,
    Variable,
)

G = GCurvature
E = ECurvature
M = GMonotonicity


@dataclass(frozen=True)
class TraceEntry:
    """One propagation step: which rule fired at a node and what it produced."""

    path: str
    rule: str
    inputs: str
    output: str

    def to_dict(self):
        return {"path": self.path, "rule": self.rule, "inputs": self.inputs, "output": self.output}


@dataclass(frozen=True)
class AnalysisReport:
    """Root verdicts plus the per-node geodesic-curvature propagation trace."""

    sign: Sign
    gcurvature: GCurvature
    ecurvature: ECurvature
    trace: tuple[TraceEntry, ...]

    def to_dict(self):
        return {
            "sign": self.sign.value,
            "gcurvature": self.gcurvature.value,
            "ecurvature": self.ecurvature.value,
            "trace": [t.to_dict() for t in self.trace],
        }


# ---------------------------------------------------------------------------
# Lattice helpers
# ---------------------------------------------------------------------------

_FLIP = {G.LINEAR: G.LINEAR, G.CONVEX: G.CONCAVE, G.CONCAVE: G.CONVEX, G.UNKNOWN: G.UNKNOWN}
_E2G = {E.AFFINE: G.LINEAR, E.CONVEX: G.CONVEX, E.CONCAVE: G.CONCAVE, E.UNKNOWN: G.UNKNOWN}
_G2E = {v: k for k, v in _E2G.items()}


def gflip(c: GCurvature) -> GCurvature:
    return _FLIP[c]


def gjoin(a: GCurvature, b: GCurvature) -> GCurvature:
    """Least upper bound: GLinear below GConvex and GConcave, GUnknown on top."""
    if a == b:
        return a
    if a is G.LINEAR:
        return b
    if b is G.LINEAR:
        return a
    return G.UNKNOWN


def _join(curvs) -> GCurvature:
    return reduce(gjoin, curvs, G.LINEAR)


def _compose(outer: GCurvature, mono: GMonotonicity, inner: GCurvature) -> GCurvature:
    if inner is G.UNKNOWN or outer is G.UNKNOWN:
        return G.UNKNOWN
    if inner is G.LINEAR:
        return outer
    # The table's two conditions: an increasing outer keeps a curved inner's
    # side, a decreasing one flips it; the outer must be that side or linear.
    if mono is M.INCREASING:
        side = inner
    elif mono is M.DECREASING:
        side = gflip(inner)
    else:
        return G.UNKNOWN
    return side if outer in (side, G.LINEAR) else G.UNKNOWN


# ---------------------------------------------------------------------------
# Combination rules (public, per the rule tables)
# ---------------------------------------------------------------------------


def combine_add(children) -> GCurvature:
    """Curvature of a weighted sum given (curvature, weight) pairs.

    Negative weights flip convex and concave; GLinear is flip-invariant.
    The result is the lattice join over all terms.
    """
    return _join(gflip(curv) if float(weight) < 0.0 else curv for curv, weight in children)


def combine_max(children) -> GCurvature:
    """Curvature of a pointwise maximum of scalar children.

    The max of a single function is that function.  A max of g-convex or
    g-linear functions is g-convex; anything else is unknown.
    """
    children = list(children)
    if len(children) == 1:
        return children[0]
    if all(c in (G.CONVEX, G.LINEAR) for c in children):
        return G.CONVEX
    return G.UNKNOWN


def compose_scalar(outer: tuple[ECurvature, GMonotonicity], inner: GCurvature) -> GCurvature:
    """Geodesic curvature of a scalar function composed with a scalar subexpression."""
    ecurv, mono = outer
    return _compose(_E2G[ecurv], mono, inner)


def compose_loewner(outer: tuple[GCurvature, GMonotonicity], inner_curvatures) -> GCurvature:
    """Curvature of an atom applied to matrix-valued arguments.

    ``outer`` is the atom's resolved (geodesic curvature, Loewner
    monotonicity), composed against each argument's curvature; the results
    are joined over all manifold arguments.
    """
    gcurv, mono = outer
    return _join(_compose(gcurv, mono, inner) for inner in inner_curvatures)


def compose_inverse(inner: GCurvature) -> GCurvature:
    """Curvature of ``inv`` applied to a matrix subexpression.

    Inversion maps geodesics to geodesics, so a geodesically linear argument
    keeps the whole composition exact; any other argument is unknown.
    """
    return G.LINEAR if inner is G.LINEAR else G.UNKNOWN


def combine_product(factor_curvatures) -> tuple[GCurvature, str]:
    """A product's curvature from its non-constant factors' ones, and a note: never certified."""
    if len(factor_curvatures) > 1:
        return G.UNKNOWN, "products of non-constant factors are not certifiable"
    return G.UNKNOWN, "products are not certified; scale by a number or a ConstScalar"


def gate_positive_domain(node: AtomApply, arg_sign: Sign) -> tuple[GMonotonicity | None, str]:
    """The monotonicity a positive-domain atom composes with, or None to refuse, and a note.

    ``arg_sign`` is the argument's provable value range.  t^p with even
    integer p is convex on all of R, just not monotone, so it composes anyway.
    """
    if arg_sign is Sign.POSITIVE:
        return node.meta.gmono, ""
    p = node.params[0] if node.evaluator in POWER_ATOMS else None
    if p is not None and float(p).is_integer() and int(p) % 2 == 0:
        return M.ANY, "even power composed without a sign guarantee"
    return None, (f"{node.sig.id} needs a provably nonnegative argument, "
                  f"value range is {arg_sign.value}")


# ---------------------------------------------------------------------------
# The analysis pass
# ---------------------------------------------------------------------------


class _NodeFacts(NamedTuple):
    """What the analysis pass derives for one node.

    ``safe_sign`` replaces registered signs that overstate the value range
    (``SIGN_RANGE_OVERRIDES``), so the composition domain gates never lean on
    optimistic metadata; the reported ``sign`` stays as registered.
    """

    sign: Sign
    safe_sign: Sign
    gcurv: GCurvature
    ecurv: ECurvature


def _sign_node(e: Expression, child_signs: list[Sign], safe: bool) -> Sign:
    if isinstance(e, Variable):
        return Sign.POSITIVE
    if isinstance(e, ConstScalar):
        return Sign.NEGATIVE if e.value < 0.0 else Sign.POSITIVE
    if isinstance(e, ConstMatrix):
        if e.definiteness in (Definiteness.PD, Definiteness.PSD):
            return Sign.POSITIVE
        return Sign.ANY
    if isinstance(e, Add):
        effective = [
            _flip_sign(s) if w < 0.0 else s
            for s, w in zip(child_signs, e.weights)
            if w != 0.0
        ]
        return _mix_signs(effective)
    if isinstance(e, Mul):
        if any(s is Sign.ANY for s in child_signs):
            return Sign.ANY
        negatives = sum(1 for s in child_signs if s is Sign.NEGATIVE)
        return Sign.NEGATIVE if negatives % 2 else Sign.POSITIVE
    if isinstance(e, MaxOf):
        if any(s is Sign.POSITIVE for s in child_signs):
            return Sign.POSITIVE
        if all(s is Sign.NEGATIVE for s in child_signs):
            return Sign.NEGATIVE
        return Sign.ANY
    if isinstance(e, AtomApply):
        if safe:
            return SIGN_RANGE_OVERRIDES.get(e.evaluator, e.meta.sign)
        return e.meta.sign
    return Sign.ANY


def _flip_sign(s: Sign) -> Sign:
    if s is Sign.POSITIVE:
        return Sign.NEGATIVE
    if s is Sign.NEGATIVE:
        return Sign.POSITIVE
    return Sign.ANY


def _mix_signs(signs) -> Sign:
    signs = list(signs)
    if not signs:
        return Sign.POSITIVE
    if all(s is Sign.POSITIVE for s in signs):
        return Sign.POSITIVE
    if all(s is Sign.NEGATIVE for s in signs):
        return Sign.NEGATIVE
    return Sign.ANY


def _curv_node(node: Expression, kid_curvs: list[GCurvature], kid_safe_signs: list[Sign],
               geodesic: bool) -> tuple[GCurvature, str, str]:
    """One node's curvature from its children's, as (curvature, rule, trace inputs).

    ``geodesic`` selects the geometry.  Both geometries share the GCurvature
    lattice here; Euclidean curvatures are mapped onto it through ``_E2G``.
    """
    if not node.variables:
        # Constant along geodesics and straight lines alike.
        return G.LINEAR, "constant", ""
    if isinstance(node, Variable):
        return G.LINEAR, "variable", ""
    if isinstance(node, Add):
        pairs = [(c, w) for c, w in zip(kid_curvs, node.weights) if w != 0.0]
        inputs = ", ".join(f"{_show(c, geodesic)}*{w:+g}" for c, w in pairs)
        return combine_add(pairs), "signed-sum", inputs
    if isinstance(node, Mul):
        curv, note = combine_product([c for c, f in zip(kid_curvs, node.factors) if f.variables])
        inputs = ", ".join(_show(c, geodesic) for c in kid_curvs)
        return curv, "scalar-product", inputs + _note(note)
    if isinstance(node, MaxOf):
        inputs = ", ".join(_show(c, geodesic) for c in kid_curvs)
        return combine_max(kid_curvs), "pointwise-max", inputs
    if isinstance(node, AtomApply):
        if geodesic and node.evaluator in INVERSE_ATOMS:
            curv = compose_inverse(kid_curvs[0])
            note = _note("inversion only reparametrizes geodesically linear arguments"
                         if curv is G.UNKNOWN else "")
            return curv, "inverse-reparametrization", f"inner={kid_curvs[0].value}{note}"
        eff = node.meta
        # A scalar outer atom (no manifold argument) composes through its
        # Euclidean curvature in both geometries: its domain is flat.
        scalar_outer = ArgKind.MANIFOLD not in node.sig.positions
        loewner = geodesic and not scalar_outer
        outer_curv = eff.gcurv if loewner else _E2G[eff.ecurv]
        rule = "scalar-composition" if scalar_outer else "loewner-composition"
        mono, note = eff.gmono, ""
        if node.evaluator in POSITIVE_DOMAIN_ATOMS:
            mono, note = gate_positive_domain(node, kid_safe_signs[0])
        shown = eff.gmono if mono is None else mono
        outer = f"outer=({_show(outer_curv, geodesic)},{shown.value})"
        if mono is None:
            return G.UNKNOWN, rule, outer + _note(note)
        if loewner:
            curv = compose_loewner((eff.gcurv, mono), kid_curvs)
        else:
            curv = _join(compose_scalar((eff.ecurv, mono), c) for c in kid_curvs)
        inner = ",".join(_show(c, geodesic) for c in kid_curvs)
        return curv, rule, f"{outer}; inner={inner}{_note(note)}"
    return G.UNKNOWN, "unmatched", ""


def _note(note: str) -> str:
    return f"; note: {note}" if note else ""


def _show(c: GCurvature, geodesic: bool) -> str:
    return c.value if geodesic else _G2E[c].value


def _fmt_path(path: tuple) -> str:
    return "root" + "".join(f".{i}" for i in path)


def _analyze_node(node: Expression, path: tuple, trace: list[TraceEntry]) -> _NodeFacts:
    """The facts of ``node``; appends its geodesic trace entry after its children's."""
    kids = [_analyze_node(c, path + (i,), trace) for i, c in enumerate(node.children())]
    safe_signs = [k.safe_sign for k in kids]
    gcurv, rule, inputs = _curv_node(node, [k.gcurv for k in kids], safe_signs, geodesic=True)
    ecurv, _, _ = _curv_node(node, [_E2G[k.ecurv] for k in kids], safe_signs, geodesic=False)
    trace.append(TraceEntry(path=_fmt_path(path), rule=rule, inputs=inputs, output=gcurv.value))
    return _NodeFacts(
        sign=_sign_node(node, [k.sign for k in kids], safe=False),
        safe_sign=_sign_node(node, safe_signs, safe=True),
        gcurv=gcurv,
        ecurv=_G2E[ecurv],
    )


def analyze(e: Expression, manifold: Manifold) -> AnalysisReport:
    """Propagate sign and both curvatures; return the verdicts and full trace.

    The expression must be scalar-valued at the root, and every variable must
    live on ``manifold``.
    """
    if e.kind != "scalar":
        raise ShapeError("analysis requires a scalar-valued objective at the root")
    for name, m in e.variables.items():
        if m != manifold:
            raise DomainError(f"variable '{name}' lives on {m}, not on {manifold}")
    trace: list[TraceEntry] = []
    root = _analyze_node(e, (), trace)
    return AnalysisReport(
        sign=root.sign,
        gcurvature=root.gcurv,
        ecurvature=root.ecurv,
        trace=tuple(trace),
    )
