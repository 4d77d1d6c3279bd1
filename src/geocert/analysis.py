"""Bottom-up propagation of sign, geodesic curvature, and Euclidean curvature.

One pass over an immutable expression tree's plan (``expr._plan_of``: its
distinct nodes in post-order) computes all three at every node, each node
from its children's results, once however many parents share it.  The
trace then holds one entry per path from the root, in post-order
(``expr._plan_paths``), so a shared subtree is reported once per path; no
part of the pass recurses, so a tree of any depth is analyzed.

The shared composition table, applied to (outer curvature, outer
monotonicity) against an inner curvature, is:

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
verdict is unknown.  Each node's one sign is its provable value range,
which the report gives and the positive-domain gate reads; a power t^p is
Positive only over a provably nonnegative t or for an even integer p.  The
inverse rule, the gate and the power's sign apply by the evaluator a node
bound (the tables of ``atoms``), never by the atom's id.  An atom over a
variable-free matrix argument that kept no value (a user atom's, whose
evaluator does not run where its node is built) is GUnknown: nothing
gated that argument as positive definite.

Products with a non-constant factor are never certified: the midpoint test
fails already for trace times negated log-determinant on a pair of scaled
identity matrices.  Scaling by a constant is a one-term ``Add``, which
``Expression.__mul__`` builds for a number or a ``ConstScalar``.

The public ``combine_add``, ``combine_max``, ``combine_product``,
``compose_scalar``, ``compose_loewner``, ``compose_inverse`` and
``gate_positive_domain`` are the rules the pass applies; ``_curv_node``
only picks a node's rule and formats its trace inputs, so patching one of
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

from .atoms import INVERSE_ATOMS, POSITIVE_DOMAIN_ATOMS, POWER_ATOMS, _even_exponent
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
    _plan_of,
    _plan_paths,
)
from .spd import _holds

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


def _even_power(node: AtomApply) -> bool:
    """Whether ``node`` is a power t^p whose first parameter p is an even integer.

    A node bound to a power's evaluator under a signature without a scalar
    first parameter has no exponent to read, so it has no even one.
    """
    if not _holds(POWER_ATOMS, node.evaluator) or not node.params:
        return False
    p = node.params[0]
    return isinstance(p, (int, float)) and _even_exponent(p)


def gate_positive_domain(node: AtomApply, arg_sign: Sign) -> tuple[GMonotonicity | None, str]:
    """The monotonicity a positive-domain atom composes with, or None to refuse, and a note.

    ``arg_sign`` is the argument's provable value range.  t^p with even
    integer p is convex on all of R, just not monotone, so it composes anyway.
    """
    if arg_sign is Sign.POSITIVE:
        return node.meta.gmono, ""
    if _even_power(node):
        return M.ANY, "even power composed without a sign guarantee"
    return None, (f"{node.sig.id} needs a provably nonnegative argument, "
                  f"value range is {arg_sign.value}")


# ---------------------------------------------------------------------------
# The analysis pass
# ---------------------------------------------------------------------------


class _NodeFacts(NamedTuple):
    """What the analysis pass derives for one node."""

    sign: Sign
    gcurv: GCurvature
    ecurv: ECurvature


def _sign_node(e: Expression, child_signs: list[Sign]) -> Sign:
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
        # A power of a base that may be negative is nonnegative for even p only.
        if _holds(POWER_ATOMS, e.evaluator) and not (
                child_signs[0] is Sign.POSITIVE or _even_power(e)):
            return Sign.ANY
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


def _curv_node(node: Expression, kid_curvs: list[GCurvature], kid_signs: list[Sign],
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
        if geodesic and _holds(INVERSE_ATOMS, node.evaluator):
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
        if _holds(POSITIVE_DOMAIN_ATOMS, node.evaluator):
            mono, note = gate_positive_domain(node, kid_signs[0])
        shown = eff.gmono if mono is None else mono
        outer = f"outer=({_show(outer_curv, geodesic)},{shown.value})"
        if mono is None:
            return G.UNKNOWN, rule, outer + _note(note)
        # A variable-free matrix argument is gated as positive definite by
        # its kept value; one without a value (a user atom's) is never gated.
        if any(not a.variables and a._value is None and a.kind == "matrix" for a in node.args):
            return G.UNKNOWN, rule, outer + _note(
                "a variable-free matrix argument kept no value, so it is not known "
                "to be positive definite")
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
    return ".".join(("root", *map(str, path)))


def _node_facts(node: Expression, kids: list[_NodeFacts]) -> tuple[_NodeFacts, str, str]:
    """``node``'s facts from its children's, with its geodesic rule and trace inputs."""
    signs = [k.sign for k in kids]
    gcurv, rule, inputs = _curv_node(node, [k.gcurv for k in kids], signs, geodesic=True)
    ecurv, _, _ = _curv_node(node, [_E2G[k.ecurv] for k in kids], signs, geodesic=False)
    facts = _NodeFacts(sign=_sign_node(node, signs), gcurv=gcurv, ecurv=_G2E[ecurv])
    return facts, rule, inputs


def analyze(e: Expression, manifold: Manifold) -> AnalysisReport:
    """Propagate sign and both curvatures; return the verdicts and full trace.

    The expression must be scalar-valued at the root, and every variable must
    live on ``manifold``.  Each distinct node's facts are computed once, in
    the order of the expression's plan; the trace holds one entry per path
    from the root, in post-order, as ``Expression.walk`` yields them.
    """
    if e.kind != "scalar":
        raise ShapeError("analysis requires a scalar-valued objective at the root")
    for name, m in e.variables.items():
        if m != manifold:
            raise DomainError(f"variable '{name}' lives on {m}, not on {manifold}")
    plan = _plan_of(e)
    facts: list[_NodeFacts] = []
    payloads: list[tuple[str, str, str]] = []  # (rule, inputs, output) per step
    for step in plan:
        node_facts, rule, inputs = _node_facts(step.node, [facts[i] for i in step.kids])
        facts.append(node_facts)
        payloads.append((rule, inputs, node_facts.gcurv.value))
    trace = tuple(TraceEntry(_fmt_path(path), *payloads[k]) for path, k in _plan_paths(plan))
    root = facts[-1]
    return AnalysisReport(
        sign=root.sign,
        gcurvature=root.gcurv,
        ecurvature=root.ecurv,
        trace=trace,
    )
