"""Immutable symbolic expression trees, metadata lattices, and the atom registry.

The module also evaluates trees numerically (``evaluate``) and
differentiates them in reverse mode (``value_and_grad``) through the
vector-Jacobian products registered beside each atom's evaluator.  Both
run one forward pass (``_forward``) under a ``spd.Memo``, so each input
array is decomposed once per evaluation; a gradient is a backward pass
(``_backward``) over that pass's tape, which the solver keeps from its
line search.  For the falsifier, ``_evaluate_stacked`` evaluates a tree
at a whole stack of points in one walk: every built-in atom's evaluator is
in ``spd.STACKED`` and runs once over the whole stack under a
``spd.Rows``, and each point gets the value, or the ``DomainError``
outcome, that ``evaluate`` gives it.  A tree holding a user atom is not
stacked: its walk raises ``spd.Undecided``, and the falsifier calls
``evaluate`` point by point instead.  Both are one walk, ``_Walk``, with
two row policies (``spd.Memo``, ``spd.Rows``); ``_StackedWalk`` only
overrides how it reads a variable, keeps a combinator's result and calls
an atom.  Either walk gates a variable's value as ``spd.sym_eig`` gates a
matrix before any atom reads it.

Expressions are plain trees: variables and constants at the leaves,
arithmetic combinators and atom applications inside.  Fixed atom parameters
(vectors, matrices, integer orders, exponents) are baked into the applying
node rather than represented as children, so only manifold-valued arguments
participate in curvature propagation.

Arity, argument kinds, and dimensions are checked when a node is built,
never during analysis; a parameter holding a NaN or an infinity raises
``DomainError``, and a constant or parameter that numpy cannot read as a
regular array of numbers ``ExpressionError`` (``_numeric``).  An atom node also binds its registration then, as
``sig``, ``evaluator`` and ``vjp``, which its evaluations and gradients
call, so re-registering an atom changes only the nodes built after it; it
keeps the dimensions of its matrix arguments as ``arg_dims`` and the
signature's ``effective`` metadata at its parameters and those dimensions
as ``meta``, which analysis reads.  Nodes are immutable after
construction.  Each node class states its identity once, as a ``_key()``
tuple; ``Expression.__eq__`` (same class, equal keys) and
``Expression.__hash__`` both read it, so equal nodes hash alike.  Arrays
enter a key through ``_array_token`` (parameters through
``_param_token``), which equal arrays share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import spd
from .errors import (
    DeclarationConflictError,
    DomainError,
    ExpressionError,
    RegistrationConflictError,
    ShapeError,
    UnknownAtomError,
)


class Sign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    ANY = "AnySign"


class GCurvature(Enum):
    LINEAR = "GLinear"
    CONVEX = "GConvex"
    CONCAVE = "GConcave"
    UNKNOWN = "GUnknown"


class GMonotonicity(Enum):
    INCREASING = "GIncreasing"
    DECREASING = "GDecreasing"
    ANY = "GAnyMono"


class ECurvature(Enum):
    AFFINE = "Affine"
    CONVEX = "Convex"
    CONCAVE = "Concave"
    UNKNOWN = "UnknownCurvature"


class Definiteness(Enum):
    PD = "PD"
    PSD = "PSD"
    NONE = "none"


@dataclass(frozen=True)
class Manifold:
    """Carrier manifold of a variable; only SPD(d) is supported."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind != "SPD":
            raise ExpressionError(f"unsupported manifold kind '{self.kind}'")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ExpressionError(f"manifold dimension must be a positive integer, got {self.dim!r}")

    def __str__(self):
        return f"SPD({self.dim})"


def SPD(dim: int) -> Manifold:
    """The manifold of symmetric positive definite dim x dim matrices."""
    return Manifold("SPD", int(dim))


class ArgKind(Enum):
    MANIFOLD = "manifold"          # matrix-valued subexpression on the manifold
    SCALAR = "scalar"              # scalar-valued subexpression
    PARAM_MATRIX = "matrix-param"
    PARAM_VECTOR = "vector-param"
    PARAM_VECTORS = "vectors-param"
    PARAM_MATRICES = "matrices-param"
    PARAM_SCALAR = "scalar-param"
    PARAM_INT = "int-param"


EXPR_KINDS = (ArgKind.MANIFOLD, ArgKind.SCALAR)


class EffectiveMeta(NamedTuple):
    sign: Sign
    gcurv: GCurvature
    gmono: GMonotonicity
    ecurv: ECurvature


@dataclass(frozen=True)
class AtomSignature:
    """Registry entry: shape contract plus curvature metadata for one atom.

    ``validate`` receives the manifold argument dimensions and the parameter
    tuple, performs the atom's dimension and domain checks, and returns the
    result dimension (``None`` for scalar results).  ``refine`` may override
    metadata fields that depend on the parameters.
    """

    id: str
    positions: tuple[ArgKind, ...]
    result: str  # "scalar" | "matrix"
    sign: Sign
    gcurv: GCurvature
    gmono: GMonotonicity
    ecurv: ECurvature
    validate: Callable | None = None
    refine: Callable | None = None

    def effective(self, params: tuple, arg_dims: tuple = ()) -> EffectiveMeta:
        meta = EffectiveMeta(self.sign, self.gcurv, self.gmono, self.ecurv)
        if self.refine is not None:
            meta = meta._replace(**self.refine(params, arg_dims))
        return meta


class ParamRef(NamedTuple):
    """A named constant bound for use in an atom parameter slot."""

    name: str | None
    value: object


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _merge_variables(parts) -> dict[str, Manifold]:
    out: dict[str, Manifold] = {}
    for m in parts:
        for name, manifold in m.items():
            seen = out.get(name)
            if seen is not None and seen != manifold:
                raise DeclarationConflictError(
                    f"variable '{name}' used on both {seen} and {manifold}"
                )
            out[name] = manifold
    return out


def _numeric(x, what: str) -> np.ndarray:
    """``x`` as a float array: the one conversion of every constant and atom parameter.

    ``ExpressionError`` naming ``what`` unless numpy reads ``x`` as a
    regular array of numbers; a ragged nesting, a string or None is not one.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ExpressionError(f"{what} must be numeric, got {type(x).__name__}")
    return np.asarray(a, dtype=float)


def _number(x, what: str) -> float:
    """``_numeric(x, what)`` for a value that must be one number."""
    a = _numeric(x, what)
    if a.ndim != 0:
        raise ExpressionError(f"{what} must be a number, got shape {a.shape}")
    return float(a)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


def _array_token(a: np.ndarray) -> tuple:
    """A hashable form of ``a`` that equal arrays share.

    Adding 0.0 turns -0.0 into 0.0, which ``np.array_equal`` counts as equal.
    """
    return a.shape, (a + 0.0).tobytes()


class Expression:
    """Base class for immutable expression nodes."""

    __slots__ = ("_kind", "_dim", "_vars")

    def _init_base(self, kind: str, dim: int | None, variables: dict):
        self._kind = kind
        self._dim = dim
        self._vars = variables

    @property
    def kind(self) -> str:
        """Value kind: "scalar", "matrix", or "param" (parameter-only constant)."""
        return self._kind

    @property
    def dim(self) -> int | None:
        """Matrix dimension for matrix-valued nodes, else None."""
        return self._dim

    @property
    def variables(self) -> dict[str, Manifold]:
        return self._vars

    def _key(self) -> tuple:
        """The node's identity: nodes of one class are equal when their keys are."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def children(self) -> tuple["Expression", ...]:
        return ()

    def walk(self, path=()) -> Iterator[tuple[tuple, "Expression"]]:
        """Yield (path, node) pairs in post-order."""
        for i, child in enumerate(self.children()):
            yield from child.walk(path + (i,))
        yield path, self

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    # Arithmetic sugar; all scalar-valued per the combinator contracts.
    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __radd__(self, other):
        return Add((_coerce(other), self))

    def __sub__(self, other):
        return Add((self, _coerce(other)), (1.0, -1.0))

    def __rsub__(self, other):
        return Add((_coerce(other), self), (1.0, -1.0))

    def __neg__(self):
        return Add((self,), (-1.0,))

    # A number or a ConstScalar scales, as a one-term Add; analysis
    # certifies no product.
    def __mul__(self, other):
        other = _coerce(other)
        if isinstance(other, ConstScalar):
            return Add((self,), (other.value,))
        if isinstance(self, ConstScalar):
            return Add((other,), (self.value,))
        return Mul((self, other))

    def __rmul__(self, other):
        # Only a number reaches here: an expression on the left takes __mul__.
        return Add((self,), (_coerce(other).value,))


def _coerce(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return ConstScalar(float(x))
    raise ExpressionError(f"cannot use {type(x).__name__} as an expression")


def _require_scalar_children(nodes, what: str):
    for n in nodes:
        if not isinstance(n, Expression):
            raise ExpressionError(f"{what} children must be expressions")
        if n.kind != "scalar":
            raise ExpressionError(
                f"{what} is defined for scalar subexpressions; matrix-valued "
                f"combinations go through the positive_affine atom"
            )


class Variable(Expression):
    """A matrix variable living on an SPD manifold; positive definite by domain."""

    __slots__ = ("name", "manifold")

    def __init__(self, name: str, manifold: Manifold):
        if not name or not _IDENT_RE.match(name):
            raise ExpressionError(f"variable name must be an identifier, got {name!r}")
        if not isinstance(manifold, Manifold):
            raise ExpressionError("manifold must be a Manifold instance")
        self.name = name
        self.manifold = manifold
        self._init_base("matrix", manifold.dim, {name: manifold})

    def _key(self):
        return self.name, self.manifold

    def __repr__(self):
        return f"Variable({self.name!r}, {self.manifold})"


class ConstMatrix(Expression):
    """A fixed matrix; usable as an atom parameter or, when square PD, on the manifold."""

    __slots__ = ("values", "definiteness", "name")

    def __init__(self, values, definiteness=Definiteness.NONE, name=None):
        if isinstance(definiteness, str):
            definiteness = Definiteness(definiteness)
        a = _readonly(_numeric(values, "constant matrix"))
        if a.ndim != 2:
            raise ExpressionError(f"constant matrix must be 2-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("constant matrix has non-finite entries")
        if definiteness is not Definiteness.NONE:
            _verify_definiteness(a, definiteness)
        self.values = a
        self.definiteness = definiteness
        self.name = name
        square = a.shape[0] == a.shape[1]
        self._init_base("matrix" if square else "param", a.shape[0] if square else None, {})

    def _key(self):
        return (self.definiteness, self.name) + _array_token(self.values)

    def __repr__(self):
        label = self.name or f"{self.values.shape[0]}x{self.values.shape[1]}"
        return f"ConstMatrix({label})"


def _verify_definiteness(a: np.ndarray, claim: Definiteness):
    if a.shape[0] != a.shape[1]:
        raise ExpressionError(f"{claim.value} claim requires a square matrix")
    try:
        lam = spd._eigvalsh(spd._symmetrized(a))
    except ShapeError:
        raise ExpressionError(f"{claim.value} claim requires a symmetric matrix") from None
    tol = spd._pd_tol(float(lam[-1]))
    # Written so that a NaN eigenvalue fails the claim.
    if claim is Definiteness.PD and not float(lam[0]) > tol:
        raise DomainError(f"PD claim fails: lambda_min={lam[0]:.6g}")
    if claim is Definiteness.PSD and not float(lam[0]) >= -tol:
        raise DomainError(f"PSD claim fails: lambda_min={lam[0]:.6g}")


class ConstScalar(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        v = _number(value, "constant scalar")
        if not np.isfinite(v):
            raise DomainError("constant scalar must be finite")
        self.value = v
        self._init_base("scalar", None, {})

    def _key(self):
        return (self.value,)

    def __repr__(self):
        return f"ConstScalar({self.value})"


class Add(Expression):
    """Weighted sum of scalar subexpressions; one term scales by a constant."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights=None):
        terms = tuple(terms)
        if not terms:
            raise ExpressionError("addition needs at least one term")
        _require_scalar_children(terms, "addition")
        if weights is None:
            weights = (1.0,) * len(terms)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(terms):
            raise ExpressionError("weights and terms must have equal length")
        if not all(np.isfinite(weights)):
            raise DomainError("addition weights must be finite")
        self.terms = terms
        self.weights = weights
        self._init_base("scalar", None, _merge_variables(t.variables for t in terms))

    def children(self):
        return self.terms

    def _key(self):
        return self.weights, self.terms

    def __repr__(self):
        return f"Add({len(self.terms)} terms)"


class Mul(Expression):
    """Product of scalar subexpressions; non-constant products are never certified."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ExpressionError("product needs at least two factors")
        _require_scalar_children(factors, "product")
        self.factors = factors
        self._init_base("scalar", None, _merge_variables(f.variables for f in factors))

    def children(self):
        return self.factors

    def _key(self):
        return (self.factors,)

    def __repr__(self):
        return f"Mul({len(self.factors)} factors)"


class MaxOf(Expression):
    """Pointwise maximum of scalar subexpressions."""

    __slots__ = ("options",)

    def __init__(self, options):
        options = tuple(options)
        if not options:
            raise ExpressionError("max needs at least one argument")
        _require_scalar_children(options, "max")
        self.options = options
        self._init_base("scalar", None, _merge_variables(o.variables for o in options))

    def children(self):
        return self.options

    def _key(self):
        return (self.options,)

    def __repr__(self):
        return f"MaxOf({len(self.options)} options)"


def _param_token(p):
    if isinstance(p, np.ndarray):
        return ("a",) + _array_token(p)
    if isinstance(p, tuple):
        return ("t",) + tuple(_param_token(x) for x in p)
    return ("v", p)


class AtomApply(Expression):
    """Application of a registered atom to expression arguments plus baked parameters.

    ``sig``, ``evaluator`` and ``vjp`` are those of the registration it was
    built from, ``atom``, even after its id is registered again.
    """

    __slots__ = ("sig", "evaluator", "vjp", "args", "params", "param_labels", "result_dim",
                 "arg_dims", "meta")

    def __init__(self, atom, args, params, param_labels, result_dim, arg_dims):
        sig = self.sig = atom.sig
        self.evaluator = atom.evaluator
        self.vjp = atom.vjp
        self.args = tuple(args)
        self.params = tuple(params)
        self.param_labels = tuple(param_labels)
        self.result_dim = result_dim
        self.arg_dims = arg_dims
        self.meta = sig.effective(self.params, arg_dims)
        kind = "scalar" if sig.result == "scalar" else "matrix"
        self._init_base(
            kind,
            result_dim if kind == "matrix" else None,
            _merge_variables(a.variables for a in self.args),
        )

    def children(self):
        return self.args

    def _key(self):
        # The registration, not just its id: an atom registered again under
        # one id makes nodes that evaluate differently.
        return (self.sig, self.evaluator, self.vjp, self.args, self.param_labels,
                tuple(_param_token(p) for p in self.params))

    def __repr__(self):
        return f"AtomApply({self.sig.id}, {len(self.args)} args)"


# ---------------------------------------------------------------------------
# Variable declarations
# ---------------------------------------------------------------------------


class VariableScope:
    """Tracks variable declarations so one name cannot live on two manifolds."""

    def __init__(self):
        self._decl: dict[str, Manifold] = {}

    def declare(self, name: str, manifold: Manifold) -> Variable:
        seen = self._decl.get(name)
        if seen is not None and seen != manifold:
            raise DeclarationConflictError(
                f"variable '{name}' was already declared on {seen}, cannot redeclare on {manifold}"
            )
        self._decl[name] = manifold
        return Variable(name, manifold)

    def clear(self):
        self._decl.clear()


_DEFAULT_SCOPE = VariableScope()


def make_variable(name: str, manifold: Manifold, scope: VariableScope | None = None) -> Variable:
    """Declare (idempotently) and return a manifold variable.

    Redeclaring the same name on a different manifold raises
    ``DeclarationConflictError``.
    """
    return (scope or _DEFAULT_SCOPE).declare(name, manifold)


def clear_declarations():
    """Reset the default declaration scope (startup / test isolation)."""
    _DEFAULT_SCOPE.clear()


def make_const_matrix(values, definiteness=Definiteness.NONE, name=None) -> ConstMatrix:
    """Wrap a fixed matrix, verifying any claimed definiteness numerically."""
    return ConstMatrix(values, definiteness=definiteness, name=name)


# ---------------------------------------------------------------------------
# Atom registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredAtom:
    sig: AtomSignature
    evaluator: Callable
    vjp: Callable | None = None


_REGISTRY: dict[str, RegisteredAtom] = {}


def register_atom(sig: AtomSignature, evaluator: Callable, vjp: Callable | None = None):
    """Add an atom to the registry; ids must be unique.

    ``vjp(g, out, wrt, *args)``, when given, is the atom's vector-Jacobian
    product: ``args`` are the evaluator's arguments, ``out`` its result, ``g``
    the cotangent of that result and ``wrt`` one flag per expression
    argument.  It returns one cotangent per expression argument (entries
    with a false flag may be None).  Atoms without one are differentiated
    by finite differences when solved.
    """
    if sig.id in _REGISTRY:
        raise RegistrationConflictError(f"atom '{sig.id}' is already registered")
    if sig.result not in ("scalar", "matrix"):
        raise ExpressionError(f"atom result must be 'scalar' or 'matrix', got {sig.result!r}")
    _REGISTRY[sig.id] = RegisteredAtom(sig=sig, evaluator=evaluator, vjp=vjp)


def unregister_atom(name: str):
    """Remove a registered atom (test isolation helper)."""
    _REGISTRY.pop(name, None)


def _registered(name: str) -> RegisteredAtom:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAtomError(f"unknown atom '{name}'") from None


def lookup_atom(name: str) -> AtomSignature:
    return _registered(name).sig


def atom_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _require_spd_usable(cm: ConstMatrix):
    # Constants without a PD claim get checked numerically when they stand on
    # the manifold; declared-PD constants were verified at construction.
    if cm.kind != "matrix":
        raise ExpressionError("a manifold argument must be a square matrix")
    if cm.definiteness is Definiteness.NONE:
        _verify_definiteness(cm.values, Definiteness.PD)


def _finite(x):
    """``x`` itself; ``DomainError`` when it holds a NaN or an infinity."""
    if not np.all(np.isfinite(x)):
        raise DomainError("atom parameters must be finite")
    return x


def _coerce_param(kind: ArgKind, item):
    if isinstance(item, ConstScalar):
        item = item.value
    what = "atom parameters"
    if kind is ArgKind.PARAM_INT:
        v = _finite(_number(item, what))
        if not v.is_integer():
            raise ExpressionError(f"expected an integer parameter, got {item!r}")
        return int(v)
    if kind is ArgKind.PARAM_SCALAR:
        return _finite(_number(item, what))
    if kind is ArgKind.PARAM_VECTOR:
        a = _numeric(item, what)
        if a.ndim != 1:
            raise ExpressionError(f"expected a vector parameter, got shape {a.shape}")
        return _finite(_readonly(a))
    if kind is ArgKind.PARAM_MATRIX:
        a = _numeric(item, what)
        if a.ndim != 2:
            raise ExpressionError(f"expected a matrix parameter, got shape {a.shape}")
        return _finite(_readonly(a))
    if kind is ArgKind.PARAM_VECTORS:
        # A list or tuple holds vectors, unless it holds numbers and is one;
        # only a 2-D array holds them as columns, as the DSL passes a constant.
        if isinstance(item, (list, tuple)) and not all(np.isscalar(h) for h in item):
            vecs = [_numeric(h, what) for h in item]
        else:
            a = _numeric(item, what)
            vecs = list(a.T) if a.ndim == 2 else [a]
        if not vecs or any(h.ndim != 1 for h in vecs):
            raise ExpressionError("expected a vector, list of vectors, or matrix of columns")
        return tuple(_finite(_readonly(h)) for h in vecs)
    if kind is ArgKind.PARAM_MATRICES:
        # A list or tuple holds matrices; an array is one matrix or a stack of them.
        if isinstance(item, (list, tuple)):
            mats = [_numeric(m, what) for m in item]
        else:
            a = _numeric(item, what)
            mats = list(a) if a.ndim == 3 else [a]
        if not mats or any(m.ndim != 2 for m in mats):
            raise ExpressionError("expected a matrix or a non-empty list of matrices")
        return tuple(_finite(_readonly(m)) for m in mats)
    raise ExpressionError(f"unsupported parameter kind {kind}")


def apply_atom(name: str, items) -> AtomApply:
    """Apply a registered atom to a positional list of arguments.

    Expression slots take expressions (numbers are promoted to scalar
    constants); parameter slots take numbers, arrays, named constants, or
    ``ParamRef`` bindings.  Dimension checks run here, at construction.
    """
    atom = _registered(name)
    sig = atom.sig
    items = list(items)
    if len(items) != len(sig.positions):
        raise ExpressionError(
            f"atom '{name}' takes {len(sig.positions)} arguments, got {len(items)}"
        )
    args: list[Expression] = []
    params: list = []
    labels: list = []
    for kind, item in zip(sig.positions, items):
        if kind in EXPR_KINDS:
            if isinstance(item, (int, float)):
                item = ConstScalar(float(item))
            if isinstance(item, ParamRef):
                value = _numeric(item.value, f"constant '{item.name}'")
                if kind is ArgKind.MANIFOLD and value.ndim == 2:
                    item = ConstMatrix(value, name=item.name)
                else:
                    raise ExpressionError(
                        f"constant '{item.name}' cannot stand in a {kind.value} slot of '{name}'"
                    )
            if not isinstance(item, Expression):
                raise ExpressionError(
                    f"atom '{name}' expected an expression in a {kind.value} slot"
                )
            if kind is ArgKind.MANIFOLD:
                if item.kind != "matrix":
                    raise ExpressionError(
                        f"atom '{name}' expected a matrix-valued argument, got {item.kind}"
                    )
                if isinstance(item, ConstMatrix):
                    _require_spd_usable(item)
            else:
                if item.kind != "scalar":
                    raise ExpressionError(
                        f"atom '{name}' expected a scalar-valued argument, got {item.kind}"
                    )
            args.append(item)
        else:
            label = None
            if isinstance(item, ParamRef):
                label = item.name
                item = item.value
            elif isinstance(item, ConstMatrix):
                label = item.name
                item = item.values
            params.append(_coerce_param(kind, item))
            labels.append(label)
    arg_dims = tuple(a.dim for a in args if a.kind == "matrix")
    if len(set(arg_dims)) > 1:
        raise ExpressionError(
            f"atom '{name}' requires matching argument dimensions, got {arg_dims}"
        )
    result_dim = None
    if sig.validate is not None:
        result_dim = sig.validate(arg_dims, tuple(params))
    elif sig.result == "matrix":
        result_dim = arg_dims[0]
    return AtomApply(atom, args, tuple(params), tuple(labels), result_dim, arg_dims)


# ---------------------------------------------------------------------------
# Numeric evaluation of expressions
# ---------------------------------------------------------------------------


def eval_atom(name: str, *args):
    """Evaluate a registered atom numerically on evaluator-order arguments.

    Scalar atoms return floats; matrix-valued atoms return a validated
    ``SPDMatrix``.  Domain violations raise ``DomainError``.
    """
    reg = _registered(name)
    kinds = reg.sig.positions
    out = reg.evaluator(*(
        spd.POINT.symmetric(a) if i < len(kinds) and kinds[i] is ArgKind.MANIFOLD
        else a.entries if isinstance(a, spd.SPDMatrix) else a
        for i, a in enumerate(args)
    ))
    if isinstance(out, np.ndarray) and out.ndim == 2:
        return spd.SPDMatrix(out)
    return out


def _ordered_args(e: AtomApply, arg_vals) -> list:
    """The evaluator's positional arguments: argument values and parameters interleaved."""
    arg_vals = iter(arg_vals)
    param_vals = iter(e.params)
    return [
        next(arg_vals) if k in EXPR_KINDS else next(param_vals)
        for k in e.sig.positions
    ]


class _Walk:
    """One post-order evaluation of a tree at one point; each node is evaluated once.

    Calling it on a node evaluates the node's subtree, keeping each value by
    node identity in ``values`` and the nodes in post-order in ``order``.
    ``_node_value`` holds the only copy of the combinators' arithmetic,
    which numpy broadcasting serves for floats and ``(n,)`` stacks alike;
    the hooks ``_variable``, ``_scalar`` and ``_atom`` hold what a stacked
    walk does differently, and the row policy ``rows`` the rest (here the
    evaluation's ``spd.Memo``).  Values stay writable: a user atom's
    evaluator is called only here, on values no other point shares, so it
    may write into one.
    """

    def __init__(self, env: dict, rows: spd.Memo):
        self.env = env
        self.rows = rows
        self.values: dict[int, object] = {}
        self.order: list[Expression] = []

    def __call__(self, node: Expression):
        key = id(node)
        if key not in self.values:
            kids = [self(c) for c in node.children()]
            self.values[key] = self._node_value(node, kids)
            self.order.append(node)
        return self.values[key]

    def _node_value(self, e: Expression, kids: list):
        """The value of one node given the values of its children."""
        if isinstance(e, Variable):
            return self._variable(e)
        if isinstance(e, ConstMatrix):
            return e.values
        if isinstance(e, ConstScalar):
            return e.value
        if isinstance(e, AtomApply):
            return self._atom(e, e.evaluator, _ordered_args(e, kids))
        if isinstance(e, Add):
            out = 0.0  # as sum(), which starts from 0: 0 + (-0.0) is 0.0
            for w, v in zip(e.weights, kids):
                out = out + w * v
        elif isinstance(e, Mul):
            out = 1.0
            for v in kids:
                out = out * v
        elif isinstance(e, MaxOf):
            # As max(): a later option wins only when strictly greater, so a
            # NaN option neither wins nor loses.
            out = kids[0]
            for v in kids[1:]:
                out = np.where(v > out, v, out)
        else:
            raise ExpressionError(f"cannot evaluate node {type(e).__name__}")
        return self._scalar(out)

    def _variable(self, e: Variable):
        """The bound value, after the gate of ``spd.sym_eig``, once per array.

        An ``SPDMatrix`` passed it already: it seeds the memo with its
        decomposition, which vouches for the gate too.
        """
        try:
            value = self.env[e.name]
        except KeyError:
            raise ExpressionError(f"no value bound for variable '{e.name}'") from None
        arr = np.asarray(value, dtype=float)
        if arr.shape != (e.manifold.dim, e.manifold.dim):
            raise ExpressionError(
                f"value for '{e.name}' has shape {arr.shape}, expected {(e.manifold.dim,) * 2}"
            )
        if isinstance(value, spd.SPDMatrix):
            self.rows.seed(arr, value.eig)
        return self.rows.memo("symmetric", self.rows.symmetric, arr)

    _scalar = float

    def _atom(self, e: AtomApply, fn, args: list):
        return fn(*args, rows=self.rows) if fn in spd.STACKED else fn(*args)


class _Tape(NamedTuple):
    """A forward pass: the root's value, each node's value by identity, the
    nodes in post-order, and the memo of the decompositions made."""

    value: object
    values: dict
    order: list
    rows: spd.Memo


def _forward(e: Expression, env: dict, rows: spd.Memo) -> _Tape:
    """Evaluate ``e`` once per node, post-order, keeping what a backward pass reads."""
    walk = _Walk(env, rows)
    return _Tape(walk(e), walk.values, walk.order, rows)


def evaluate(e: Expression, env: dict):
    """Evaluate an expression numerically.

    ``env`` maps variable names to SPD arrays (an ``SPDMatrix`` lends its
    decomposition to the evaluation).  Returns a float for scalar
    expressions, a symmetric ndarray for matrix-valued ones.  Domain
    violations raise ``DomainError``.  A subtree shared between parents is
    evaluated once, and each input array is decomposed once.
    """
    return _forward(e, env, spd.Memo()).value


def _evaluate_stacked(e: Expression, env: dict, alive: np.ndarray):
    """``evaluate`` of a scalar expression at every row of stacked environments.

    ``env`` maps each variable name to an ``(n, d, d)`` stack; ``alive``
    marks the rows to evaluate.  Returns ``(values, alive)``: the ``(n,)``
    float values and the rows whose per-point ``evaluate`` would not raise
    ``DomainError``.  Every alive row's value equals per-point ``evaluate``
    bit for bit; other rows hold placeholders.  Raises ``spd.Undecided``
    when the tree holds an atom whose evaluator is not in ``spd.STACKED``,
    when some row's per-point evaluation would raise anything else, or when
    that cannot be ruled out, including any floating-point event that numpy
    is set to report (the stacked arithmetic would otherwise hide it).
    """
    if e.kind != "scalar":
        raise spd.Undecided("stacked evaluation is for scalar expressions")
    rows = spd.Rows(alive.copy())
    events = []
    modes = {k: "ignore" if v == "ignore" else "call" for k, v in np.geterr().items()}
    try:
        with np.errstate(call=lambda *_: events.append(1), **modes):
            values = _StackedWalk(env, rows)(e)
    except Exception as exc:  # Undecided, or what some row raises per point
        raise spd.Undecided(f"the stacked walk raised {exc!r}") from None
    if events:
        raise spd.Undecided("a floating-point event under numpy's error settings")
    return values, rows.alive


class _StackedWalk(_Walk):
    """The walk of ``_evaluate_stacked``, under a ``spd.Rows``; each node is evaluated once.

    Scalar nodes hold ``(n,)`` float stacks, matrix nodes ``(n, d, d)``
    stacks; a subtree without variables may hold one float or one
    ``(d, d)`` matrix for all rows, which numpy and ``spd.Rows`` broadcast.
    An atom's evaluator runs once per node with ``rows=self.rows`` when it
    is in ``spd.STACKED``, as every built-in one is; any other evaluator, a
    registered user atom's, leaves the stack undecided, and the caller
    evaluates point by point.
    """

    def __init__(self, env: dict, rows: spd.Rows):
        super().__init__(env, rows)
        self.n = len(rows.alive)

    def _variable(self, e: Variable):
        """The bound stack, after the gate of ``spd.sym_eig`` per row: ``spd.Rows.symmetric``."""
        v = self.env.get(e.name)
        if getattr(v, "shape", None) != (self.n, e.dim, e.dim):
            raise spd.Undecided(f"no stack of shape {(self.n, e.dim, e.dim)} for '{e.name}'")
        return self.rows.symmetric(v)

    def _scalar(self, v):
        # A float when every operand was one value for all rows.
        return float(v) if np.ndim(v) == 0 else v

    def _atom(self, e: AtomApply, fn, args: list):
        if fn not in spd.STACKED:
            raise spd.Undecided(f"atom '{e.sig.id}' has no stacked evaluator")
        # An atom of constants may give one value for all rows.
        return self._scalar(fn(*args, rows=self.rows))


def differentiable(e: Expression) -> bool:
    """True when every atom in ``e`` has a registered vector-Jacobian product."""
    return all(
        node.vjp is not None
        for _, node in e.walk()
        if isinstance(node, AtomApply)
    )


def _node_vjp(e: Expression, g, child_vals: list, out, rows: spd.Memo) -> list:
    """Cotangents of a node's children from the cotangent ``g`` of its value.

    Products in ``spd.RESIDUAL_VJPS`` get ``rows``, the memo of the forward
    pass, to read their evaluator's decompositions from.
    """
    if isinstance(e, Add):
        return [w * g for w in e.weights]
    if isinstance(e, Mul):
        return [
            g * math.prod(v for j, v in enumerate(child_vals) if j != i)
            for i in range(len(child_vals))
        ]
    if isinstance(e, MaxOf):
        best = child_vals.index(max(child_vals))
        return [g if i == best else None for i in range(len(child_vals))]
    if isinstance(e, AtomApply):
        vjp = e.vjp
        if vjp is None:
            raise ExpressionError(f"atom '{e.sig.id}' has no vector-Jacobian product")
        wrt = tuple(bool(a.variables) for a in e.args)
        args = _ordered_args(e, child_vals)
        if vjp in spd.RESIDUAL_VJPS:
            return list(vjp(g, out, wrt, *args, rows=rows))
        return list(vjp(g, out, wrt, *args))
    return []


def value_and_grad(e: Expression, env: dict):
    """Value of a scalar expression and its Euclidean gradient in every variable.

    One post-order forward pass records each node's value, as ``evaluate``
    does; one backward pass carries cotangents from the root to the leaves
    through each node's vector-Jacobian product, which reads the forward
    pass's decompositions instead of repeating them.  Values and cotangents
    are keyed by node identity, so a subtree shared between parents is
    evaluated once and receives the sum of its parents' cotangents.
    Returns ``(value, grads)`` with ``grads`` mapping each variable name to
    a symmetric array.
    """
    if e.kind != "scalar":
        raise ExpressionError("value_and_grad needs a scalar-valued expression")
    tape = _forward(e, env, spd.Memo())
    return tape.value, _backward(e, tape)


def _backward(e: Expression, tape: _Tape) -> dict[str, np.ndarray]:
    """The Euclidean gradient of the scalar ``e`` in every variable, from a forward pass of it."""
    values = tape.values
    grads = {name: np.zeros((m.dim, m.dim)) for name, m in e.variables.items()}
    cotangents = {id(e): 1.0}
    for node in reversed(tape.order):
        g = cotangents.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Variable):
            grads[node.name] = grads[node.name] + g
            continue
        children = node.children()
        child_vals = [values[id(c)] for c in children]
        for child, cg in zip(children, _node_vjp(node, g, child_vals, values[id(node)], tape.rows)):
            if cg is None or not child.variables:
                continue
            key = id(child)
            cotangents[key] = cg if key not in cotangents else cotangents[key] + cg
    return {name: spd._sym(g) for name, g in grads.items()}
