"""Immutable symbolic expression trees, metadata lattices, and the atom registry.

The module also evaluates trees numerically (``evaluate``) and
differentiates them in reverse mode (``value_and_grad``) through the
vector-Jacobian products registered beside each atom's evaluator.  A tree
is ordered once, into a plan kept on its root outside the node's key
(``_plan_of``): its distinct nodes in post-order, each a step that names
its children's steps.  The plan builder is the only code that reads a
node's children; ``Expression.walk`` and ``node_count`` (and the analysis
trace) read paths off the plan (``_plan_paths``), so none of them
recurses.  Hashing and ``==`` read the nodes each key holds from an
explicit stack, and a node's hash is computed once and kept beside the
plan, outside the key.
A forward pass is one loop over the plan (``_forward``) under a row
policy of ``spd``, which binds each variable, calls each atom and keeps
each combinator's value.  Under a ``spd.Memo`` it evaluates one point,
decomposing each input array once; a gradient is one reverse loop over the
plan (``_backward``), which the solver runs on the values its line search
kept.  Under a ``spd.Rows`` (``_evaluate_stacked``, for the falsifier) every
built-in evaluator runs once over a whole stack of points, and each point
gets the value, or the ``DomainError`` outcome, that ``evaluate`` gives
it; a user atom leaves the stack undecided (``spd.Undecided``), and the
falsifier calls ``evaluate`` point by point instead.

Expressions are plain trees: variables and constants at the leaves,
arithmetic combinators and atom applications inside.  Fixed atom parameters
(vectors, matrices, integer orders, exponents) are baked into the applying
node rather than represented as children, so only manifold-valued arguments
participate in curvature propagation.

A node without a variable is one value, computed where it is built
(``_constant_value``), refused unless finite, gated as positive definite
in a manifold slot whatever its claim, and kept read-only as ``_value``,
which every pass reads instead of evaluating the subtree (``_node_value``).
What is computed from those values outlives a pass too: a tree keeps the
memo entries keyed by its kept arrays alone, the gates and decompositions
its first complete forward pass made of them, as ``_entries``, and every
later pass, at a point, over a stack or in a solve, starts from them
(``_forward``).

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
``Expression.__hash__`` both read it, so equal nodes hash alike.  A
node's hash is computed on first use, not when it is built, so a node
whose key holds something unhashable (a user atom's evaluator) builds
and compares, and only hashing it raises ``TypeError``.  Arrays
enter a key through ``_array_token`` (parameters through
``_param_token``), which equal arrays share.
"""

from __future__ import annotations

import math
import operator
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
    """Carrier manifold of a variable; only SPD(d) is supported.

    ``dim`` is any integer >= 1 but a bool, numpy's integers included, and
    is kept as an ``int``; anything else raises ``ExpressionError``.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind != "SPD":
            raise ExpressionError(f"unsupported manifold kind '{self.kind}'")
        try:
            dim = None if isinstance(self.dim, bool) else operator.index(self.dim)
        except TypeError:
            dim = None
        if dim is None or dim < 1:
            raise ExpressionError(f"manifold dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", dim)

    def __str__(self):
        return f"SPD({self.dim})"


def SPD(dim: int) -> Manifold:
    """The manifold of symmetric positive definite dim x dim matrices."""
    return Manifold("SPD", dim)


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

    __slots__ = ("_kind", "_dim", "_vars", "_children", "_plan", "_hash", "_value", "_entries")

    def _init_base(self, kind: str, dim: int | None, children: tuple = (), variables=None):
        if variables is None:  # those of the children, merged
            variables = _merge_variables(c.variables for c in children)
        self._kind = kind
        self._dim = dim
        self._children = children
        self._vars = variables
        self._plan = None  # built on first use by ``_plan_of``; not in the key
        self._hash = None  # computed on first use by ``__hash__``; not in the key
        self._entries = None  # kept by the first complete ``_forward`` of it; not in the key
        self._value = None  # None for a node with a variable, and while the next line runs
        if not variables:
            self._value = _constant_value(self, children)

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
        """Same class and equal keys, the keys compared as tuples compare.

        The pairs of nodes the keys hold wait on a list, not on the call
        stack, and each pair of distinct nodes is compared once, so a tree
        of any depth compares in time linear in its distinct nodes.  Two
        nodes whose hashes are both cached and differ are unequal at once;
        no hash is computed here.
        """
        pending, seen = [(self, other)], set()
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b):
                return False
            if a._hash is not None and b._hash is not None and a._hash != b._hash:
                return False
            seen.add((id(a), id(b)))
            ka, kb = a._key(), b._key()
            if len(ka) != len(kb):
                return False
            for x, y in zip(ka, kb):
                # Nodes sit in a key or in a tuple in it (``_key_nodes``).
                if type(x) is tuple and type(y) is tuple:
                    if len(x) != len(y):
                        return False
                    pairs = zip(x, y)
                else:
                    pairs = ((x, y),)
                for u, v in pairs:
                    if isinstance(u, Expression) and isinstance(v, Expression):
                        pending.append((u, v))
                    elif not (u is v or u == v):
                        return False
        return True

    def __hash__(self):
        """The hash of the class name and the key, computed once per node and kept.

        Computed on first use, children first, from a stack of the nodes
        each key holds (``_key_nodes``), so no call recurses; a key's
        tuple hash then reads each child's kept hash.
        """
        pending = [self]
        while self._hash is None:
            node = pending[-1]
            if node._hash is not None:
                pending.pop()
                continue
            key = node._key()
            waiting = [n for n in _key_nodes(key) if n._hash is None]
            if waiting:
                pending += waiting
                continue
            node._hash = hash((type(node).__name__, key))
            pending.pop()
        return self._hash

    def walk(self) -> Iterator[tuple[tuple, "Expression"]]:
        """Yield (path, node) pairs in post-order, one per path from this node.

        A path is the tuple of child positions leading to the node, ``()``
        for this one; a subtree shared between parents is yielded once per
        path to it.  The pairs come from the plan (``_plan_paths``), with
        no recursion, so a tree of any depth can be walked.
        """
        plan = _plan_of(self)
        for path, k in _plan_paths(plan):
            yield path, plan[k].node

    def node_count(self) -> int:
        """The number of pairs ``walk`` yields, counted on the plan without listing them."""
        counts: list[int] = []
        for step in _plan_of(self):
            counts.append(1 + sum(counts[i] for i in step.kids))
        return counts[-1]

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


def _key_nodes(key: tuple) -> Iterator[Expression]:
    """The nodes a ``_key()`` holds: its items and the items of its tuples that are nodes."""
    for x in key:
        for u in x if type(x) is tuple else (x,):
            if isinstance(u, Expression):
                yield u


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
        self._init_base("matrix", manifold.dim, variables={name: manifold})

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
        if a.ndim != 2 or not a.size:
            raise ExpressionError(f"constant matrix must be 2-D and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise DomainError("constant matrix has non-finite entries")
        if definiteness is not Definiteness.NONE:
            _verify_definiteness(a, definiteness)
        self.values = a
        self.definiteness = definiteness
        self.name = name
        square = a.shape[0] == a.shape[1]
        self._init_base("matrix" if square else "param", a.shape[0] if square else None)

    def _key(self):
        return (self.definiteness, self.name) + _array_token(self.values)

    def __repr__(self):
        label = self.name or f"{self.values.shape[0]}x{self.values.shape[1]}"
        return f"ConstMatrix({label})"


def _verify_definiteness(a: np.ndarray, claim: Definiteness, *, refusal: str | None = None):
    """``DomainError`` unless ``a`` is ``claim``, saying ``refusal`` or that the claim fails."""
    if a.shape[0] != a.shape[1]:
        raise ExpressionError(f"{claim.value} claim requires a square matrix")
    try:
        lam = spd._eigvalsh(spd._symmetrized(a))
    except ShapeError:
        raise ExpressionError(f"{claim.value} claim requires a symmetric matrix") from None
    tol = spd._pd_tol(float(lam[-1]))
    # Written so that a NaN eigenvalue fails the claim.
    holds = float(lam[0]) > tol if claim is Definiteness.PD else float(lam[0]) >= -tol
    if not holds:
        raise DomainError(f"{refusal or claim.value + ' claim fails'}: lambda_min={lam[0]:.6g}")


class ConstScalar(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        v = _number(value, "constant scalar")
        if not np.isfinite(v):
            raise DomainError("constant scalar must be finite")
        self.value = v
        self._init_base("scalar", None)

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
        self._init_base("scalar", None, terms)

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
        self._init_base("scalar", None, factors)

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
        self._init_base("scalar", None, options)

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
        self._init_base(kind, result_dim if kind == "matrix" else None, self.args)

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
    argument.  It returns a tuple of one cotangent per expression argument,
    shaped as its value (entries with a false flag may be None), or a
    backward pass raises ``ExpressionError``.  Atoms without one are
    differentiated by finite differences when solved.
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
                if item._value is not None:  # a point of SPD, as a variable's value is
                    _verify_definiteness(item._value, Definiteness.PD, refusal=f"atom '{name}': "
                                         f"its constant argument is not positive definite")
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


_CONSTANT_NAMES = {Add: "constant sum", Mul: "constant product", MaxOf: "constant max"}


def _constant_value(node: Expression, children: tuple):
    """The value of ``node``, which holds no variable, from the kept values of
    its ``children``; ``DomainError`` naming the node unless it is finite.

    Each such node is evaluated once, quietly, where it is built, and every
    pass reads the value, read-only if an array.  None, and
    no check, under an atom whose evaluator is not a built-in one: a user
    evaluator may be impure, and is left to the passes that evaluate it
    anyway.  A constant part without a finite value leaves the objective
    undefined at every point, so no certificate, solve or fuzz trial could
    stand on it.
    """
    if isinstance(node, (ConstMatrix, ConstScalar)):  # finite by construction
        return node.values if isinstance(node, ConstMatrix) else node.value
    values = [c._value for c in children]
    if any(v is None for v in values):
        return None
    kids = tuple(range(len(values)))
    try:
        with np.errstate(all="ignore"):
            value = _node_value(_Step(node, kids, _slots(node, kids)), values, {},
                                spd._BuiltInOnly())
    except spd.Undecided:
        return None
    except (DomainError, ArithmeticError) as exc:
        raise DomainError(f"{_constant_name(node)} has no value at its constant "
                          f"arguments: {exc}") from None
    if not np.isfinite(value).all():
        raise DomainError(f"{_constant_name(node)} has no finite value at its constant arguments")
    if isinstance(value, np.ndarray):  # every pass reads it: none may write into it
        value.setflags(write=False)
    return value


def _constant_name(node: Expression) -> str:
    if isinstance(node, AtomApply):
        return f"atom '{node.sig.id}'"
    return _CONSTANT_NAMES[type(node)]


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


class _Step(NamedTuple):
    """A plan's step: a node, its children's steps and, for an atom, the
    evaluator's positions, each ``(child step, None)`` or ``(None, parameter)``."""

    node: Expression
    kids: tuple[int, ...]
    slots: tuple | None

    def args(self, values: list) -> list:
        return [p if i is None else values[i] for i, p in self.slots]


def _build_plan(root: Expression) -> tuple[_Step, ...]:
    """``root``'s distinct nodes, by identity, in post-order, each expanded once: one step each.

    The only reader of a node's children: every other pass over a tree
    loops over its plan.
    """
    steps: list[_Step] = []
    index: dict[int, int] = {}  # id(node) -> its step
    pending = [(root, False)]  # (node, whether its children have their steps)
    while pending:
        node, ready = pending.pop()
        if id(node) in index:
            continue
        if not ready:
            pending += [(node, True)] + [(c, False) for c in reversed(node._children)]
            continue
        kids = tuple(index[id(c)] for c in node._children)
        index[id(node)] = len(steps)
        steps.append(_Step(node, kids, _slots(node, kids)))
    return tuple(steps)


def _slots(node: Expression, kids: tuple[int, ...]) -> tuple | None:
    """A step's ``slots``: for an atom, its evaluator's positions, each ``(kid, None)``
    or ``(None, parameter)``; None for any other node."""
    if not isinstance(node, AtomApply):
        return None
    kid, param = iter(kids), iter(node.params)
    return tuple((next(kid), None) if k in EXPR_KINDS else (None, next(param))
                 for k in node.sig.positions)


def _plan_of(e: Expression) -> tuple[_Step, ...]:
    """``e``'s plan: built on first use and kept on the node."""
    if e._plan is None:
        e._plan = _build_plan(e)
    return e._plan


def _plan_paths(plan: tuple[_Step, ...]) -> Iterator[tuple[tuple, int]]:
    """``(path, step)`` for every path from the plan's root, in post-order.

    A node's path comes after its children's, which come left to right, so
    a step shared between parents comes once per path to it.
    """
    pending = [((), len(plan) - 1, False)]  # (path, step, whether its children came)
    while pending:
        path, k, ready = pending.pop()
        kids = plan[k].kids
        if ready or not kids:
            yield path, k
            continue
        pending.append((path, k, True))
        pending += [(path + (i,), kids[i], False) for i in reversed(range(len(kids)))]


def _forward(e: Expression, env: dict, rows: spd.Memo) -> list:
    """The values of ``e``'s plan under the row policy ``rows``, one per step, ``e``'s last.

    Values stay writable, but for the kept ones of nodes without a variable:
    a user atom's evaluator is called only at a point, on values no other
    point shares, so it may write into one.  The first pass of ``e`` that
    completes, under any policy, keeps on ``e`` the memo entries keyed by
    those kept arrays alone, and every later pass starts from them: each
    kept array is gated and decomposed once per tree, whether it is read
    at a point, over a stack or in a solve.
    """
    plan = _plan_of(e)
    if e._entries is not None:
        rows._carry(e._entries)
    values = []
    for step in plan:
        values.append(_node_value(step, values, env, rows))
    if e._entries is None:
        e._entries = rows._entries_of(step.node._value for step in plan
                                      if isinstance(step.node._value, np.ndarray))
    return values


def _node_value(step: _Step, values: list, env: dict, rows: spd.Memo):
    """The value of one step's node from the values before it: the one copy
    of the combinators' arithmetic, for floats and ``(n,)`` stacks alike."""
    e = step.node
    if e._value is not None:  # a node without a variable, under any policy
        return e._value
    if step.slots is not None:
        return rows.call(e.evaluator, step.args(values), e.sig.id)
    if isinstance(e, Variable):
        return rows.bind(e.name, e.dim, env)
    kids = [values[i] for i in step.kids]
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
    return rows.scalar(out)


def evaluate(e: Expression, env: dict):
    """Evaluate an expression numerically.

    ``env`` maps variable names to SPD arrays (an ``SPDMatrix`` lends its
    decomposition to the evaluation).  Returns a float for scalar
    expressions, a symmetric ndarray for matrix-valued ones.  Domain
    violations raise ``DomainError``.  A subtree shared between parents is
    evaluated once, and each input array is decomposed once.
    """
    return _forward(e, env, spd.Memo())[-1]


def _evaluate_stacked(e: Expression, env: dict, alive: np.ndarray):
    """``evaluate`` of a scalar expression at every row of stacked environments.

    ``env`` maps each variable name to an ``(n, d, d)`` stack; ``alive``
    marks the rows to evaluate.  Returns ``(values, alive)``: the ``(n,)``
    float values and the rows whose per-point ``evaluate`` would not raise
    ``DomainError``.  Every alive row's value equals per-point ``evaluate``
    bit for bit; other rows hold placeholders.  Raises ``spd.Undecided``
    when the tree holds an atom whose evaluator is not a built-in one,
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
            values = _forward(e, env, rows)[-1]
    except Exception as exc:  # Undecided, or what some row raises per point
        raise spd.Undecided(f"the stacked walk raised {exc!r}") from None
    if events:
        raise spd.Undecided("a floating-point event under numpy's error settings")
    return values, rows.alive


def differentiable(e: Expression) -> bool:
    """True when every atom in ``e`` has a registered vector-Jacobian product."""
    return all(step.node.vjp is not None for step in _plan_of(e) if step.slots is not None)


def _node_vjp(step: _Step, g, values: list, out, rows: spd.Memo) -> list | tuple:
    """Cotangents of a step's children from the cotangent ``g`` of its value ``out``.

    An atom's product runs through ``rows``, the memo of the forward pass,
    whose decompositions it may read (``spd.Memo.pull``).
    """
    e = step.node
    if isinstance(e, Add):
        return [w * g for w in e.weights]
    if isinstance(e, AtomApply):
        vjp = e.vjp
        if vjp is None:
            raise ExpressionError(f"atom '{e.sig.id}' has no vector-Jacobian product")
        wrt = tuple(bool(a.variables) for a in e.args)
        cotangents = rows.pull(vjp, g, out, wrt, step.args(values))
        if not spd._holds(spd._VJPS, vjp):  # spd's own are pinned by the gradient tests
            _check_cotangents(e, cotangents, [values[i] for i in step.kids], wrt)
        return cotangents
    child_vals = [values[i] for i in step.kids]
    if isinstance(e, Mul):
        return [
            g * math.prod(v for j, v in enumerate(child_vals) if j != i)
            for i in range(len(child_vals))
        ]
    if isinstance(e, MaxOf):
        best = child_vals.index(max(child_vals))
        return [g if i == best else None for i in range(len(child_vals))]
    return []


def _check_cotangents(e: AtomApply, cotangents, args: list, wrt: tuple) -> None:
    """``ExpressionError`` unless a product's return is a tuple or list of one cotangent
    per expression argument, each flagged one shaped as its argument's value."""
    where = f"the vector-Jacobian product of atom '{e.sig.id}'"
    if type(cotangents) not in (tuple, list) or len(cotangents) != len(args):
        raise ExpressionError(f"{where} must return a tuple of one cotangent per "
                              f"expression argument ({len(args)})")
    for i, (flag, cg, v) in enumerate(zip(wrt, cotangents, args)):
        if flag and (cg is None or np.shape(cg) != np.shape(v)):
            raise ExpressionError(f"{where} returned {None if cg is None else np.shape(cg)} "
                                  f"for argument {i}, whose value has shape {np.shape(v)}")


def value_and_grad(e: Expression, env: dict):
    """Value of a scalar expression and its Euclidean gradient in every variable.

    One forward pass over the expression's plan records each step's value,
    as ``evaluate`` does; one backward pass, the same plan in reverse,
    carries cotangents from the root to the leaves through each node's
    vector-Jacobian product, which reads the forward pass's decompositions
    instead of repeating them.  A subtree shared between parents is one
    step, so it is evaluated once and receives the sum of its parents'
    cotangents.  Returns ``(value, grads)`` with ``grads`` mapping each
    variable name to a symmetric array.
    """
    if e.kind != "scalar":
        raise ExpressionError("value_and_grad needs a scalar-valued expression")
    rows = spd.Memo()
    values = _forward(e, env, rows)
    return values[-1], _backward(e, values, rows)


def _backward(e: Expression, values: list, rows: spd.Memo) -> dict[str, np.ndarray]:
    """The Euclidean gradient of the scalar ``e`` in every variable, from a forward pass of it."""
    plan = _plan_of(e)
    grads = {name: np.zeros((m.dim, m.dim)) for name, m in e.variables.items()}
    cotangents = [None] * len(plan)
    cotangents[-1] = 1.0
    for k in reversed(range(len(plan))):
        g = cotangents[k]
        if g is None:
            continue
        node = plan[k].node
        if isinstance(node, Variable):
            grads[node.name] = grads[node.name] + g
            continue
        for i, cg in zip(plan[k].kids, _node_vjp(plan[k], g, values, values[k], rows)):
            if cg is None or not plan[i].node.variables:
                continue
            cotangents[i] = cg if cotangents[i] is None else cotangents[i] + cg
    return {name: spd._sym(g) for name, g in grads.items()}
