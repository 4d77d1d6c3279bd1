"""Shared helpers.  Oracles here are written against raw numpy only, so they
stay independent of the library paths they check."""

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import geocert as gc
from geocert import expr
from geocert.dsl import _fmt_number
from geocert.errors import GeocertError

SRC = Path(__file__).resolve().parent.parent / "src"


def eigh_fn(a, fn):
    """Independent spectral function through numpy's eigh directly."""
    a = np.asarray(a, dtype=float)
    w, q = np.linalg.eigh((a + a.T) / 2.0)
    return (q * fn(w)) @ q.T


def eigh_sqrt(a):
    return eigh_fn(a, np.sqrt)


def eigh_pow(a, t):
    return eigh_fn(a, lambda w: w ** t)


def midpoint_oracle(a, b):
    """Geodesic midpoint from the closed form, assembled step by step."""
    ah = eigh_pow(a, 0.5)
    aih = eigh_pow(a, -0.5)
    return ah @ eigh_sqrt(aih @ np.asarray(b, float) @ aih) @ ah


def rel_err(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


def reference_walk(node, path=()):
    """(path, node) pairs in post-order, by recursion over each node's children.

    The walk ``Expression.walk`` was before trees were planned; it reads
    the children directly, so it is independent of the plan it checks.
    """
    for i, child in enumerate(node._children):
        yield from reference_walk(child, path + (i,))
    yield path, node


def reference_unparse(e):
    """DSL text of ``e``, by recursion over each node's operands.

    The renderer ``dsl.unparse`` was before it looped over the plan; it
    raises the ``GeocertError`` of the first node it cannot render.
    """
    if isinstance(e, gc.Variable):
        return e.name
    if isinstance(e, gc.ConstScalar):
        return _fmt_number(e.value)
    if isinstance(e, gc.ConstMatrix):
        if e.name:
            return e.name
        raise GeocertError("cannot render an unnamed matrix constant")
    if isinstance(e, gc.Add):
        parts = []
        for i, (w, t) in enumerate(zip(e.weights, e.terms)):
            body = reference_unparse(t)
            if isinstance(t, gc.Add):
                body = f"({body})"
            if w == 1.0 and len(e.terms) > 1:
                parts.append(body if i == 0 else f"+ {body}")
            elif w == -1.0:
                parts.append(f"-{body}" if i == 0 else f"- {body}")
            else:
                scaled = f"{_fmt_number(w)} * {body}"
                parts.append(scaled if i == 0 else f"+ {scaled}")
        return " ".join(parts)
    if isinstance(e, gc.MaxOf):
        return "max(" + ", ".join(reference_unparse(o) for o in e.options) + ")"
    if isinstance(e, gc.AtomApply):
        rendered = []
        args = iter(e.args)
        params = iter(zip(e.params, e.param_labels))
        for kind in e.sig.positions:
            if kind in expr.EXPR_KINDS:
                rendered.append(reference_unparse(next(args)))
            else:
                value, label = next(params)
                if label:
                    rendered.append(label)
                elif isinstance(value, (int, float)):
                    rendered.append(_fmt_number(value))
                else:
                    raise GeocertError(f"cannot render an unnamed array parameter of '{e.sig.id}'")
        return f"{e.sig.id}(" + ", ".join(rendered) + ")"
    if isinstance(e, gc.Mul):
        raise GeocertError("products have no DSL form")
    raise GeocertError(f"cannot render node {type(e).__name__}")


@pytest.fixture
def scope():
    return gc.VariableScope()


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    """``python -m geocert`` child processes import the package from ``src``,
    as this process does through the pytest ``pythonpath`` setting."""
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    yield
    patch.undo()


@pytest.fixture(autouse=True)
def _fresh_default_scope():
    gc.clear_declarations()
    yield
    gc.clear_declarations()


@pytest.fixture(autouse=True)
def _registry_unchanged():
    """A test that leaks or replaces an atom registration fails itself.

    The registry is put back afterwards, so later tests see the one they
    would have seen.
    """
    before = dict(expr._REGISTRY)
    yield
    after = dict(expr._REGISTRY)
    expr._REGISTRY.clear()
    expr._REGISTRY.update(before)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    assert not changed, f"the test changed the atom registry: {changed}"


@contextmanager
def registered_as(sig, evaluator, vjp=None):
    """``sig.id`` registered with ``evaluator`` and ``vjp`` inside the block.

    The registration the id had before, if any, is put back afterwards.
    """
    before = expr._REGISTRY.get(sig.id)
    gc.unregister_atom(sig.id)
    gc.register_atom(sig, evaluator, vjp)
    try:
        yield
    finally:
        gc.unregister_atom(sig.id)
        if before is not None:
            gc.register_atom(before.sig, before.evaluator, before.vjp)


def shift_signature(name):
    """The metadata of X -> X + I under ``name``: GConvex, Loewner-increasing, affine."""
    return gc.AtomSignature(name, (gc.ArgKind.MANIFOLD,), "matrix", gc.Sign.POSITIVE,
                            gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                            gc.ECurvature.AFFINE)


def shift(m):
    return m + np.eye(m.shape[0])


# Fixed counterexample matrix used across the oracle regression tests.
SIGMA_2 = np.array([
    [1.0, 0.5, -0.6],
    [0.5, 1.2, 0.4],
    [-0.6, 0.4, 1.0],
])
