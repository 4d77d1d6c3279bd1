"""Shared helpers.  Oracles here are written against raw numpy only, so they
stay independent of the library paths they check."""

import os
from pathlib import Path

import numpy as np
import pytest

import geocert as gc

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


# Fixed counterexample matrix used across the oracle regression tests.
SIGMA_2 = np.array([
    [1.0, 0.5, -0.6],
    [0.5, 1.2, 0.4],
    [-0.6, 0.4, 1.0],
])
