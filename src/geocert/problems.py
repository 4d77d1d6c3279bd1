"""Problem file loading.

A problem file is YAML with this layout:

    variables:
      - {name: X, manifold: SPD, dim: 5}
    constants:
      A: [[4.0, 0.0], [0.0, 9.0]]        # inline matrix
      h: [1.0, 2.0]                       # vector
      B: {file: data.csv, format: csv}    # rows = lines, comma separated
    objective: "sdivergence(X, A) + sdivergence(X, I)"
    solver: {max_iter: 500, grad_tol: 1.0e-8}
    fuzz: {trials: 1000, seed: 7, inject: [{a: S1, b: S2}]}

Every identifier in the objective must resolve to a declared variable, a
constant, or a registered atom.  Matrix file paths resolve relative to the
problem file.  All floats are 64-bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .dsl import parse_dsl
from .errors import ExpressionError, GeocertError, ProblemFileError
from .expr import Expression, Manifold, SPD, Variable, _numeric


def _integral(value) -> int:
    """``value`` as an ``int``; unlike ``int``, a boolean or a fractional float is an error."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _real(value) -> float:
    """``value`` as a ``float``; unlike ``float``, a boolean (YAML ``true``, ``yes``) is an error."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is a boolean")
    return float(value)


# Each key a block may hold, with the cast its value gets.
_SOLVER_KEYS = {"max_iter": _integral, "grad_tol": _real}
_FUZZ_KEYS = {"trials": _integral, "seed": _integral, "tol": _real, "dim": _integral,
              "cond_max": _real, "t_samples": _integral,
              "inject": None}  # inject: checked where it is read


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser when PyYAML was built with it (the
    same documents, several times faster), reading ``1e-3`` and ``1.7e308``
    as numbers, as YAML 1.2 does.

    YAML 1.1 reads a float only with a dot and a signed exponent, and a
    constant takes no string, not even one that spells a number.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+\Z"),
    list("-+.0123456789"))


@dataclass
class LoadedProblem:
    path: str
    variables: dict[str, Variable]
    constants: dict[str, np.ndarray]
    objective_text: str
    expression: Expression
    manifold: Manifold
    solver: dict = field(default_factory=dict)
    fuzz: dict = field(default_factory=dict)
    injected: tuple = ()


def _load_matrix_entry(name, value, base: Path) -> np.ndarray:
    if isinstance(value, dict):
        if "file" not in value:
            raise ProblemFileError(f"constant '{name}': file entry needs a 'file' key")
        fmt = value.get("format", "csv")
        if fmt != "csv":
            raise ProblemFileError(f"constant '{name}': unsupported format '{fmt}'")
        target = base / str(value["file"])
        try:
            value = np.loadtxt(target, delimiter=",", ndmin=2, dtype=float)
        except OSError as exc:
            raise ProblemFileError(f"constant '{name}': cannot read {target}: {exc}") from exc
        except ValueError as exc:
            raise ProblemFileError(f"constant '{name}': {target} is not numeric: {exc}") from exc
    arr = _finite_array(f"constant '{name}'", value)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ProblemFileError(f"constant '{name}' must be a vector or 2-D matrix")
    return arr


def _finite_array(what: str, value) -> np.ndarray:
    """``value`` as a float array; ``ProblemFileError`` naming ``what`` unless
    it is numeric and finite.

    The conversion is ``expr._numeric``, the one of every constant, so a
    string is not a number here either, even one that spells a number.
    """
    try:
        arr = _numeric(value, what)
    except ExpressionError:
        raise ProblemFileError(f"{what} is not numeric") from None
    if not np.all(np.isfinite(arr)):
        raise ProblemFileError(f"{what} has non-finite entries")
    return arr


def load_problem(path) -> LoadedProblem:
    """Parse and validate a problem file; raises ProblemFileError on any defect."""
    p = Path(path)
    try:
        raw = yaml.load(p.read_text(), Loader=_Loader)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {p}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ProblemFileError(f"{p}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFileError(f"{p}: top level must be a mapping")
    unknown = set(raw) - {"variables", "constants", "objective", "solver", "fuzz"}
    if unknown:
        raise ProblemFileError(f"{p}: unknown top-level keys {sorted(unknown)}")

    var_entries = raw.get("variables")
    if not isinstance(var_entries, list) or not var_entries:
        raise ProblemFileError(f"{p}: 'variables' must be a non-empty list")
    variables: dict[str, Variable] = {}
    for entry in var_entries:
        if not isinstance(entry, dict) or "name" not in entry or "dim" not in entry:
            raise ProblemFileError(f"{p}: each variable needs 'name' and 'dim'")
        kind = entry.get("manifold", "SPD")
        if kind != "SPD":
            raise ProblemFileError(f"{p}: unsupported manifold '{kind}'")
        name = str(entry["name"])
        if name in variables:
            raise ProblemFileError(f"{p}: variable '{name}' declared twice")
        try:
            dim = _integral(entry["dim"])
        except (TypeError, ValueError, OverflowError):
            raise ProblemFileError(
                f"{p}: variable '{name}': dim must be an integer, got {entry['dim']!r}") from None
        try:
            variables[name] = Variable(name, SPD(dim))
        except GeocertError as exc:
            raise ProblemFileError(f"{p}: variable '{name}': {exc}") from exc

    constants: dict[str, np.ndarray] = {}
    const_entries = raw.get("constants") or {}
    if not isinstance(const_entries, dict):
        raise ProblemFileError(f"{p}: 'constants' must be a mapping")
    for name, value in const_entries.items():
        name = str(name)
        if name in variables:
            raise ProblemFileError(f"{p}: '{name}' is both a variable and a constant")
        constants[name] = _load_matrix_entry(name, value, p.parent)

    objective = raw.get("objective")
    if not isinstance(objective, str) or not objective.strip():
        raise ProblemFileError(f"{p}: exactly one non-empty 'objective' string is required")

    env: dict = dict(constants)
    env.update(variables)
    try:
        expression = parse_dsl(objective, env)
    except GeocertError as exc:
        raise ProblemFileError(f"{p}: objective: {exc}") from exc

    used = [variables[n] for n in expression.variables] or list(variables.values())
    manifolds = {v.manifold for v in used}
    if len(manifolds) > 1:
        raise ProblemFileError(f"{p}: all variables must share one manifold dimension")
    manifold = manifolds.pop()

    solver_block = _validated_block(raw.get("solver"), _SOLVER_KEYS, p, "solver")
    fuzz_block = _validated_block(raw.get("fuzz"), _FUZZ_KEYS, p, "fuzz")

    injected = []
    for pair in fuzz_block.pop("inject", []) or []:
        if not isinstance(pair, dict) or "a" not in pair or "b" not in pair:
            raise ProblemFileError(f"{p}: fuzz.inject entries need 'a' and 'b'")
        injected.append(tuple(_resolve_point(pair[k], constants, p, manifold.dim) for k in "ab"))

    return LoadedProblem(
        path=str(path),
        variables=variables,
        constants=constants,
        objective_text=objective.strip(),
        expression=expression,
        manifold=manifold,
        solver=solver_block,
        fuzz=fuzz_block,
        injected=tuple(injected),
    )


def _validated_block(block, casts: dict, p: Path, label: str) -> dict:
    """``block`` with each value cast as ``casts`` says; unknown keys are an error."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ProblemFileError(f"{p}: '{label}' must be a mapping")
    unknown = set(block) - set(casts)
    if unknown:
        raise ProblemFileError(f"{p}: unknown {label} keys {sorted(unknown)}")
    out = {}
    for key, value in block.items():
        cast = casts[key]
        try:
            out[key] = value if cast is None else cast(value)
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if cast is _integral else "a number"
            raise ProblemFileError(f"{p}: {label}.{key} must be {kind}, got {value!r}") from None
    return out


def _resolve_point(spec, constants: dict, p: Path, d: int) -> np.ndarray:
    """An injected point: a constant's name, or an inline matrix; either must be ``d`` by ``d``."""
    if isinstance(spec, str):
        if spec not in constants:
            raise ProblemFileError(f"{p}: fuzz.inject references unknown constant '{spec}'")
        spec = constants[spec]
    arr = _finite_array(f"{p}: fuzz.inject point", spec)
    if arr.shape != (d, d):
        raise ProblemFileError(f"{p}: fuzz.inject point must be a {d}x{d} matrix, "
                               f"got shape {arr.shape}")
    return arr
