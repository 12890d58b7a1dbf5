"""Scenario, model, and report files.

One JSON family serves all artifacts, discriminated by ``kind``:

* ``scenario`` - labeled operators (matrices, or unit rays expanded to
  rank-one projectors on load), contexts as label arrays with optional
  ``productSign``, optional ``state``;
* ``model``    - a phase-space model: points, weights, per-label value rows,
  registered observables, and the state;
* reports      - produced by the CLI; canonical bytes via :func:`report_bytes`
  so identical configurations yield identical files.

Complex numbers are two-element ``[re, im]`` arrays (plain reals accepted on
input); matrices are row-major nested arrays.  Parse failures raise
:class:`FormatError` naming the offending field.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from importlib import resources

import numpy as np

from .errors import ConfigError, FormatError
from .feasibility import (
    DICHOTOMIC,
    PROJECTOR,
    Context,
    Scenario,
    make_item,
    make_scenario,
)
from .hvmodel import HVModel, PhaseSpace
from .opcore import COARSE_TOL, ROUNDING
from .quantum import Density, Observable

# Versioned apart: a report change leaves saved files and fixtures at theirs.
REPORT_SCHEMA_VERSION = 4
FILE_SCHEMA_VERSION = 1

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "FILE_SCHEMA_VERSION",
    "matrix_to_json",
    "matrix_from_json",
    "load_scenario",
    "load_model",
    "load_state",
    "resolve_input_path",
    "bundled_names",
    "report_bytes",
]


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> list:
    return [[_complex_to_json(complex(v)) for v in row] for row in np.asarray(m)]


def _is_number(v) -> bool:
    """A JSON number that is finite as a float; ``true``/``false`` are not."""
    return (
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _numbers_from_json(data, n: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != n or not all(map(_is_number, data)):
        raise FormatError(f"{where}: expected {n} finite numbers")
    return np.array([float(v) for v in data])


def _entry_from_json(v, where: str) -> complex:
    if _is_number(v):
        return complex(v, 0.0)
    if isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        return complex(v[0], v[1])
    raise FormatError(
        f"{where}: matrix entry must be a finite number or [re, im], got {v!r}"
    )


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{where}: expected a nested array")
    n = len(data)
    if any(len(r) != n for r in data):
        raise FormatError(f"{where}: matrix must be square")
    return np.array(
        [[_entry_from_json(v, where) for v in row] for row in data],
        dtype=np.complex128,
    )


def _vector_from_json(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a nonempty array")
    return np.array([_entry_from_json(v, where) for v in data], dtype=np.complex128)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top level must be an object")
    return data


# ---------------------------------------------------------------------------
# Scenarios


def scenario_from_json(data: dict, where: str = "scenario") -> Scenario:
    dim = _require(data, "dim", where)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError(f"{where}: dim must be a positive integer")
    raw_items = _require(data, "items", where)
    if not isinstance(raw_items, dict) or not raw_items:
        raise FormatError(f"{where}: items must be a nonempty object")

    items = {}
    for label, spec in raw_items.items():
        iw = f"{where}.items[{label}]"
        if not isinstance(spec, dict):
            raise FormatError(f"{iw}: expected an object")
        kind = spec.get("kind", PROJECTOR)
        if kind not in (PROJECTOR, DICHOTOMIC):
            raise FormatError(f"{iw}: kind must be {PROJECTOR!r} or {DICHOTOMIC!r}")
        if "ray" in spec:
            v = _vector_from_json(spec["ray"], f"{iw}.ray")
            if len(v) != dim:
                raise FormatError(f"{iw}.ray: expected length {dim}")
            norm = np.linalg.norm(v)
            if norm < ROUNDING:
                raise FormatError(f"{iw}.ray: zero vector")
            v = v / norm
            mat = np.outer(v, v.conj())
        elif "matrix" in spec:
            mat = matrix_from_json(spec["matrix"], f"{iw}.matrix")
        else:
            raise FormatError(f"{iw}: needs a 'matrix' or a 'ray'")
        items[label] = make_item(label, kind, mat, cluster_gap=COARSE_TOL, tol=COARSE_TOL)

    raw_contexts = data.get("contexts", [])
    if not isinstance(raw_contexts, list):
        raise FormatError(f"{where}.contexts: expected an array")
    contexts = []
    for k, raw in enumerate(raw_contexts):
        cw = f"{where}.contexts[{k}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{cw}: expected an object")
        labels = _require(raw, "labels", cw)
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise FormatError(f"{cw}.labels: expected an array of strings")
        sign = raw.get("productSign")
        if sign is not None and (isinstance(sign, bool) or sign not in (-1, 1)):
            raise FormatError(f"{cw}.productSign: must be -1 or 1")
        contexts.append(Context(labels=tuple(labels), product_sign=sign))

    state = None
    if data.get("state") is not None:
        state = Density.from_matrix(
            matrix_from_json(data["state"], f"{where}.state"), tol=COARSE_TOL
        )
    name = data.get("name", os.path.splitext(os.path.basename(where))[0])
    scenario = make_scenario(dim, items, contexts, state=state, name=name)
    return scenario


def load_scenario(path: str) -> Scenario:
    data = _load_json(path)
    if data.get("kind", "scenario") != "scenario":
        raise FormatError(f"{path}: kind {data.get('kind')!r} is not a scenario")
    return scenario_from_json(data, where=path)


# ---------------------------------------------------------------------------
# Models


def model_from_json(data: dict, where: str = "model") -> HVModel:
    """Deserialize a phase-space model.

    Structural validation only: weights that fail the measure axioms or
    table values off the spectrum load fine and are the checkers' business.
    """
    dim = _require(data, "dim", where)
    state = Density.from_matrix(
        matrix_from_json(_require(data, "state", where), f"{where}.state"), tol=COARSE_TOL
    )
    raw_obs = _require(data, "observables", where)
    if not isinstance(raw_obs, dict) or not raw_obs:
        raise FormatError(f"{where}.observables: expected a nonempty object")
    observables = {}
    for label, mat in raw_obs.items():
        m = matrix_from_json(mat, f"{where}.observables[{label}]")
        if m.shape[0] != dim:
            raise FormatError(f"{where}.observables[{label}]: wrong dimension")
        observables[label] = Observable.from_matrix(m, tol=COARSE_TOL)

    points = _require(data, "points", where)
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise FormatError(f"{where}.points: expected an array of strings")
    dupes = sorted(p for p, n in Counter(points).items() if n > 1)
    if dupes:
        raise FormatError(f"{where}.points: duplicate point labels {dupes}")
    weights = _numbers_from_json(
        _require(data, "weights", where), len(points), f"{where}.weights"
    )
    values = _require(data, "values", where)
    if not isinstance(values, dict) or set(values) != set(observables):
        raise FormatError(f"{where}.values: must give one row per observable label")
    table = {
        label: _numbers_from_json(row, len(points), f"{where}.values[{label}]")
        for label, row in values.items()
    }

    space = PhaseSpace(points=tuple(points), weights=weights)
    return HVModel(space=space, registered=observables, values=table, state=state)


def load_model(path: str) -> HVModel:
    data = _load_json(path)
    if data.get("kind") != "model":
        raise FormatError(f"{path}: kind {data.get('kind')!r} is not a model")
    return model_from_json(data, where=path)


def load_state(path: str) -> Density:
    """A state file: an object whose ``matrix`` (or ``state``) field is a
    density matrix, validated at ``COARSE_TOL``."""
    data = _load_json(path)
    mat = data.get("matrix", data.get("state"))
    if mat is None:
        raise ConfigError(f"state file {path} needs a 'matrix' field")
    return Density.from_matrix(matrix_from_json(mat, path), tol=COARSE_TOL)


# ---------------------------------------------------------------------------
# Bundled fixtures and reports


def bundled_names() -> list[str]:
    root = resources.files("nogo_lab") / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith((".scenario", ".model")))


def resolve_input_path(name_or_path: str) -> str:
    """Existing filesystem path, or the bundled fixture with that name."""
    if os.path.exists(name_or_path):
        return name_or_path
    base = os.path.basename(name_or_path)
    candidates = [base] if "." in base else [base + ".scenario", base + ".model"]
    root = resources.files("nogo_lab") / "scenarios"
    for cand in candidates:
        member = root / cand
        if member.is_file():
            return str(member)
    raise FormatError(
        f"no such file {name_or_path!r} and no bundled fixture named "
        f"{' or '.join(candidates)} (bundled: {', '.join(bundled_names())})"
    )


def report_bytes(report: dict) -> bytes:
    """Canonical bytes for a structured report: sorted keys, two-space
    indent, trailing newline.  Identical reports hash identically.  A
    non-finite number raises ``ValueError``: strict JSON has none."""
    return (json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
