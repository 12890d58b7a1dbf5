"""Scenario, model, and report files.

One JSON family serves all artifacts, discriminated by ``kind``:

* ``scenario`` - labeled operators (matrices, or unit rays expanded to
  rank-one projectors on load), contexts as label arrays with optional
  ``productSign``, optional ``state``;
* ``model``    - a phase-space model: points, weights, per-label value rows,
  registered observables, and the state;
* reports      - produced by the CLI; canonical bytes via :func:`report_bytes`
  so identical configurations yield identical files.

A loader checks the whole file's structure in pure Python first (a present
``schemaVersion`` is 1; types, finiteness, shapes, every matrix's size
against ``dim``, label sets, a context's labels against the items, duplicate
points, ``productSign``, a scenario's ``name``), and only then loads numpy
and its layer to build the operators and run their numeric tests.  So
malformed input is rejected without numpy, and a structural fault anywhere
in a file is reported before a numeric one.

Complex numbers are two-element ``[re, im]`` arrays (plain reals accepted on
input); matrices are row-major nested arrays.  Parse failures raise
:class:`FormatError` naming the offending field.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING

from .check import COARSE_TOL, ROUNDING
from .errors import ConfigError, FormatError, NotProjector

if TYPE_CHECKING:
    import numpy as np

    from .feasibility import Scenario
    from .hvmodel import HVModel
    from .quantum import Density

# Versioned apart: a report change leaves saved files and fixtures at theirs.
REPORT_SCHEMA_VERSION = 4
FILE_SCHEMA_VERSION = 1
_MAX = sys.float_info.max  # a file's numbers must be finite doubles

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "FILE_SCHEMA_VERSION",
    "matrix_from_json",
    "load_scenario",
    "load_model",
    "load_state",
    "resolve_input_path",
    "bundled_names",
    "report_bytes",
]


def _is_number(v) -> bool:
    """A JSON number that is finite as a float; ``true``/``false`` are not."""
    return isinstance(v, (int, float)) and v.__class__ is not bool and -_MAX <= v <= _MAX


def _numbers_from_json(data, n: int, where: str) -> list[float]:
    if not isinstance(data, list) or len(data) != n or not all(map(_is_number, data)):
        raise FormatError(f"{where}: expected {n} finite numbers")
    return [float(v) for v in data]


def _entry_from_json(v, where: str) -> complex:
    re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
    if _is_number(re) and _is_number(im):
        return complex(re, im)
    raise FormatError(
        f"{where}: matrix entry must be a finite number or [re, im], got {v!r}"
    )


def _rows_from_json(data, where: str, dim: int | None = None) -> list[list[complex]]:
    """A square matrix's entries (and size, given ``dim``), checked in pure Python."""
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FormatError(f"{where}: expected a nested array")
    n = len(data)
    if any(len(r) != n for r in data):
        raise FormatError(f"{where}: matrix must be square")
    rows = [[_entry_from_json(v, where) for v in row] for row in data]
    if dim is not None and n != dim:
        raise FormatError(f"{where}: wrong dimension")
    return rows


def _vector_from_json(data, where: str) -> list[complex]:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a nonempty array")
    return [_entry_from_json(v, where) for v in data]


def _array(entries, dtype=complex) -> np.ndarray:
    import numpy as np

    return np.array(entries, dtype=dtype)


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    return _array(_rows_from_json(data, where))


def _numeric_phase():
    """No numpy overflow warnings: each numeric test of a loader fails an inf or NaN."""
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _dim_from_json(data: dict, where: str) -> int:
    dim = _require(data, "dim", where)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError(f"{where}: dim must be a positive integer")
    return dim


def _require_schema(data: dict, where: str) -> None:
    """A file's ``schemaVersion`` is optional, but when present it must be the
    integer :data:`FILE_SCHEMA_VERSION`: a file of another schema is not read
    as this one."""
    version = data.get("schemaVersion", FILE_SCHEMA_VERSION)
    if version.__class__ is not int or version != FILE_SCHEMA_VERSION:
        raise FormatError(f"{where}.schemaVersion: must be {FILE_SCHEMA_VERSION}, got {version!r}")


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
    _require_schema(data, where)
    dim = _dim_from_json(data, where)
    raw_items = _require(data, "items", where)
    if not isinstance(raw_items, dict) or not raw_items:
        raise FormatError(f"{where}: items must be a nonempty object")

    specs = {}  # label -> (kind, is a ray, entries)
    for label, spec in raw_items.items():
        iw = f"{where}.items[{label}]"
        if not isinstance(spec, dict):
            raise FormatError(f"{iw}: expected an object")
        kind = spec.get("kind", "projector")
        if kind not in ("projector", "dichotomic"):
            raise FormatError(f"{iw}: kind must be 'projector' or 'dichotomic'")
        if "ray" in spec:
            entries = _vector_from_json(spec["ray"], f"{iw}.ray")
            if len(entries) != dim:
                raise FormatError(f"{iw}.ray: expected length {dim}")
        elif "matrix" in spec:
            entries = _rows_from_json(spec["matrix"], f"{iw}.matrix", dim)
        else:
            raise FormatError(f"{iw}: needs a 'matrix' or a 'ray'")
        specs[label] = (kind, "ray" in spec, entries)

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
        unknown = [l for l in labels if l not in specs]
        if unknown:
            raise FormatError(f"{cw}.labels: unknown label {unknown[0]!r}")
        sign = raw.get("productSign")
        if sign is not None and (isinstance(sign, bool) or sign not in (-1, 1)):
            raise FormatError(f"{cw}.productSign: must be -1 or 1")
        contexts.append((tuple(labels), sign))
    state = data.get("state")
    state = None if state is None else _rows_from_json(state, f"{where}.state", dim)
    name = data.get("name", os.path.splitext(os.path.basename(where))[0])
    if not isinstance(name, str):
        raise FormatError(f"{where}.name: expected a string")

    from .feasibility import Context, make_item, make_scenario
    from .quantum import Density, Projector

    with _numeric_phase():
        items = {}
        for label, (kind, is_ray, entries) in specs.items():
            mat = _array(entries)
            if is_ray:
                try:
                    mat = Projector.from_ray(mat, tol=ROUNDING).mat
                except NotProjector:
                    raise FormatError(f"{where}.items[{label}].ray: zero vector") from None
            items[label] = make_item(label, kind, mat, tol=COARSE_TOL)
        if state is not None:
            state = Density.from_matrix(_array(state), tol=COARSE_TOL)
        contexts = [Context(labels=labels, product_sign=sign) for labels, sign in contexts]
        return make_scenario(dim, items, contexts, state=state, name=name)


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
    The state is stored as a scenario's is (:func:`~nogo_lab.quantum.normalize_state`).
    """
    _require_schema(data, where)
    dim = _dim_from_json(data, where)
    state = _rows_from_json(_require(data, "state", where), f"{where}.state", dim)
    raw_obs = _require(data, "observables", where)
    if not isinstance(raw_obs, dict) or not raw_obs:
        raise FormatError(f"{where}.observables: expected a nonempty object")
    observables = {}
    for label, mat in raw_obs.items():
        observables[label] = _rows_from_json(mat, f"{where}.observables[{label}]", dim)

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

    from .hvmodel import HVModel, PhaseSpace
    from .quantum import Density, Observable, normalize_state

    with _numeric_phase():
        state = normalize_state(Density.from_matrix(_array(state), tol=COARSE_TOL))
        for label, rows in observables.items():
            observables[label] = Observable.from_matrix(_array(rows), tol=COARSE_TOL)
    space = PhaseSpace(points=tuple(points), weights=_array(weights, float))
    table = {label: _array(row, float) for label, row in table.items()}
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
    mat = matrix_from_json(mat, path)
    from .quantum import Density

    with _numeric_phase():
        return Density.from_matrix(mat, tol=COARSE_TOL)


# ---------------------------------------------------------------------------
# Bundled fixtures and reports


def bundled_names() -> list[str]:
    from importlib import resources

    root = resources.files("nogo_lab") / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith((".scenario", ".model")))


def resolve_input_path(name_or_path: str) -> str:
    """Existing filesystem path, or the bundled fixture with that name."""
    if os.path.exists(name_or_path):
        return name_or_path
    from importlib import resources

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
