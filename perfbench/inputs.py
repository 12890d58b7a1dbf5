"""Seeded input files for the benchmark, written with numpy alone.

Nothing here imports the package under test: scenario, state and model files
are written straight to its JSON format, so a bug in the package's own
writers or model construction cannot leak into the inputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)
SINGLET = np.array([0, 1, -1, 0], dtype=np.complex128) / math.sqrt(2)


def matrix_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def side1(deg: float) -> np.ndarray:
    """cos(t) sz + sin(t) sx on qubit 1 (the package's calibration)."""
    t = math.radians(deg)
    return np.kron(math.cos(t) * SZ + math.sin(t) * SX, I2)


def side2(deg: float) -> np.ndarray:
    """-(sin(t) sz + cos(t) sx) on qubit 2, so E(t1, t2) = sin(t1 + t2) on the singlet."""
    t = math.radians(deg)
    return np.kron(I2, -(math.sin(t) * SZ + math.cos(t) * SX))


def werner(visibility: float) -> np.ndarray:
    return visibility * np.outer(SINGLET, SINGLET.conj()) + (1 - visibility) * np.eye(4) / 4


def scaling_angles(n: int, m: int) -> tuple[list[float], list[float]]:
    return [180 * i / n + 3 for i in range(n)], [180 * j / m + 47 for j in range(m)]


def scaling_scenario(path: str, n: int, m: int, rng: np.random.Generator) -> str:
    """n dichotomic settings on side 1, m on side 2, all n*m two-party contexts.

    The generator only draws label names and the order of contexts and of
    labels inside each context; the verdict must not depend on either.
    """
    a, b = scaling_angles(n, m)
    names = [f"s{k:03d}" for k in rng.permutation(1000)[: n + m]]
    items = {names[i]: {"kind": "dichotomic", "matrix": matrix_json(side1(t))} for i, t in enumerate(a)}
    items.update(
        {names[n + j]: {"kind": "dichotomic", "matrix": matrix_json(side2(t))} for j, t in enumerate(b)}
    )
    contexts = []
    for k in rng.permutation(n * m):
        pair = [names[k // m], names[n + k % m]]
        if rng.integers(2):
            pair.reverse()
        contexts.append({"labels": pair})
    return write_json(
        path, {"kind": "scenario", "name": f"scaling-{n}x{m}", "dim": 4, "items": items, "contexts": contexts}
    )


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    d = g @ g.conj().T
    return d / np.trace(d).real


def commuting_model(dim: int, rng: np.random.Generator) -> dict:
    """A model that passes every axiom by construction.

    Points are the columns of a Haar unitary U, weights are diag(U^+ D U) for a
    random density D, and each observable U diag(v) U^+ has value row v.  The
    values come from two or three well-separated levels, so eigenvalues are
    degenerate; the first observable is a projector.
    """
    u = haar_unitary(rng, dim)
    d = random_density(rng, dim)
    weights = np.real(np.einsum("ij,jk,ki->i", u.conj().T, d, u))
    observables, values = {}, {}
    for k in range(3):
        levels = [0.0, 1.0] if k == 0 else [-1.0, 0.5, 2.0][: 2 + k % 2]
        v = rng.choice(levels, size=dim)
        observables[f"O{k}"] = matrix_json(u @ np.diag(v) @ u.conj().T)
        values[f"O{k}"] = [float(x) for x in v]
    return {
        "kind": "model",
        "dim": dim,
        "state": matrix_json(d),
        "observables": observables,
        "points": [f"w{i}" for i in range(dim)],
        "weights": [float(w) for w in weights],
        "values": values,
    }


def write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def crash_models(directory: str, rng: np.random.Generator) -> dict[str, str]:
    """Malformed models that must exit 2 but crash with a traceback today.

    Each breaks one field of an otherwise valid model: a string weight, a
    null value-row entry and a state entry that overflows to infinity
    (``1e999`` is valid JSON and parses as ``inf``).
    """
    base = commuting_model(4, rng)
    paths = {}

    bad = json.loads(json.dumps(base))
    bad["weights"][int(rng.integers(4))] = "a"
    paths["weights-string"] = write_json(os.path.join(directory, "weights-string.model"), bad)

    bad = json.loads(json.dumps(base))
    bad["values"]["O0"][int(rng.integers(4))] = None
    paths["value-row-null"] = write_json(os.path.join(directory, "value-row-null.model"), bad)

    bad = json.loads(json.dumps(base))
    bad["state"][0][0] = [-7.5, 0.0]
    text = json.dumps(bad).replace("[-7.5, 0.0]", "[1e999, 0.0]", 1)
    paths["state-non-finite"] = write_text(os.path.join(directory, "state-non-finite.model"), text)
    return paths
