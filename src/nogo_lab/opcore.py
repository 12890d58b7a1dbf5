"""Dense complex operator algebra.

The carrier for every operator in the lab is a square ``complex128`` numpy
array, validated by :func:`as_operator`.  On top of that this module provides
trace utilities, commutator norms, a top eigenpair and the rank-one state on
its vector (witness and separator of the :mod:`nogo_lab.nogo` chains), and
the random-operator samplers that the property suites and batch commands
share.  The spectral decomposition of an observable, and its grouping into
levels at a cluster gap, live in :mod:`nogo_lab.quantum`.

Norms are operator 2-norms (largest singular value; max |eigenvalue| for
Hermitian matrices), written ``opnorm`` throughout.  Every residual in the
library is judged against ``tol`` (``--tol``), ``cluster_gap``
(``--cluster-gap``), an entry of the tolerance table in
:mod:`nogo_lab.check`, or ``floored(tol, entry)`` from there; a
chain step derives its bound from the bounds of the steps it follows
(:mod:`nogo_lab.nogo`).  A guard test, one that only
passes or raises (a projector, state or Hermitian test), reads its norm
through :func:`guard_opnorm`, which skips the SVD wherever the Frobenius
norm already decides.

``dag``, ``opnorm``, ``guard_opnorm``, ``trace``, ``top_eigenpair`` and
``top_eigenprojector`` also take stacks ``(..., d, d)``, with the same
bits as a loop over the matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "as_operator",
    "dag",
    "opnorm",
    "guard_opnorm",
    "opnorm_exceeds",
    "trace",
    "identity",
    "zero",
    "require_same_dim",
    "trace_inner",
    "top_eigenpair",
    "top_eigenprojector",
    "commutator_norm",
    "complex_gaussian",
    "random_density_matrix",
    "random_projector_matrix",
    "random_unitary",
]


def as_operator(m) -> np.ndarray:
    """Validate and return ``m`` as a square, finite complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"operator must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("operator must have dimension >= 1")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("operator entries must be finite")
    return a


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(m.conj(), -1, -2)


def opnorm(m: np.ndarray):
    """Operator 2-norm (largest singular value; 0 when empty; ``inf``, with
    no SVD, for a matrix with a non-finite entry): a float for a matrix, an
    array for a stack ``(..., r, c)``."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not m.size:
        norms = np.zeros(m.shape[:-2])
    elif finite.all():
        norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    else:
        norms = np.full(m.shape[:-2], np.inf)
        if finite.any():
            norms[finite] = np.linalg.svd(m[finite], compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def guard_opnorm(m: np.ndarray, tol: float):
    """opnorm as far as a test ``opnorm > t``, at any t >= ``tol``, needs it:
    exact where the Frobenius norm exceeds ``tol``/2, else the Frobenius
    norm, an upper bound (opnorm <= ||X||_F; Golub & Van Loan, *Matrix
    Computations*, 2.3) that passes the test with a factor 2 to spare for
    rounding.  So the verdict is the exact one, and a failing value is
    always exact.  A float for a matrix, an array for a stack."""
    fro = np.linalg.norm(m, axis=(-2, -1))
    # Squares below the least normal double drop out of the sum, which loses
    # at most this much of the norm.
    lost = math.sqrt(2 * m.shape[-2] * m.shape[-1] * np.finfo(np.float64).tiny)
    exact = ~(fro + lost <= tol / 2)  # NaN or inf takes the exact path (inf for a non-finite entry)
    if m.ndim == 2:
        return opnorm(m) if exact else float(fro)
    if exact.any():
        fro[exact] = opnorm(m[exact])
    return fro


def opnorm_exceeds(m: np.ndarray, bound: float) -> bool:
    """The test opnorm(X) > ``bound`` on a square matrix X, with an SVD only
    where no Frobenius bound decides it: opnorm(X) >= ||X||_F/sqrt(d), so
    that lower bound past ``bound`` by a factor 2 (for rounding) says yes;
    otherwise :func:`guard_opnorm` decides."""
    return bool(np.linalg.norm(m) / math.sqrt(m.shape[-1]) > 2 * bound
                or guard_opnorm(m, bound) > bound)


def trace(m: np.ndarray):
    """Trace (of each matrix of a stack)."""
    return np.trace(m, axis1=-2, axis2=-1)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=np.complex128)


def require_same_dim(*mats: np.ndarray) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatch(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def trace_inner(d, b) -> complex:
    """tr[D B]."""
    d = as_operator(d)
    b = as_operator(b)
    require_same_dim(d, b)
    return complex(np.trace(d @ b))


def top_eigenpair(h: np.ndarray) -> tuple:
    """A largest-modulus eigenvalue lam of the Hermitian part H of ``h``
    and a unit eigenvector v for it, from one ``eigh`` (of each matrix of a
    stack: lam ``(...)``, v ``(..., d)``); |lam| = opnorm(H)."""
    vals, vecs = np.linalg.eigh((h + dag(h)) / 2)
    top = np.abs(vals).argmax(axis=-1)[..., None]
    lam = np.take_along_axis(vals, top, axis=-1)[..., 0]
    v = np.take_along_axis(vecs, top[..., None], axis=-1)[..., 0]
    # One 1-D norm per vector: a norm over the stack's last axis rounds differently.
    norms = [np.linalg.norm(x) for x in v.reshape(-1, v.shape[-1])]
    return lam, v / np.reshape(norms, v.shape[:-1] + (1,))


def top_eigenprojector(h: np.ndarray) -> np.ndarray:
    """Rank-one projector P = vv† on the :func:`top_eigenpair` vector of
    ``h`` (of each matrix of a stack): for Hermitian H, a state with
    |tr[P H]| = opnorm(H), the constructive converse of the fact that only
    the zero operator has vanishing trace against every state."""
    v = top_eigenpair(h)[1]
    return v[..., :, None] * v.conj()[..., None, :]


def commutator_norm(a, b) -> float:
    """opnorm(AB - BA); zero (within tolerance) iff A and B commute."""
    a = as_operator(a)
    b = as_operator(b)
    require_same_dim(a, b)
    return opnorm(a @ b - b @ a)


# ---------------------------------------------------------------------------
# Random operator samplers (Ginibre-based; full support, for property tests
# and seeded batch commands).


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """G G^dag / tr[G G^dag] with G i.i.d. complex standard Gaussian."""
    g = complex_gaussian(rng, dim, dim)
    m = g @ dag(g)
    return m / np.trace(m).real


def random_projector_matrix(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """Rank-``rank`` projector from orthonormalized Gaussian columns."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must be in [0, {dim}], got {rank}")
    if rank == 0:
        return zero(dim)
    g = complex_gaussian(rng, dim, rank)
    q, _ = np.linalg.qr(g)
    return q @ dag(q)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix, phases fixed)."""
    g = complex_gaussian(rng, dim, dim)
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
