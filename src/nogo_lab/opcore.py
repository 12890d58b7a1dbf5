"""Dense complex operator algebra.

The carrier for every operator in the lab is a square ``complex128`` numpy
array, validated by :func:`as_operator`.  On top of that this module provides
the spectral decomposition of Hermitian matrices (numpy ``eigh``, with
eigenvalue clustering for degenerate spectra), trace utilities, commutator
norms, a top eigenpair and the rank-one state on its vector (witness and
separator of the :mod:`nogo_lab.nogo` chains), and the random-operator
samplers that the property suites and batch commands share.

Norms are operator 2-norms (largest singular value; max |eigenvalue| for
Hermitian matrices), written ``opnorm`` throughout.  Every residual in the
library is judged against ``tol`` (``--tol``), ``cluster_gap``
(``--cluster-gap``), an entry of the tolerance table below, or
``floored(tol, entry)``; a chain step derives its bound from the bounds of
the steps it follows (:mod:`nogo_lab.nogo`).  A guard test, one that only
passes or raises (a projector, state or Hermitian test), reads its norm
through :func:`guard_opnorm`, which skips the SVD wherever the Frobenius
norm already decides.

``dag``, ``opnorm``, ``guard_opnorm``, ``trace``, ``top_eigenpair`` and
``top_eigenprojector`` also take stacks ``(..., d, d)``, with the same
bits as a loop over the matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# Tolerance table: one reason per bound.
TOL = 1e-9  # default --tol: identities among validated operators, in operator norm
CLUSTER_GAP = 1e-8  # default --cluster-gap: eigenvalues closer than this are one level
ROUNDING = 1e-12  # double-precision rounding of a short product of unit-norm matrices
BASIS_TOL = 1e-10  # a projector or eigenbasis computed by one QR or eigh factorization
BUILT_TOL = 1e-8  # matrices built in floating point: sampled pairs, products of scenario operators
COARSE_TOL = 1e-7  # matrices read from files, and states conditioned by dividing by tr[DB]
SEPARATION_TOL = 1e-6  # shortfall allowed when a separating projector must realize a full norm
NULL_EVENT = 1e-9  # tr[DB] or mu(b) at or below this: a null event, and conditioning is refused
PIVOT_TOL = 1e-9  # float simplex proposal: entries and reduced costs at or below this are 0


__all__ = [
    "TOL",
    "CLUSTER_GAP",
    "ROUNDING",
    "BASIS_TOL",
    "BUILT_TOL",
    "COARSE_TOL",
    "SEPARATION_TOL",
    "NULL_EVENT",
    "PIVOT_TOL",
    "floored",
    "as_operator",
    "dag",
    "opnorm",
    "guard_opnorm",
    "trace",
    "identity",
    "zero",
    "require_same_dim",
    "SpectralResolution",
    "spectral_decompose",
    "trace_inner",
    "top_eigenpair",
    "top_eigenprojector",
    "commutator_norm",
    "complex_gaussian",
    "random_density_matrix",
    "random_projector_matrix",
    "random_unitary",
]


def floored(tol: float, floor: float) -> float:
    """``tol``, but never finer than ``floor``: the bound for a check whose
    data are only known to ``floor``, however small ``--tol`` is set."""
    return max(tol, floor)


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
    """Operator 2-norm (largest singular value; 0 when empty): a float for a
    matrix, an array for a stack ``(..., r, c)``."""
    norms = np.linalg.svd(m, compute_uv=False)[..., 0] if m.size else np.zeros(m.shape[:-2])
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
    exact = ~(fro + lost <= tol / 2)  # NaN takes the exact path
    if m.ndim == 2:
        return opnorm(m) if exact else float(fro)
    if exact.any():
        fro[exact] = opnorm(m[exact])
    return fro


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


@dataclass(frozen=True)
class SpectralResolution:
    """Eigenvalue / eigenprojector terms of a Hermitian matrix.

    ``terms`` is ordered by decreasing eigenvalue, one term per clustered
    (possibly degenerate) level.  The projectors are pairwise orthogonal and
    sum to the identity; ``sum(lam * P)`` rebuilds the source matrix.
    """

    terms: tuple[tuple[float, np.ndarray], ...]
    source_dim: int

    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.terms)

    def reconstruct(self) -> np.ndarray:
        out = zero(self.source_dim)
        for lam, p in self.terms:
            out += lam * p
        return out

    def projector_for(self, values, gap: float = CLUSTER_GAP) -> np.ndarray:
        """Sum of eigenprojectors for the levels matching ``values``.

        Raises :class:`UnknownEigenvalue` if a requested value is farther
        than ``gap`` from every level.
        """
        from .errors import UnknownEigenvalue

        out = zero(self.source_dim)
        for v in values:
            dists = [abs(complex(v) - lam) for lam, _ in self.terms]
            k = int(np.argmin(dists))
            if dists[k] > gap:
                raise UnknownEigenvalue(
                    f"value {v!r} is not an eigenvalue (closest level "
                    f"{self.terms[k][0]!r}, distance {dists[k]:.3e})"
                )
            out += self.terms[k][1]
        return out


def spectral_decompose(
    m, cluster_gap: float = CLUSTER_GAP, tol: float = TOL
) -> SpectralResolution:
    """Spectral resolution of a Hermitian matrix.

    Eigenvalues whose mutual distance is below ``cluster_gap`` (transitively)
    are merged into a single level whose projector is the sum of the member
    eigenprojectors (its eigenvalue is the member mean).

    Raises :class:`NotHermitian` when ``m`` fails the Hermitian test at
    ``tol`` or the decomposition fails its post-conditions.
    """
    m = as_operator(m)
    defect = guard_opnorm(m - dag(m), tol)
    if defect > tol:
        raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e} > tol {tol:.1e})")

    eigs, z = np.linalg.eigh((m + dag(m)) / 2)
    # One residual e = opnorm(Z^H Z - I) covers the projector properties:
    # P_i P_j = Z_i (Z_i^H Z_j) Z_j^H with Z_i^H Z_j a block of Z^H Z - I, so
    # opnorm(P_i P_j) <= e (1 + e) for i != j; and sum P_i - I = Z Z^H - I,
    # whose norm equals e for square Z.
    unitarity = guard_opnorm(dag(z) @ z - identity(m.shape[0]), tol)
    if unitarity > tol:
        raise NotHermitian(f"eigenbasis is not orthonormal (residual {unitarity:.3e})")

    terms = []
    spread = 0.0
    # eigh sorts ascending, so each level is a run of consecutive gaps below cluster_gap.
    breaks = np.flatnonzero(np.diff(eigs) >= cluster_gap) + 1
    for idx in np.split(np.arange(len(eigs)), breaks):
        cols = z[:, idx]
        lam = float(eigs[idx].mean())
        spread = max(spread, float(np.abs(eigs[idx] - lam).max()))
        terms.append((lam, cols @ dag(cols)))

    res = SpectralResolution(terms=tuple(reversed(terms)), source_dim=m.shape[0])
    # Clustering may move each merged eigenvalue by up to the cluster spread.
    residual = guard_opnorm(res.reconstruct() - m, tol + spread)
    if residual > tol + spread:
        raise NotHermitian(
            f"spectral reconstruction residual {residual:.3e} exceeds {tol + spread:.3e}"
        )
    return res


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
