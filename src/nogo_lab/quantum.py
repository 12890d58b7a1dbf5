"""Quantum probability layer.

Validated operator roles (projector, density, observable), with the
defects their tests judge computed for single matrices or whole stacks, the
conditioning step D -> (tr[DB], BDB/tr[DB]) that every caller shares, the
conditional probability tr[DBAB]/tr[DB], and the projector order AB = BA = A.

Spectra are finite here, so "Borel set" degenerates to a finite set of
eigenvalues: selections are plain iterables of floats.  An observable keeps
its one ``eigh``; :func:`_levels` alone groups the eigenvalues into levels,
at the cluster gap its caller passes, and a selection adds each level it
names once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import opcore
from .errors import ConditioningOnNull, NotDensity, NotHermitian, NotProjector, UnknownEigenvalue
from .opcore import (
    CLUSTER_GAP,
    TOL,
    as_operator,
    dag,
    identity,
    require_same_dim,
)

__all__ = [
    "projector_defects",
    "projector_rank",
    "density_defects",
    "require_density",
    "Projector",
    "Density",
    "Observable",
    "spectral_projector",
    "condition",
    "conditional_probability",
    "luders_density",
    "leq",
]


def projector_defects(m: np.ndarray, tol: float = TOL) -> tuple:
    """Hermitian and idempotence defects and real trace of a matrix, or of
    each matrix of a stack: the numbers :meth:`Projector.from_matrix` judges
    at ``tol``.  The defects are :func:`~nogo_lab.opcore.guard_opnorm`
    values, so they give the exact verdict at ``tol`` or any coarser bound."""
    guard = opcore.guard_opnorm
    return guard(m - dag(m), tol), guard(m @ m - m, tol), opcore.trace(m).real


def projector_rank(dim: int, herm: float, idem: float, tr: float, tol: float = TOL) -> int:
    """Rank of a matrix with these :func:`projector_defects`, or
    :class:`NotProjector` when they fail the projector test at ``tol``."""
    if herm > tol:
        raise NotProjector(f"not Hermitian (defect {herm:.3e})")
    if idem > tol:
        raise NotProjector(f"not idempotent (defect {idem:.3e})")
    rank = int(round(tr))
    if abs(tr - rank) > tol * dim:
        raise NotProjector(f"trace {tr} is not within tolerance of an integer")
    return rank


def density_defects(m: np.ndarray, tol: float = TOL) -> tuple:
    """Hermitian defect, least eigenvalue and real trace of a matrix, or of
    each matrix of a stack: the numbers :meth:`Density.from_matrix` judges
    at ``tol``, the defect a guard value as in :func:`projector_defects`.
    The least eigenvalue of H = (m + m†)/2 is a guard value too: ``eigvalsh``'s
    unless every H + (tol/2)I has a Cholesky factor R and lost = (d+1)²·eps·‖R‖_F²,
    covering R's rounding (Higham, *Accuracy and Stability*, Thm 10.3) and
    eigvalsh's, is at most tol/4; then it is the lower bound -tol/2 - lost."""
    h, d = (m + dag(m)) / 2, m.shape[-1]
    try:
        r = np.linalg.cholesky(h + tol / 2 * identity(d))
        lost = (d + 1) ** 2 * np.finfo(np.float64).eps * np.linalg.norm(r, axis=(-2, -1)) ** 2
    except np.linalg.LinAlgError:  # an eigenvalue at or below -tol/2
        lost = np.inf
    least = -tol / 2 - lost if np.all(lost <= tol / 4) else np.linalg.eigvalsh(h).min(axis=-1)
    return opcore.guard_opnorm(m - dag(m), tol), least, opcore.trace(m).real


def require_density(dim: int, herm: float, least: float, tr: float, tol: float = TOL) -> None:
    """:class:`NotDensity` unless these :func:`density_defects` pass the
    state test at ``tol``."""
    if herm > tol:
        raise NotDensity(f"not Hermitian (defect {herm:.3e})")
    if least < -tol:
        raise NotDensity(f"negative eigenvalue {least:.3e}")
    if abs(tr - 1.0) > tol * dim:
        raise NotDensity(f"trace {tr} != 1")


class Projector(NamedTuple):
    """Hermitian idempotent operator; ``rank`` is its trace rounded."""

    mat: np.ndarray
    rank: int

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "Projector":
        m = as_operator(m)
        return cls(mat=m, rank=projector_rank(m.shape[0], *projector_defects(m, tol), tol))

    @classmethod
    def from_ray(cls, vec, tol: float = TOL) -> "Projector":
        """Rank-one projector onto the span of ``vec`` (normalized here)."""
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        n = np.linalg.norm(v)
        if n <= tol:
            raise NotProjector("ray vector is numerically zero")
        v = v / n
        return cls(mat=np.outer(v, v.conj()), rank=1)

    @classmethod
    def zero(cls, dim: int) -> "Projector":
        return cls(mat=opcore.zero(dim), rank=0)

    @classmethod
    def identity(cls, dim: int) -> "Projector":
        return cls(mat=identity(dim), rank=dim)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class Density(NamedTuple):
    """Positive unit-trace Hermitian operator (a quantum state)."""

    mat: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "Density":
        m = as_operator(m)
        require_density(m.shape[0], *density_defects(m, tol), tol)
        return cls(mat=m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "Density":
        return cls(mat=identity(dim) / dim)

    @classmethod
    def pure(cls, vec) -> "Density":
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(mat=np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


class Observable(NamedTuple):
    """Hermitian operator with its one ``eigh``: ascending ``vals`` and
    orthonormal ``vecs``.  Nothing is grouped here; :func:`_levels` groups
    the eigenvalues at the gap each caller judges with."""

    mat: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "Observable":
        """Raises :class:`NotHermitian` when ``m`` fails the Hermitian test at
        ``tol`` or its ``eigh`` fails the orthonormality or reconstruction
        test at ``tol``."""
        m = as_operator(m)
        guard = opcore.guard_opnorm
        defect = guard(m - dag(m), tol)
        if defect > tol:
            raise NotHermitian(f"matrix is not Hermitian (defect {defect:.3e} > tol {tol:.1e})")
        vals, vecs = np.linalg.eigh((m + dag(m)) / 2)
        # One residual e = opnorm(Z^H Z - I) covers the projector properties of
        # any grouping: P_i P_j = Z_i (Z_i^H Z_j) Z_j^H with Z_i^H Z_j a block of
        # Z^H Z - I, so opnorm(P_i P_j) <= e (1 + e) for i != j; and
        # sum P_i - I = Z Z^H - I, whose norm equals e for square Z.
        unitarity = guard(dag(vecs) @ vecs - identity(m.shape[0]), tol)
        if unitarity > tol:
            raise NotHermitian(f"eigenbasis is not orthonormal (residual {unitarity:.3e})")
        residual = guard((vecs * vals) @ dag(vecs) - m, tol)
        if residual > tol:
            raise NotHermitian(f"spectral reconstruction residual {residual:.3e} exceeds {tol:.3e}")
        return cls(mat=m, vals=vals, vecs=vecs)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self, cluster_gap: float = CLUSTER_GAP) -> tuple[float, ...]:
        """One value per level at ``cluster_gap`` (:func:`_levels`), decreasing."""
        return tuple(lam for lam, _ in _levels(self, cluster_gap))


def _levels(a: Observable, cluster_gap: float) -> list:
    """The levels of ``a`` at ``cluster_gap``, by decreasing value: each a
    (value, eigenvector columns) pair.  Eigenvalues whose mutual distance is
    below ``cluster_gap`` (transitively) form one level, valued at their mean."""
    # eigh sorts ascending, so each level is a run of consecutive gaps below cluster_gap.
    ends = [0, *(np.flatnonzero(np.diff(a.vals) >= cluster_gap) + 1).tolist(), len(a.vals)]
    runs = reversed(list(zip(ends, ends[1:])))
    return [(float(a.vals[lo:hi].mean()), a.vecs[:, lo:hi]) for lo, hi in runs]


def spectral_projector(
    a: Observable, values, cluster_gap: float = CLUSTER_GAP
) -> Projector:
    """Projector onto the eigenspaces of ``a`` for the selected eigenvalues,
    each level at ``cluster_gap`` counted once however often it is named.

    The empty selection gives the zero projector; the full spectrum gives
    the identity.  Raises :class:`UnknownEigenvalue` if a value is farther
    than ``cluster_gap`` from every level.
    """
    levels = _levels(a, cluster_gap)
    chosen = {}  # level index -> None, in the order first named
    for v in values:
        dists = [abs(complex(v) - lam) for lam, _ in levels]
        k = int(np.argmin(dists))
        if dists[k] > cluster_gap:
            raise UnknownEigenvalue(
                f"value {v!r} is not an eigenvalue (closest level "
                f"{levels[k][0]!r}, distance {dists[k]:.3e})"
            )
        chosen.setdefault(k)
    out = opcore.zero(a.dim)
    for k in chosen:
        cols = levels[k][1]
        out += cols @ dag(cols)
    return Projector.from_matrix(out)


def condition(d: np.ndarray, b: np.ndarray) -> tuple:
    """tr[DB] and BDB/tr[DB] for a (state, projector) matrix pair, or for each
    pair of two ``(n, dim, dim)`` stacks with the bits of a loop over them;
    :class:`ConditioningOnNull` for the first tr[DB] <= ``NULL_EVENT``."""
    pb = opcore.trace(d @ b).real
    null = pb[pb <= opcore.NULL_EVENT]
    if null.size:
        raise ConditioningOnNull(f"tr[DB] = {null[0]:.3e} <= {opcore.NULL_EVENT:.0e}")
    return pb, b @ d @ b / pb[..., None, None]


def conditional_probability(
    d: Density, a: Projector, b: Projector, tol: float = TOL
) -> float:
    """Pr[A|B] = tr[DBAB] / tr[DB], clamped to [0, 1].

    Null events are refused by :func:`condition`; ``tol`` bounds the [0, 1] test.
    """
    require_same_dim(d.mat, a.mat, b.mat)
    pb = condition(d.mat, b.mat)[0]
    num = np.trace(d.mat @ b.mat @ a.mat @ b.mat)
    val = num.real / pb
    if abs(num.imag) / pb > tol or val < -tol or val > 1 + tol:
        raise NotProjector(
            f"conditional probability {num / pb} outside [0,1] beyond tolerance"
        )
    return min(1.0, max(0.0, val))


def luders_density(d: Density, b: Projector, tol: float = TOL) -> Density:
    """Conditioned state BDB / tr[DB] (:func:`condition`); ``tol`` bounds
    the state test."""
    require_same_dim(d.mat, b.mat)
    return Density.from_matrix(condition(d.mat, b.mat)[1], tol=tol)


def leq(a: Projector, b: Projector, tol: float = TOL) -> bool:
    """Projector order: A <= B iff AB = BA = A."""
    require_same_dim(a.mat, b.mat)
    guard = opcore.guard_opnorm
    return guard(a.mat @ b.mat - a.mat, tol) <= tol and guard(b.mat @ a.mat - a.mat, tol) <= tol
