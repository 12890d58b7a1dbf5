"""Quantum probability layer.

Validated operator roles (projector, density, observable), with the
defects their tests judge computed for single matrices or whole stacks, the
conditional probability tr[DBAB]/tr[DB] and its conditioning map
D -> BDB/tr[DB], and the projector order relation AB = BA = A.

Spectra are finite here, so "Borel set" degenerates to a finite set of
eigenvalues: selections are plain iterables of floats, matched to the
clustered spectrum of the owning observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .errors import ConditioningOnNull, NotDensity, NotProjector
from .opcore import (
    CLUSTER_GAP,
    TOL,
    SpectralResolution,
    as_operator,
    dag,
    identity,
    require_same_dim,
    trace_inner,
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
    at ``tol``, the defect a guard value as in :func:`projector_defects`."""
    least = np.linalg.eigvalsh((m + dag(m)) / 2).min(axis=-1)
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


@dataclass(frozen=True)
class Projector:
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


@dataclass(frozen=True)
class Density:
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


@dataclass(frozen=True)
class Observable:
    """Hermitian operator together with its spectral resolution."""

    mat: np.ndarray
    resolution: SpectralResolution = field(repr=False)

    @classmethod
    def from_matrix(
        cls, m, cluster_gap: float = CLUSTER_GAP, tol: float = TOL
    ) -> "Observable":
        """Raises :class:`NotHermitian` when ``m`` is not Hermitian at ``tol``."""
        m = as_operator(m)
        res = opcore.spectral_decompose(m, cluster_gap=cluster_gap, tol=tol)
        return cls(mat=m, resolution=res)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> tuple[float, ...]:
        return self.resolution.eigenvalues()


def spectral_projector(
    a: Observable, values, cluster_gap: float = CLUSTER_GAP
) -> Projector:
    """Projector onto the eigenspaces of ``a`` for the selected eigenvalues.

    The empty selection gives the zero projector; the full spectrum gives
    the identity.
    """
    mat = a.resolution.projector_for(values, gap=cluster_gap)
    return Projector.from_matrix(mat)


def conditional_probability(
    d: Density, a: Projector, b: Projector, tol: float = TOL
) -> float:
    """Pr[A|B] = tr[DBAB] / tr[DB], clamped to [0, 1].

    Raises :class:`ConditioningOnNull` when tr[DB] <= ``NULL_EVENT``;
    ``tol`` bounds only the [0, 1] test.
    """
    require_same_dim(d.mat, a.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= opcore.NULL_EVENT:
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= {opcore.NULL_EVENT:.0e}")
    num = np.trace(d.mat @ b.mat @ a.mat @ b.mat)
    val = num.real / pb
    if abs(num.imag) / pb > tol or val < -tol or val > 1 + tol:
        raise NotProjector(
            f"conditional probability {num / pb} outside [0,1] beyond tolerance"
        )
    return min(1.0, max(0.0, val))


def luders_density(d: Density, b: Projector, tol: float = TOL) -> Density:
    """Conditioned state BDB / tr[DB]; null events are refused as in
    :func:`conditional_probability`, and ``tol`` bounds the state test."""
    require_same_dim(d.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= opcore.NULL_EVENT:
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= {opcore.NULL_EVENT:.0e}")
    return Density.from_matrix(b.mat @ d.mat @ b.mat / pb, tol=tol)


def leq(a: Projector, b: Projector, tol: float = TOL) -> bool:
    """Projector order: A <= B iff AB = BA = A."""
    require_same_dim(a.mat, b.mat)
    guard = opcore.guard_opnorm
    return guard(a.mat @ b.mat - a.mat, tol) <= tol and guard(b.mat @ a.mat - a.mat, tol) <= tol
