"""Quantum probability layer.

Validated operator roles (projector, density, observable), the conditional
probability tr[DBAB]/tr[DB] and its conditioning map D -> BDB/tr[DB], the
projector order relation AB = BA = A, orthocomplements, instance checks of
the probability-measure axioms on projector families, and the two-step
product probability Pr{A;B} = tr[BDBA] whose symmetry characterizes
commutation.

Spectra are finite here, so "Borel set" degenerates to a finite set of
eigenvalues: selections are plain iterables of floats, matched to the
clustered spectrum of the owning observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .check import Check
from .errors import (
    ConditioningOnNull,
    NotDensity,
    NotOrthogonalFamily,
    NotProjector,
)
from .opcore import (
    CLUSTER_GAP,
    TOL,
    SpectralResolution,
    as_operator,
    dag,
    identity,
    opnorm,
    require_same_dim,
    trace_inner,
)

__all__ = [
    "Projector",
    "Density",
    "Observable",
    "spectral_projector",
    "conditional_probability",
    "luders_density",
    "leq",
    "orthocomplement",
    "check_measure_axioms",
    "davies_joint",
]


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent operator; ``rank`` is its trace rounded."""

    mat: np.ndarray
    rank: int

    @classmethod
    def from_matrix(cls, m, tol: float = TOL) -> "Projector":
        m = as_operator(m)
        h = opcore.hermitian_defect(m)
        if h > tol:
            raise NotProjector(f"not Hermitian (defect {h:.3e})")
        r = opnorm(m @ m - m)
        if r > tol:
            raise NotProjector(f"not idempotent (defect {r:.3e})")
        tr = np.trace(m).real
        rank = int(round(tr))
        if abs(tr - rank) > tol * m.shape[0]:
            raise NotProjector(f"trace {tr} is not within tolerance of an integer")
        return cls(mat=m, rank=rank)

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
        h = opcore.hermitian_defect(m)
        if h > tol:
            raise NotDensity(f"not Hermitian (defect {h:.3e})")
        eigs = np.linalg.eigvalsh((m + dag(m)) / 2)
        if eigs.min() < -tol:
            raise NotDensity(f"negative eigenvalue {eigs.min():.3e}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > tol * m.shape[0]:
            raise NotDensity(f"trace {tr} != 1")
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

    Raises :class:`ConditioningOnNull` when tr[DB] <= tol.
    """
    require_same_dim(d.mat, a.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= tol:
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= tol")
    num = np.trace(d.mat @ b.mat @ a.mat @ b.mat)
    val = num.real / pb
    if abs(num.imag) / pb > tol or val < -tol or val > 1 + tol:
        raise NotProjector(
            f"conditional probability {num / pb} outside [0,1] beyond tolerance"
        )
    return min(1.0, max(0.0, val))


def luders_density(d: Density, b: Projector, tol: float = TOL) -> Density:
    """Conditioned state BDB / tr[DB]."""
    require_same_dim(d.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= tol:
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= tol")
    return Density.from_matrix(b.mat @ d.mat @ b.mat / pb, tol=tol)


def leq(a: Projector, b: Projector, tol: float = TOL) -> bool:
    """Projector order: A <= B iff AB = BA = A."""
    require_same_dim(a.mat, b.mat)
    return (
        opnorm(a.mat @ b.mat - a.mat) <= tol
        and opnorm(b.mat @ a.mat - a.mat) <= tol
    )


def orthocomplement(a: Projector) -> Projector:
    """I - A."""
    return Projector(mat=identity(a.dim) - a.mat, rank=a.dim - a.rank)


def check_measure_axioms(
    d: Density, family: list[Projector], tol: float = TOL
) -> Check:
    """Verify A -> tr[DA] behaves as a probability measure on ``family``.

    ``family`` must be pairwise orthogonal.  Checks the range of each
    tr[D A_i], the values on the zero and identity projectors, and countable
    additivity over the family (finite here), one part each in that order.
    """
    dim = d.dim
    for i in range(len(family)):
        require_same_dim(d.mat, family[i].mat)
        for j in range(i + 1, len(family)):
            r = opnorm(family[i].mat @ family[j].mat)
            if r > tol:
                raise NotOrthogonalFamily(
                    f"projectors {i} and {j} overlap (residual {r:.3e})"
                )

    probs = [trace_inner(d.mat, a.mat).real for a in family]
    direct_sum = sum((a.mat for a in family), opcore.zero(dim))
    residuals = {
        "range: every tr[D A_i] lies in [0, 1]": max(
            (max(-p, p - 1.0, 0.0) for p in probs), default=0.0
        ),
        "zero: tr[D 0] = 0": abs(trace_inner(d.mat, opcore.zero(dim))),
        "unit: tr[D I] = 1": abs(trace_inner(d.mat, identity(dim)).real - 1.0),
        "additivity: tr[D sum A_i] = sum tr[D A_i]": abs(
            trace_inner(d.mat, direct_sum).real - sum(probs)
        ),
    }
    parts = [Check.judged(n, float(r), tol) for n, r in residuals.items()]
    return Check.composite("measure-axioms", parts, rule="measure-axioms")


def davies_joint(d: Density, a: Projector, b: Projector, tol: float = TOL) -> float:
    """Two-step product probability Pr{A;B} = tr[DB] * tr[D_B A] = tr[BDBA].

    Measures B first, then A on the conditioned state.  By convention the
    joint is 0 when the first event has probability <= tol, so joint tables
    are total.  Pr{A;B} = Pr{B;A} holds for all states iff AB = BA.
    """
    require_same_dim(d.mat, a.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= tol:
        return 0.0
    val = np.trace(b.mat @ d.mat @ b.mat @ a.mat)
    return float(val.real)
