"""Forced-commutativity and conditioned-state uniqueness checks.

The central computation: if a phase-space model reproduces conditional
probabilities both ways round, then tr[DBAB] = tr[DABA] for every state D,
hence BAB = ABA, and a short operator-identity chain forces AB = BA.  The
verifiers here run those identity chains numerically on concrete projector
pairs and return a :class:`~nogo_lab.check.Check` whose parts are the
steps, one residual each.  ``random_commuting_pair`` and
``random_noncommuting_pair`` draw the seeded inputs of the batch commands.

Verdict semantics: ``pass`` means every asserted identity held at tolerance;
``hypothesis-violated`` means the premise (the trace symmetry) fails for the
input pair, in which case a witness state realizing the asymmetry is
attached - this is the expected outcome for noncommuting pairs, not a bug.
``fail`` is reserved for a numerical violation of an identity that should
hold unconditionally; it should never occur.
"""

from __future__ import annotations

import numpy as np

from . import opcore
from .check import FAIL, HYPOTHESIS_VIOLATED, PASS, Check
from .errors import ConditioningOnNull, DimensionTooSmall
from .opcore import (
    TOL,
    annihilation_witness,
    commutator_norm,
    dag,
    identity,
    opnorm,
    random_projector_matrix,
    random_unitary,
    trace_inner,
)
from .quantum import Density, Projector, leq, luders_density, orthocomplement

__all__ = [
    "PASS",
    "HYPOTHESIS_VIOLATED",
    "FAIL",
    "random_commuting_pair",
    "random_noncommuting_pair",
    "trace_symmetry_gap",
    "check_forced_commutation",
    "check_forced_commutation_alt",
    "check_conditional_uniqueness",
    "commutation_survey",
]

_step = Check.judged


def _theorem(name: str, steps, verdict: str | None = None, **fields) -> Check:
    """A verifier's record: its steps as parts, the worst step residual, and
    ``verdict`` (by default ``pass`` when every step held, else ``fail``)."""
    if verdict is None:
        verdict = PASS if all(s.ok for s in steps) else FAIL
    residual = max((s.residual for s in steps), default=0.0)
    return Check(name, residual, verdict, rule=name, parts=tuple(steps), **fields)


def random_commuting_pair(gen: np.random.Generator, dim: int) -> tuple[Projector, Projector]:
    """Random projector pair sharing an eigenbasis (hence commuting)."""
    u = random_unitary(gen, dim)
    pat_a = gen.integers(0, 2, size=dim)
    pat_b = gen.integers(0, 2, size=dim)
    a = u @ np.diag(pat_a.astype(np.complex128)) @ dag(u)
    b = u @ np.diag(pat_b.astype(np.complex128)) @ dag(u)
    return Projector.from_matrix(a, tol=1e-8), Projector.from_matrix(b, tol=1e-8)


def random_noncommuting_pair(
    gen: np.random.Generator, dim: int, min_comm: float = 0.05
) -> tuple[Projector, Projector]:
    """Random projector pair with commutator norm above ``min_comm``, by
    rejection; each draw takes both ranks, then both projectors."""
    for _ in range(1000):
        ra = int(gen.integers(1, dim))
        rb = int(gen.integers(1, dim))
        a = random_projector_matrix(gen, dim, ra)
        b = random_projector_matrix(gen, dim, rb)
        if commutator_norm(a, b) > min_comm:
            return Projector.from_matrix(a, tol=1e-8), Projector.from_matrix(b, tol=1e-8)
    raise RuntimeError("rejection sampling failed to find a noncommuting pair")


def trace_symmetry_gap(
    a: Projector, b: Projector, tol: float = TOL
) -> tuple[float, Density]:
    """Largest possible |tr[DBAB] - tr[DABA]| over states, with a maximizer.

    The gap equals opnorm(BAB - ABA); the returned state is a rank-one
    eigenprojector of BAB - ABA realizing it (the maximally mixed state when
    the gap is zero).
    """
    opcore.require_same_dim(a.mat, b.mat)
    m = b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat
    gap = opnorm(m)
    if gap <= tol:
        return gap, Density.maximally_mixed(a.dim)
    return gap, Density.from_matrix(annihilation_witness(m, tol=tol))


def _projector(p: Projector, tol: float) -> Projector:
    return Projector.from_matrix(p.mat, tol=tol)


def check_forced_commutation(
    a: Projector, b: Projector, tol: float = TOL
) -> Check:
    """Trace symmetry forces commutation, via the nilpotent commutator.

    Hypothesis: tr[DBAB] = tr[DABA] for all states, i.e. BAB = ABA.  Under
    it the chain verifies, in order, that the commutator C = AB - BA squares
    to zero (using idempotence of A and B), and that a skew-Hermitian matrix
    with C^2 = 0 is itself zero (normality gives opnorm(C)^2 = opnorm(C^2)),
    concluding AB = BA.

    When the hypothesis fails, the verdict is ``hypothesis-violated`` and the
    witness state shows the trace symmetry cannot hold for all states.
    """
    a = _projector(a, tol)
    b = _projector(b, tol)
    name = "forced-commutation"
    amat, bmat = a.mat, b.mat

    gap, witness = trace_symmetry_gap(a, b, tol=tol)
    if gap > tol:
        c = amat @ bmat - bmat @ amat
        ratio = opnorm(c @ c) / gap
        steps = (
            _step("hypothesis BAB = ABA (max trace asymmetry over states)", gap, False),
            # observed bound ||C^2|| <= K * ||BAB - ABA||; K stays small at
            # these dimensions (recorded for regression, not asserted)
            _step("observed nilpotency ratio opnorm(C^2) / gap", ratio, True),
        )
        return _theorem(name, steps, HYPOTHESIS_VIOLATED, witness=witness)

    steps = [
        _step("hypothesis BAB = ABA (max trace asymmetry over states)", gap, True)
    ]
    c = amat @ bmat - bmat @ amat

    skew = opnorm(c + dag(c))
    steps.append(_step("C = AB - BA is skew-Hermitian", skew, skew <= tol))

    # C^2 = A(BAB - ABA) + B(ABA - BAB) once A^2 = A, B^2 = B are used.
    c2 = c @ c
    expand = opnorm(c2 - (amat @ bmat @ amat @ bmat + bmat @ amat @ bmat @ amat
                          - amat @ bmat @ amat - bmat @ amat @ bmat))
    steps.append(_step("expand C^2 with A^2 = A, B^2 = B", expand, expand <= max(tol, 1e-12)))

    nilpotent = opnorm(c2)
    steps.append(_step("C^2 = 0 under the hypothesis", nilpotent, nilpotent <= tol))

    norm_c = opnorm(c)
    normality = abs(norm_c**2 - nilpotent)
    steps.append(
        _step("normality: opnorm(C)^2 = opnorm(C^2)", normality, normality <= tol)
    )

    sqrt_tol = float(np.sqrt(tol))
    steps.append(
        _step("conclusion AB = BA", norm_c, norm_c <= sqrt_tol)
    )
    return _theorem(name, steps)


def check_forced_commutation_alt(
    a: Projector, b: Projector, tol: float = TOL
) -> Check:
    """Forced commutation via orthocomplements, without one-dimensionality.

    Writing A~ = I - A and B~ = I - B, the identity A = ABA + A B~ A holds
    unconditionally.  The hypothesis - XYX = YXY for every pair X, Y drawn
    from {A, B, A~, B~} - turns it into A = BAB + B~ A B~, from which
    AB = BAB = BA follows by multiplying with B on either side.
    """
    a = _projector(a, tol)
    b = _projector(b, tol)
    name = "forced-commutation-alt"
    amat, bmat = a.mat, b.mat
    at = orthocomplement(a).mat
    bt = orthocomplement(b).mat

    decomp = opnorm(amat - (amat @ bmat @ amat + amat @ bt @ amat))
    steps = [
        _step("unconditional identity A = ABA + A(I-B)A", decomp, decomp <= max(tol, 1e-12))
    ]
    if not steps[0].ok:
        return _theorem(name, steps)

    family = {"A": amat, "B": bmat, "I-A": at, "I-B": bt}
    names = list(family)
    worst_pair = None
    worst = 0.0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            x, y = family[names[i]], family[names[j]]
            r = opnorm(x @ y @ x - y @ x @ y)
            if r > worst:
                worst, worst_pair = r, (names[i], names[j])
    if worst > tol:
        steps.append(
            _step(
                f"hypothesis XYX = YXY on pairs from {{A, B, I-A, I-B}} "
                f"(violated by ({worst_pair[0]}, {worst_pair[1]}))",
                worst,
                False,
            )
        )
        _, witness = trace_symmetry_gap(a, b, tol=tol)
        return _theorem(name, steps, HYPOTHESIS_VIOLATED, witness=witness)
    steps.append(
        _step("hypothesis XYX = YXY on pairs from {A, B, I-A, I-B}", worst, True)
    )

    bab = bmat @ amat @ bmat
    substitute = opnorm(amat - (bab + bt @ amat @ bt))
    steps.append(_step("substitution A = BAB + (I-B)A(I-B)", substitute, substitute <= 4 * tol))

    ab_step = opnorm(amat @ bmat - bab)
    steps.append(_step("right-multiply by B: AB = BAB", ab_step, ab_step <= 8 * tol))

    ba_step = opnorm(bmat @ amat - bab)
    steps.append(_step("left-multiply by B: BA = BAB", ba_step, ba_step <= 8 * tol))

    conclusion = commutator_norm(amat, bmat)
    steps.append(_step("conclusion AB = BA", conclusion, conclusion <= 16 * tol))

    return _theorem(name, steps)


def _range_basis(p: Projector, tol: float) -> np.ndarray:
    """Orthonormal columns spanning range(P)."""
    vals, vecs = np.linalg.eigh((p.mat + dag(p.mat)) / 2)
    keep = vals > 0.5
    return vecs[:, keep]


def sample_projector_below(
    b: Projector, gen: np.random.Generator, tol: float = TOL
) -> Projector:
    """Random projector C with C <= B, uniform rank in [1, rank(B)]."""
    if b.rank < 1:
        raise ValueError("cannot sample below the zero projector")
    basis = _range_basis(b, tol)
    r = int(gen.integers(1, b.rank + 1))
    g = opcore.complex_gaussian(gen, b.rank, r)
    q, _ = np.linalg.qr(basis @ g)
    return Projector.from_matrix(q @ dag(q), tol=max(tol, 1e-10))


def sample_density_in_range(
    b: Projector, gen: np.random.Generator
) -> Density:
    """Random full-support density on range(B), embedded in the big space."""
    basis = _range_basis(b, TOL)
    small = opcore.random_density_matrix(gen, b.rank)
    return Density.from_matrix(basis @ small @ dag(basis), tol=1e-8)


def check_conditional_uniqueness(
    d: Density,
    b: Projector,
    trials: int = 50,
    gen: np.random.Generator | None = None,
    tol: float = TOL,
) -> Check:
    """The conditioned state is the unique reproducer of tr[DC]/tr[DB].

    Three stages, each run on ``trials`` random samples:

    existence   - D_B = BDB/tr[DB] satisfies tr[D_B C] = tr[DC]/tr[DB]
                  for random projectors C <= B;
    support     - tr[D_B B] = 1, tr[D_B (I-B)] = 0, and D_B annihilates
                  every basis vector of range(I-B), reflecting the split of
                  the space into range(B) and its complement;
    uniqueness  - any other density D' on range(B) is separated from D_B by
                  a rank-one projector below B built from an eigenvector of
                  D' - D_B.

    Requires dimension >= 3 (the regime where lattice probability measures
    are trace functionals, which is what makes uniqueness meaningful).
    """
    if d.dim < 3:
        raise DimensionTooSmall(f"dimension {d.dim} < 3")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = gen if gen is not None else np.random.default_rng(0)
    opcore.require_same_dim(d.mat, b.mat)
    pb = trace_inner(d.mat, b.mat).real
    if pb <= tol:
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= tol")

    name = "conditional-uniqueness"
    d_b = luders_density(d, b, tol=tol)
    steps = []

    worst = 0.0
    for _ in range(trials):
        c = sample_projector_below(b, gen, tol)
        lhs = trace_inner(d_b.mat, c.mat).real
        rhs = trace_inner(d.mat, c.mat).real / pb
        worst = max(worst, abs(lhs - rhs))
    steps.append(
        _step(
            f"existence: tr[D_B C] = tr[DC]/tr[DB] on {trials} random C <= B",
            worst,
            worst <= tol,
        )
    )

    onb = abs(trace_inner(d_b.mat, b.mat).real - 1.0)
    steps.append(_step("support: tr[D_B B] = 1", onb, onb <= 10 * tol))
    offb = abs(trace_inner(d_b.mat, identity(b.dim) - b.mat).real)
    steps.append(_step("support: tr[D_B (I-B)] = 0", offb, offb <= 10 * tol))
    comp = _range_basis(orthocomplement(b), tol)
    kernel = opnorm(d_b.mat @ comp) if comp.size else 0.0
    steps.append(
        _step("support: D_B annihilates range(I-B)", float(kernel), kernel <= 1e-7)
    )

    worst_sep = np.inf if trials else 0.0
    for _ in range(trials):
        d_prime = sample_density_in_range(b, gen)
        delta = d_prime.mat - d_b.mat
        gap_norm = opnorm(delta)
        if gap_norm <= 10 * tol:
            continue
        vals, vecs = np.linalg.eigh((delta + dag(delta)) / 2)
        k = int(np.argmax(np.abs(vals)))
        r1 = Projector.from_ray(vecs[:, k])
        sep = abs(
            trace_inner(d_prime.mat, r1.mat).real - trace_inner(d_b.mat, r1.mat).real
        )
        if not leq(r1, b, 1e-7):
            worst_sep = 0.0
            break
        # The separator must realize the full operator-norm distance.
        worst_sep = min(worst_sep, sep / gap_norm)
    if not np.isfinite(worst_sep):
        worst_sep = 1.0
    steps.append(
        _step(
            f"uniqueness: rank-one separator below B on {trials} random D' != D_B",
            1.0 - float(worst_sep),
            worst_sep >= 1.0 - 1e-6,
        )
    )

    return _theorem(name, steps)


def commutation_survey(
    projectors: dict[str, Projector],
    state: Density,
    tol: float = TOL,
) -> Check:
    """Pairwise commutation audit of a projector set.

    Commuting pairs are reported as such; each noncommuting pair is flagged
    with its trace-asymmetry witness, marking it as an obstruction to any
    deterministic phase-space model for the set (existence refutation is the
    feasibility solver's job).  An empty or all-commuting set passes, since
    the joint-eigenbasis construction then provides an explicit model.
    """
    if state.dim < 3:
        raise DimensionTooSmall(f"dimension {state.dim} < 3")
    steps = []
    witness = None
    labels = sorted(projectors)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            la, lb = labels[i], labels[j]
            a, b = projectors[la], projectors[lb]
            cn = commutator_norm(a.mat, b.mat)
            if cn <= tol:
                steps.append(_step(f"[{la}, {lb}] = 0", cn, True))
            else:
                gap, w = trace_symmetry_gap(a, b, tol=tol)
                witness = witness or w
                steps.append(
                    _step(
                        f"[{la}, {lb}] != 0 obstructs any model "
                        f"(trace asymmetry {gap:.6f})",
                        cn,
                        False,
                    )
                )
    verdict = PASS if all(s.ok for s in steps) else HYPOTHESIS_VIOLATED
    model = None
    if verdict == PASS and labels:
        from .hvmodel import build_commuting_model
        from .quantum import Observable

        observables = {
            k: Observable.from_matrix(projectors[k].mat, tol=max(tol, 1e-8))
            for k in labels
        }
        model = build_commuting_model(observables, state, tol=max(tol, 1e-8))
    return _theorem("commutation-survey", steps, verdict, witness=witness, model=model)
