"""Forced-commutativity and conditioned-state uniqueness checks.

The central computation: if a phase-space model reproduces conditional
probabilities both ways round, then tr[DBAB] = tr[DABA] for every state D,
hence BAB = ABA, and a short operator-identity chain forces AB = BA.  The
verifiers here run those identity chains numerically on concrete projector
pairs and return a :class:`~nogo_lab.check.Check` whose parts are the
steps, one residual each.  ``commutation_batch`` and ``conditioning_batch``
run the verifiers over seeded random inputs (drawn by
``random_commuting_pair``, ``random_noncommuting_pair`` and the opcore
samplers) and judge the whole batch, one trial generator per trial.

Verdict semantics: ``pass`` means every asserted identity held at tolerance;
``hypothesis-violated`` means the premise (the trace symmetry) fails for the
input pair, in which case a witness state realizing the asymmetry is
attached - this is the expected outcome for noncommuting pairs, not a bug.
``fail`` is reserved for a numerical violation of an identity that should
hold unconditionally; it should never occur.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import opcore
from .check import EXPECTED, FAIL, HYPOTHESIS_VIOLATED, PASS, Check
from .errors import ConditioningOnNull, DimensionTooSmall
from .opcore import (
    TOL,
    annihilation_witness,
    commutator_norm,
    dag,
    identity,
    opnorm,
    random_density_matrix,
    random_projector_matrix,
    random_unitary,
    trace_inner,
)
from .quantum import Density, Projector, leq, luders_density, orthocomplement
from .rng import trial_generator

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
    "commutation_batch",
    "conditioning_batch",
]

_step = Check.judged


def _theorem(name: str, steps, fail_as: str = FAIL, **fields) -> Check:
    """A verifier's record: ``fail_as`` unless every step held."""
    return Check.composite(name, steps, fail_as=fail_as, rule=name, **fields)


def random_commuting_pair(gen: np.random.Generator, dim: int) -> tuple[Projector, Projector]:
    """Random projector pair sharing an eigenbasis (hence commuting)."""
    u = random_unitary(gen, dim)
    pat_a = gen.integers(0, 2, size=dim)
    pat_b = gen.integers(0, 2, size=dim)
    a = u @ np.diag(pat_a.astype(np.complex128)) @ dag(u)
    b = u @ np.diag(pat_b.astype(np.complex128)) @ dag(u)
    return tuple(Projector.from_matrix(m, tol=opcore.BUILT_TOL) for m in (a, b))


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
            return tuple(Projector.from_matrix(m, tol=opcore.BUILT_TOL) for m in (a, b))
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
    hypothesis = _step("hypothesis BAB = ABA (max trace asymmetry over states)", gap, tol)
    if not hypothesis.ok:
        return _theorem(name, [hypothesis], HYPOTHESIS_VIOLATED, witness=witness)

    c = amat @ bmat - bmat @ amat
    skew = _step("C = AB - BA is skew-Hermitian", opnorm(c + dag(c)), tol)

    # C^2 = A(BAB - ABA) + B(ABA - BAB) once A^2 = A, B^2 = B are used.
    c2 = c @ c
    expand = opnorm(c2 - (amat @ bmat @ amat @ bmat + bmat @ amat @ bmat @ amat
                          - amat @ bmat @ amat - bmat @ amat @ bmat))
    rounding = opcore.floored(tol, opcore.ROUNDING)
    expanded = _step("expand C^2 with A^2 = A, B^2 = B", expand, rounding)
    nilpotent = _step("C^2 = 0 under the hypothesis", opnorm(c2), tol)
    norm_c = opnorm(c)
    normality = _step(
        "normality: opnorm(C)^2 = opnorm(C^2)", abs(norm_c**2 - nilpotent.residual), tol
    )
    # By normality opnorm(C) = sqrt(opnorm(C^2)): C^2 = 0 within its bound
    # puts C = 0 within the square root of that bound.
    conclusion = _step("conclusion AB = BA", norm_c, math.sqrt(nilpotent.bound))
    return _theorem(name, [hypothesis, skew, expanded, nilpotent, normality, conclusion])


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
    rounding = opcore.floored(tol, opcore.ROUNDING)
    steps = [_step("unconditional identity A = ABA + A(I-B)A", decomp, rounding)]
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
    hypothesis = _step("hypothesis XYX = YXY on pairs from {A, B, I-A, I-B}", worst, tol)
    if not hypothesis.ok:
        x, y = worst_pair
        steps.append(replace(hypothesis, name=f"{hypothesis.name} (violated by ({x}, {y}))"))
        _, witness = trace_symmetry_gap(a, b, tol=tol)
        return _theorem(name, steps, HYPOTHESIS_VIOLATED, witness=witness)
    steps.append(hypothesis)

    bab = bmat @ amat @ bmat
    # A - BAB - (I-B)A(I-B) is the decomposition defect plus the hypothesis
    # defects of (A, B) and (A, I-B); four hypothesis bounds leave room for
    # the rounding of I - B.
    substitute = _step(
        "substitution A = BAB + (I-B)A(I-B)",
        opnorm(amat - (bab + bt @ amat @ bt)),
        4 * hypothesis.bound,
    )
    # Multiplying by B adds at most the idempotence defect of B.
    by_b = 2 * substitute.bound
    ab_step = _step("right-multiply by B: AB = BAB", opnorm(amat @ bmat - bab), by_b)
    ba_step = _step("left-multiply by B: BA = BAB", opnorm(bmat @ amat - bab), by_b)
    # AB - BA = (AB - BAB) - (BA - BAB).
    conclusion = _step("conclusion AB = BA", commutator_norm(amat, bmat), 2 * by_b)
    steps += [substitute, ab_step, ba_step, conclusion]
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
    return Projector.from_matrix(q @ dag(q), tol=opcore.floored(tol, opcore.BASIS_TOL))


def sample_density_in_range(
    b: Projector, gen: np.random.Generator
) -> Density:
    """Random full-support density on range(B), embedded in the big space."""
    basis = _range_basis(b, TOL)
    small = opcore.random_density_matrix(gen, b.rank)
    return Density.from_matrix(basis @ small @ dag(basis), tol=opcore.BUILT_TOL)


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

    worst = 0.0
    for _ in range(trials):
        c = sample_projector_below(b, gen, tol)
        lhs = trace_inner(d_b.mat, c.mat).real
        rhs = trace_inner(d.mat, c.mat).real / pb
        worst = max(worst, abs(lhs - rhs))
    existence = _step(
        f"existence: tr[D_B C] = tr[DC]/tr[DB] on {trials} random C <= B", worst, tol
    )
    steps = [existence]

    # tr[D_B B] = 1 is the existence identity at C = B; the complement also
    # carries the trace normalization of D_B, so both allow ten times its bound.
    support = 10 * existence.bound
    onb = abs(trace_inner(d_b.mat, b.mat).real - 1.0)
    steps.append(_step("support: tr[D_B B] = 1", onb, support))
    offb = abs(trace_inner(d_b.mat, identity(b.dim) - b.mat).real)
    steps.append(_step("support: tr[D_B (I-B)] = 0", offb, support))
    comp = _range_basis(orthocomplement(b), tol)
    kernel = opnorm(d_b.mat @ comp) if comp.size else 0.0
    steps.append(_step("support: D_B annihilates range(I-B)", kernel, opcore.COARSE_TOL))

    worst_sep = np.inf if trials else 0.0
    for _ in range(trials):
        d_prime = sample_density_in_range(b, gen)
        delta = d_prime.mat - d_b.mat
        gap_norm = opnorm(delta)
        if gap_norm <= support:
            continue
        vals, vecs = np.linalg.eigh((delta + dag(delta)) / 2)
        k = int(np.argmax(np.abs(vals)))
        r1 = Projector.from_ray(vecs[:, k])
        sep = abs(
            trace_inner(d_prime.mat, r1.mat).real - trace_inner(d_b.mat, r1.mat).real
        )
        if not leq(r1, b, opcore.COARSE_TOL):
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
            opcore.SEPARATION_TOL,
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
            step = _step(f"[{la}, {lb}] = 0", commutator_norm(a.mat, b.mat), tol)
            if not step.ok:
                gap, w = trace_symmetry_gap(a, b, tol=tol)
                witness = witness or w
                step = replace(
                    step, name=f"[{la}, {lb}] != 0 obstructs any model (trace asymmetry {gap:.6f})"
                )
            steps.append(step)
    survey = _theorem("commutation-survey", steps, HYPOTHESIS_VIOLATED, witness=witness)
    if not survey.ok or not labels:
        return survey
    from .hvmodel import build_commuting_model
    from .quantum import Observable

    built = opcore.floored(tol, opcore.BUILT_TOL)
    observables = {k: Observable.from_matrix(projectors[k].mat, tol=built) for k in labels}
    return replace(survey, model=build_commuting_model(observables, state, tol=built))


def commutation_batch(
    seed: int, dim: int, trials: int, tol: float = TOL
) -> tuple[list[Check], dict[str, int]]:
    """Both forced-commutation routes on ``trials`` seeded commuting and
    noncommuting pairs.

    Returns three checks - every commuting pair ends with AB = BA and passes
    both routes, both routes flag every noncommuting pair as
    ``hypothesis-violated`` with a witness state, the two routes agree on
    every verdict - and the count of each non-failing verdict over both
    routes.
    """
    worst_final = 0.0
    unproven = 0
    unflagged = 0
    disagreements = 0
    tallies = {PASS: 0, HYPOTHESIS_VIOLATED: 0}
    for t in range(trials):
        gen = trial_generator(seed, t)
        for commuting in (True, False):
            sample = random_commuting_pair if commuting else random_noncommuting_pair
            a, b = sample(gen, dim)
            routes = (
                check_forced_commutation(a, b, tol=tol),
                check_forced_commutation_alt(a, b, tol=tol),
            )
            disagreements += routes[0].verdict != routes[1].verdict
            for rep in routes:
                if rep.verdict in tallies:
                    tallies[rep.verdict] += 1
            if commuting:
                worst_final = max(worst_final, commutator_norm(a.mat, b.mat))
                unproven += any(r.verdict != PASS for r in routes)
            else:
                unflagged += any(
                    r.verdict != HYPOTHESIS_VIOLATED or r.witness is None for r in routes
                )

    checks = [
        Check.composite(
            f"commuting pairs end with AB = BA (dim {dim})",
            (
                _step("AB = BA on every commuting pair", worst_final, opcore.BUILT_TOL),
                _step("commuting pairs not passed by both routes", float(unproven), 0.0),
            ),
            rule="forced-commutation",
        ),
        _step(
            f"noncommuting pairs are flagged with a witness (dim {dim})",
            float(unflagged),
            0.0,
            pass_as=EXPECTED,
            rule="trace-symmetry",
        ),
        _step(
            "both verification routes agree on every verdict",
            float(disagreements),
            0.0,
            rule="route-agreement",
        ),
    ]
    return checks, tallies


def conditioning_batch(seed: int, dim: int, trials: int, tol: float = TOL) -> Check:
    """Conditioned-state uniqueness on ``trials`` seeded (state, projector)
    pairs: a full-rank random state and a projector of random rank in
    [1, dim - 1]; passes when every pair passes, with the residual and
    bound of the worst step over all pairs.  Needs ``dim >= 3``."""
    chains = []
    for t in range(trials):
        gen = trial_generator(seed, t)
        d = Density.from_matrix(random_density_matrix(gen, dim))
        rank = int(gen.integers(1, dim))
        p = random_projector_matrix(gen, dim, rank)
        b = Projector.from_matrix(p, tol=opcore.BUILT_TOL)
        chains.append(check_conditional_uniqueness(d, b, trials=6, gen=gen, tol=tol))
    return Check.composite(
        f"conditioned-state uniqueness on {trials} random pairs (dim {dim})",
        chains,
        rule="conditional-uniqueness",
    )
