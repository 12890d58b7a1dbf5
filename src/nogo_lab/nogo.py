"""Forced-commutativity and conditioned-state uniqueness checks.

The central computation: if a phase-space model reproduces conditional
probabilities both ways round, then tr[DBAB] = tr[DABA] for every state D,
hence BAB = ABA, and a short operator-identity chain forces AB = BA.  The
verifiers here run those identity chains numerically on concrete projector
pairs and return a :class:`~nogo_lab.check.Check` whose parts are the
steps, one residual each.

The ``*_stack`` functions evaluate each step for a stack of inputs
``(n, d, d)`` at once and yield one check per input, in order; the
single-input verifiers are their stack-of-one case.  ``commutation_batch``
and ``conditioning_batch`` draw seeded inputs trial by trial and evaluate
them in blocks of at most ``BLOCK_ENTRIES`` entries per stacked array.

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
from .opcore import TOL, dag, opnorm, trace
from .quantum import (
    Density,
    Projector,
    density_defects,
    projector_defects,
    projector_rank,
    require_density,
)
from .rng import trial_generator

__all__ = [
    "BLOCK_ENTRIES",
    "random_commuting_pair",
    "random_noncommuting_pair",
    "PairStack",
    "trace_symmetry_gap",
    "forced_commutation_stack",
    "forced_commutation_alt_stack",
    "check_forced_commutation",
    "check_forced_commutation_alt",
    "conditional_uniqueness_stack",
    "check_conditional_uniqueness",
    "commutation_batch",
    "conditioning_batch",
]

# Complex entries in one stacked array of a batch block, which bounds its
# memory: 256/16/4 commutation and 85/5/1 conditioning trials at dims 4/16/32.
BLOCK_ENTRIES = 8192
SAMPLES = 6  # random C <= B and random D' per conditioning-batch trial
CONCLUSION = "conclusion AB = BA"

_step = Check.judged


def _theorem(name: str, steps, fail_as: str = FAIL, **fields) -> Check:
    """A verifier's record: ``fail_as`` unless every step held."""
    return Check.composite(name, steps, fail_as=fail_as, rule=name, **fields)


def _blocks(trials: int, entries_per_trial: int) -> list[range]:
    """Consecutive trial ranges whose stacked arrays, at
    ``entries_per_trial`` complex entries a trial, fit ``BLOCK_ENTRIES``."""
    size = max(1, BLOCK_ENTRIES // entries_per_trial)
    return [range(t, min(t + size, trials)) for t in range(0, trials, size)]


def random_commuting_pair(gen: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Random projector matrices sharing an eigenbasis (hence commuting),
    before the projector test: a batch judges them with :class:`PairStack`."""
    u = opcore.random_unitary(gen, dim)
    patterns = [gen.integers(0, 2, size=dim) for _ in range(2)]
    return tuple(u @ np.diag(p.astype(np.complex128)) @ dag(u) for p in patterns)


def random_noncommuting_pair(
    gen: np.random.Generator, dim: int, min_comm: float = 0.05
) -> tuple[np.ndarray, np.ndarray]:
    """Random projector matrices with commutator norm above ``min_comm``, by
    rejection; each draw takes both ranks, then both projectors.  The test
    runs an SVD only when ||C||_F/sqrt(dim) <= opnorm(C) <= ||C||_F leaves it
    open: a bound past ``min_comm`` by a factor 2 decides it."""
    for _ in range(1000):
        ranks = [int(gen.integers(1, dim)) for _ in range(2)]
        a, b = (opcore.random_projector_matrix(gen, dim, r) for r in ranks)
        c = a @ b - b @ a
        if (np.linalg.norm(c) / math.sqrt(dim) > 2 * min_comm
                or opcore.guard_opnorm(c, min_comm) > min_comm):
            return a, b
    raise RuntimeError("rejection sampling failed to find a noncommuting pair")


class PairStack:
    """Projector pairs stacked ``(n, d, d)``, with every quantity the two
    forced-commutation routes share computed once: the projector test's
    defects (guard values at ``tol``, the finest tolerance the pairs are
    tested at), AB, BA, ABA, BAB, the trace-symmetry gap opnorm(BAB - ABA)
    and opnorm(AB - BA); witness states only on first use."""

    def __init__(self, a: np.ndarray, b: np.ndarray, tol: float = TOL):
        self.a, self.b = a, b
        self.defects = projector_defects(a, tol), projector_defects(b, tol)
        self.ab, self.ba = a @ b, b @ a
        self.aba, self.bab = self.ab @ a, self.ba @ b
        self.sandwich = self.bab - self.aba
        self.gap = opnorm(self.sandwich)
        self.commutator_norm = opnorm(self.ab - self.ba)
        self._witnesses: dict[int, tuple] = {}

    @classmethod
    def of(cls, a: Projector, b: Projector, tol: float = TOL) -> "PairStack":
        opcore.require_same_dim(a.mat, b.mat)
        return cls(a.mat[None], b.mat[None], tol)

    def require_projectors(self, i: int, tol: float) -> None:
        """:meth:`Projector.from_matrix`'s test of pair ``i`` at ``tol``, no
        finer than the stack's, A first: raises :class:`NotProjector` on
        failure."""
        for defects in self.defects:
            projector_rank(self.a.shape[-1], *(x[i] for x in defects), tol)

    def witness(self, i: int, tol: float) -> Density:
        """Pair ``i``'s state of :func:`trace_symmetry_gap`: maximally mixed
        when the gap is at most ``tol``, else its witness, state-tested.  The
        first call builds the witness of every pair whose gap exceeds
        ``tol``, in one stacked call."""
        dim = self.a.shape[-1]
        if self.gap[i] <= tol:
            return Density.maximally_mixed(dim)
        if i not in self._witnesses:
            idx = np.flatnonzero(self.gap > tol)
            states = opcore.top_eigenprojector(self.sandwich[idx])
            defects = density_defects(states, TOL)
            for k, j in enumerate(idx.tolist()):
                self._witnesses[j] = states[k], [x[k] for x in defects]
        state, defects = self._witnesses[i]
        require_density(dim, *defects, TOL)
        return Density(state)


def trace_symmetry_gap(a: Projector, b: Projector, tol: float = TOL) -> tuple[float, Density]:
    """Largest possible |tr[DBAB] - tr[DABA]| over states, with a maximizer.

    The gap equals opnorm(BAB - ABA); the returned state is a rank-one
    eigenprojector of BAB - ABA realizing it (the maximally mixed state when
    the gap is zero).
    """
    pairs = PairStack.of(a, b, tol)
    return float(pairs.gap[0]), pairs.witness(0, tol)


def forced_commutation_stack(pairs: PairStack, tol: float = TOL):
    """:func:`check_forced_commutation` on each pair of the stack, yielded
    in order; a pair is judged as a projector pair at ``tol`` first."""
    name = "forced-commutation"
    rounding = opcore.floored(tol, opcore.ROUNDING)
    a, b, aba, bab = pairs.a, pairs.b, pairs.aba, pairs.bab
    c = pairs.ab - pairs.ba
    c2 = c @ c
    # C^2 = A(BAB - ABA) + B(ABA - BAB) once A^2 = A, B^2 = B are used.
    expand = opnorm(c2 - (aba @ b + bab @ a - aba - bab))
    rows = np.stack([pairs.gap, opnorm(c + dag(c)), expand, opnorm(c2), pairs.commutator_norm], -1)
    del c, c2  # the generator's frame outlives the stacked phase
    for i, (gap, skew, expanded, square, norm_c) in enumerate(rows.tolist()):
        pairs.require_projectors(i, tol)
        hypothesis = _step("hypothesis BAB = ABA (max trace asymmetry over states)", gap, tol)
        if not hypothesis.ok:
            yield _theorem(name, [hypothesis], HYPOTHESIS_VIOLATED, witness=pairs.witness(i, tol))
            continue
        nilpotent = _step("C^2 = 0 under the hypothesis", square, tol)
        yield _theorem(name, [
            hypothesis,
            _step("C = AB - BA is skew-Hermitian", skew, tol),
            _step("expand C^2 with A^2 = A, B^2 = B", expanded, rounding),
            nilpotent,
            _step("normality: opnorm(C)^2 = opnorm(C^2)", abs(norm_c**2 - square), tol),
            # By normality opnorm(C) = sqrt(opnorm(C^2)): C^2 = 0 within its
            # bound puts C = 0 within the square root of that bound.
            _step(CONCLUSION, norm_c, math.sqrt(nilpotent.bound)),
        ])


def check_forced_commutation(a: Projector, b: Projector, tol: float = TOL) -> Check:
    """Trace symmetry forces commutation, via the nilpotent commutator.

    Hypothesis: tr[DBAB] = tr[DABA] for all states, i.e. BAB = ABA.  Under
    it the chain verifies, in order, that the commutator C = AB - BA squares
    to zero (using idempotence of A and B), and that a skew-Hermitian matrix
    with C^2 = 0 is itself zero (normality gives opnorm(C)^2 = opnorm(C^2)),
    concluding AB = BA.

    When the hypothesis fails, the verdict is ``hypothesis-violated`` and the
    witness state shows the trace symmetry cannot hold for all states.
    """
    [check] = forced_commutation_stack(PairStack.of(a, b, tol), tol)
    return check


def forced_commutation_alt_stack(pairs: PairStack, tol: float = TOL):
    """:func:`check_forced_commutation_alt` on each pair of the stack,
    yielded in order; a pair is judged as a projector pair at ``tol``
    first."""
    name = "forced-commutation-alt"
    rounding = opcore.floored(tol, opcore.ROUNDING)
    a, bab, eye = pairs.a, pairs.bab, opcore.identity(pairs.a.shape[-1])
    family = {"A": a, "B": pairs.b, "I-A": eye - a, "I-B": eye - pairs.b}
    duos = [(x, y) for k, x in enumerate(family) for y in list(family)[k + 1:]]
    defects = np.array([
        opnorm(family[x] @ family[y] @ family[x] - family[y] @ family[x] @ family[y])
        for x, y in duos
    ])
    bt = family["I-B"]
    rows = np.stack([
        opnorm(a - (pairs.aba + a @ bt @ a)),
        defects.max(axis=0, initial=0.0),
        # A - BAB - (I-B)A(I-B) is the decomposition defect plus the
        # hypothesis defects of (A, B) and (A, I-B).
        opnorm(a - (bab + bt @ a @ bt)),
        opnorm(pairs.ab - bab),
        opnorm(pairs.ba - bab),
        pairs.commutator_norm,
    ], -1)
    del family, bt  # the generator's frame outlives the stacked phase
    culprits = defects.argmax(axis=0).tolist()
    for i, (decomp, worst, substituted, ab, ba, norm_c) in enumerate(rows.tolist()):
        pairs.require_projectors(i, tol)
        steps = [_step("unconditional identity A = ABA + A(I-B)A", decomp, rounding)]
        if not steps[0].ok:
            yield _theorem(name, steps)
            continue
        hypothesis = _step("hypothesis XYX = YXY on pairs from {A, B, I-A, I-B}", worst, tol)
        if not hypothesis.ok:
            x, y = duos[culprits[i]]
            steps.append(replace(hypothesis, name=f"{hypothesis.name} (violated by ({x}, {y}))"))
            yield _theorem(name, steps, HYPOTHESIS_VIOLATED, witness=pairs.witness(i, tol))
            continue
        # Four hypothesis bounds leave room for the rounding of I - B.
        substitute = _step("substitution A = BAB + (I-B)A(I-B)", substituted, 4 * hypothesis.bound)
        # Multiplying by B adds at most the idempotence defect of B.
        by_b = 2 * substitute.bound
        yield _theorem(name, [
            *steps,
            hypothesis,
            substitute,
            _step("right-multiply by B: AB = BAB", ab, by_b),
            _step("left-multiply by B: BA = BAB", ba, by_b),
            # AB - BA = (AB - BAB) - (BA - BAB).
            _step(CONCLUSION, norm_c, 2 * by_b),
        ])


def check_forced_commutation_alt(a: Projector, b: Projector, tol: float = TOL) -> Check:
    """Forced commutation via orthocomplements, without one-dimensionality.

    Writing A~ = I - A and B~ = I - B, the identity A = ABA + A B~ A holds
    unconditionally.  The hypothesis - XYX = YXY for every pair X, Y drawn
    from {A, B, A~, B~} - turns it into A = BAB + B~ A B~, from which
    AB = BAB = BA follows by multiplying with B on either side.
    """
    [check] = forced_commutation_alt_stack(PairStack.of(a, b, tol), tol)
    return check


def _require_dim(dim: int) -> None:
    if dim < 3:
        raise DimensionTooSmall(
            f"conditioning uniqueness is only meaningful for dimension >= 3 "
            f"(lattice measures are trace functionals there); got dimension {dim}"
        )


def _range_bases(p: np.ndarray) -> list[np.ndarray]:
    """Orthonormal columns spanning the range of each projector of a stack,
    from one eigh of the stack."""
    vals, vecs = np.linalg.eigh((p + dag(p)) / 2)
    return [v[:, keep] for v, keep in zip(vecs, vals > 0.5)]


def _grouped(keys) -> list[list[int]]:
    """The indices of ``keys`` grouped by equal key, each group in order."""
    keys = list(keys)
    return [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]


def _draw_samples(gen: np.random.Generator, rank: int, samples: int) -> tuple[list, np.ndarray]:
    """One conditioning trial's draws, rank(B) = ``rank``: for each of
    ``samples`` projectors C <= B a rank r in [1, rank], then a rank x r
    Gaussian; then ``samples`` densities on range(B)."""
    below = [opcore.complex_gaussian(gen, rank, int(gen.integers(1, rank + 1)))
             for _ in range(samples)]
    return below, np.array([opcore.random_density_matrix(gen, rank) for _ in range(samples)])


def _projectors_below(bases: list, below: list) -> np.ndarray:
    """C = QQ† with Q the QR factor of basis @ G, for each trial's basis of
    range(B) and each of its Gaussians G (:func:`_draw_samples`): shape
    ``(n, k, d, d)``, from one stacked ``qr`` per rank(C).  Each basis @ G
    is its own product: a stacked matrix-vector product rounds differently."""
    products = [basis @ g for basis, gs in zip(bases, below) for g in gs]
    c = np.empty((len(products),) + (len(bases[0]),) * 2, np.complex128)
    for idx in _grouped(m.shape for m in products):
        q = np.linalg.qr(np.array([products[i] for i in idx]))[0]
        c[idx] = q @ dag(q)
    return c.reshape(len(bases), -1, *c.shape[1:])


def _separation(rho: np.ndarray, d_b: np.ndarray, b: np.ndarray) -> tuple:
    """Each D' of ``rho`` ``(n, k, d, d)`` against D_B through the top
    eigenpair (lam, v) of D' - D_B and P = vv†: opnorm(D' - D_B) = |lam|,
    |tr[D'P] - tr[D_B P]| = |v†D'v - v†D_B v|, and the defect of P <= B,
    max(opnorm(BP - P), opnorm(PB - P)) = max(|Bv - v|, |B†v - v|)."""
    lam, v = opcore.top_eigenpair(rho - d_b[:, None])
    row, col = v.conj()[..., None, :], v[..., :, None]
    sep = np.abs((row @ rho @ col).real - (row @ d_b[:, None] @ col).real)[..., 0, 0]
    off = [np.linalg.norm(m[:, None] @ col - col, axis=(-2, -1)) for m in (b, dag(b))]
    return np.abs(lam), sep, np.maximum(*off)


def conditional_uniqueness_stack(d: np.ndarray, b: np.ndarray, samples: list, tol: float = TOL):
    """:func:`check_conditional_uniqueness` on a stack of (state,
    projector) trials ``d``, ``b`` of shape ``(n, dim, dim)``, yielded in
    order; ``samples[i]`` holds trial i's draws (:func:`_draw_samples`)."""
    n, dim = d.shape[:2]
    _require_dim(dim)
    eye = opcore.identity(dim)
    pb = trace(d @ b).real
    # A trial with a null event B raises before its numbers are used.
    pb_safe = np.where(pb > opcore.NULL_EVENT, pb, 1.0)[:, None]
    d_b = b @ d @ b / pb_safe[:, :, None]
    bases, complements = _range_bases(b), _range_bases(eye - b)

    c = _projectors_below(bases, [below for below, _ in samples])
    existence = np.abs(trace(d_b[:, None] @ c).real - trace(d[:, None] @ c).real / pb_safe)
    on_b = np.abs(trace(d_b @ b).real - 1.0)
    off_b = np.abs(trace(d_b @ (eye - b)).real)

    # Other densities D' on range(B), with D_B's kernel test stacked per
    # rank(B), and their rank-one separators from D_B (:func:`_separation`).
    rho, kernel = np.empty(c.shape, np.complex128), np.empty(n)
    for idx in _grouped((x.shape, y.shape) for x, y in zip(bases, complements)):
        basis = np.array([bases[i] for i in idx])[:, None]
        rho[idx] = basis @ np.array([samples[i][1] for i in idx]) @ dag(basis)
        kernel[idx] = opnorm(d_b[idx] @ np.array([complements[i] for i in idx]))
    gap, sep, below_defect = _separation(rho, d_b, b)

    basis_tol = opcore.floored(tol, opcore.BASIS_TOL)
    luders, rho_defects = density_defects(d_b, tol), density_defects(rho, opcore.BUILT_TOL)
    c_defects = projector_defects(c, basis_tol)
    k = c.shape[1]
    for i in range(n):
        if pb[i] <= opcore.NULL_EVENT:
            raise ConditioningOnNull(f"tr[DB] = {pb[i]:.3e} <= {opcore.NULL_EVENT:.0e}")
        require_density(dim, *(x[i] for x in luders), tol)
        worst = 0.0
        for j in range(k):
            projector_rank(dim, *(x[i, j] for x in c_defects), basis_tol)
            worst = max(worst, float(existence[i, j]))
        existence_step = _step(
            f"existence: tr[D_B C] = tr[DC]/tr[DB] on {k} random C <= B", worst, tol
        )
        # tr[D_B B] = 1 is the existence identity at C = B; the complement also
        # carries the trace normalization of D_B, so both allow ten times its bound.
        support = 10 * existence_step.bound
        steps = [
            existence_step,
            _step("support: tr[D_B B] = 1", float(on_b[i]), support),
            _step("support: tr[D_B (I-B)] = 0", float(off_b[i]), support),
            _step("support: D_B annihilates range(I-B)", float(kernel[i]), opcore.COARSE_TOL),
        ]
        worst_sep = np.inf
        for j in range(k):
            require_density(dim, *(x[i, j] for x in rho_defects), opcore.BUILT_TOL)
            if gap[i, j] <= support:
                continue
            if not below_defect[i, j] <= opcore.COARSE_TOL:  # the separator is not below B
                worst_sep = 0.0
                break
            # The separator must realize the full operator-norm distance.
            worst_sep = min(worst_sep, float(sep[i, j]) / float(gap[i, j]))
        steps.append(_step(
            f"uniqueness: rank-one separator below B on {k} random D' != D_B",
            1.0 - worst_sep if worst_sep < np.inf else 0.0,
            opcore.SEPARATION_TOL,
        ))
        yield _theorem("conditional-uniqueness", steps)


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = gen if gen is not None else np.random.default_rng(0)
    opcore.require_same_dim(d.mat, b.mat)
    pb = opcore.trace_inner(d.mat, b.mat).real
    if pb <= opcore.NULL_EVENT:  # before any draw, as a zero B has no rank to draw
        raise ConditioningOnNull(f"tr[DB] = {pb:.3e} <= {opcore.NULL_EVENT:.0e}")
    samples = _draw_samples(gen, b.rank, trials)
    [check] = conditional_uniqueness_stack(d.mat[None], b.mat[None], [samples], tol)
    return check


def commutation_batch(
    seed: int, dim: int, trials: int, tol: float = TOL
) -> tuple[list[Check], dict[str, int]]:
    """Both forced-commutation routes on ``trials`` seeded commuting and
    noncommuting pairs.

    Returns three checks - every commuting pair ends with AB = BA (the
    largest "conclusion AB = BA" residual of either route) and passes both
    routes, both routes flag every noncommuting pair as
    ``hypothesis-violated`` with a witness state, the two routes agree on
    every verdict - and the count of each non-failing verdict over both
    routes.
    """
    worst_final, unproven, unflagged, disagreements = 0.0, 0, 0, 0
    tallies = {PASS: 0, HYPOTHESIS_VIOLATED: 0}
    for block in _blocks(trials, 2 * dim * dim):
        gens = (trial_generator(seed, t) for t in block)
        samplers = (random_commuting_pair, random_noncommuting_pair)
        drawn = (f(gen, dim) for gen in gens for f in samplers)  # both from one generator
        # The routes test the pairs at tol, the sampler's test at BUILT_TOL.
        pairs = PairStack(*(np.array(side) for side in zip(*drawn)), min(tol, opcore.BUILT_TOL))
        first = iter(forced_commutation_stack(pairs, tol))
        second = iter(forced_commutation_alt_stack(pairs, tol))
        for i in range(len(pairs.a)):
            pairs.require_projectors(i, opcore.BUILT_TOL)  # the sampler's test
            routes = (next(first), next(second))
            disagreements += routes[0].verdict != routes[1].verdict
            for rep in routes:
                if rep.verdict in tallies:
                    tallies[rep.verdict] += 1
            if i % 2 == 0:  # the commuting pair of its trial
                for step in (p for rep in routes for p in rep.parts if p.name == CONCLUSION):
                    worst_final = max(worst_final, step.residual)
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
    [1, dim - 1], each with ``SAMPLES`` samples per stage; passes when every
    pair passes, with the residual and bound of the worst step over all
    pairs.  Needs ``dim >= 3``, checked before any draw."""
    _require_dim(dim)
    chains = []
    for block in _blocks(trials, SAMPLES * dim * dim):
        d, b, samples = [], [], []
        for t in block:
            gen = trial_generator(seed, t)
            d.append(opcore.random_density_matrix(gen, dim))
            rank = int(gen.integers(1, dim))
            b.append(opcore.random_projector_matrix(gen, dim, rank))
            samples.append(_draw_samples(gen, rank, SAMPLES))
        d, b = np.array(d), np.array(b)
        states, projectors = density_defects(d, TOL), projector_defects(b, opcore.BUILT_TOL)
        checks = iter(conditional_uniqueness_stack(d, b, samples, tol))
        for i in range(len(block)):
            require_density(dim, *(x[i] for x in states), TOL)  # the sampler's tests
            projector_rank(dim, *(x[i] for x in projectors), opcore.BUILT_TOL)
            chains.append(next(checks))
    return Check.composite(
        f"conditioned-state uniqueness on {trials} random pairs (dim {dim})",
        chains,
        rule="conditional-uniqueness",
    )
