import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nogo_lab import nogo
from nogo_lab.check import BASIS_TOL, BUILT_TOL, TOL
from nogo_lab.errors import ConditioningOnNull, DimensionTooSmall, NogoLabError, NotProjector
from nogo_lab.nogo import (
    FAIL,
    HYPOTHESIS_VIOLATED,
    PASS,
    check_conditional_uniqueness,
    check_forced_commutation,
    check_forced_commutation_alt,
    random_noncommuting_pair,
    trace_symmetry_gap,
)
from nogo_lab.opcore import (
    commutator_norm,
    complex_gaussian,
    dag,
    identity,
    opnorm,
    random_density_matrix,
    random_projector_matrix,
    top_eigenprojector,
    trace,
    trace_inner,
    zero,
)
from nogo_lab.quantum import Density, Projector, leq, luders_density
from nogo_lab.rng import make_generator, trial_generator

from conftest import (
    basis_projector,
    commuting_projector_pair,
    noncommuting_projector_pair,
    plus_projector,
    qr_projector,
)

SPOT_GAP = 1 / (2 * np.sqrt(2))  # for the (e1, (e1+e2)/sqrt 2) ray pair


@pytest.fixture
def spot_pair():
    return basis_projector(3, 0), plus_projector(3, 0, 1)


class TestTraceSymmetryGap:
    def test_commuting_pair_has_zero_gap(self):
        a = basis_projector(3, 0)
        b = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        gap, witness = trace_symmetry_gap(a, b)
        assert gap <= 1e-12
        assert witness.dim == 3

    def test_overlapping_rays_spot_value(self, spot_pair):
        a, b = spot_pair
        # oracle: BAB - ABA = (B - A)/2 with eigenvalues +-1/sqrt(2)/2
        m = b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat
        assert opnorm(m - (b.mat - a.mat) / 2) < 1e-12
        eigs = np.linalg.eigvalsh(m)
        assert max(abs(eigs)) == pytest.approx(SPOT_GAP, abs=1e-12)

        gap, witness = trace_symmetry_gap(a, b)
        assert gap == pytest.approx(SPOT_GAP, abs=1e-9)
        realized = abs(
            trace_inner(witness.mat, b.mat @ a.mat @ b.mat).real
            - trace_inner(witness.mat, a.mat @ b.mat @ a.mat).real
        )
        assert realized == pytest.approx(gap, abs=1e-9)

    def test_zero_projector(self):
        gap, _ = trace_symmetry_gap(Projector(zero(3), 0), plus_projector(3, 0, 1))
        assert gap == 0.0

    def test_a_non_projector_is_refused(self):
        """The gap is judged on projector pairs only: a record whose matrix
        fails the projector test at tol raises, as both verifiers do."""
        a = Projector(np.diag([1.01, 0.0, 0.0]).astype(np.complex128), 1)
        with pytest.raises(NotProjector, match=r"^not idempotent \(defect 1\.010e-02\)$"):
            trace_symmetry_gap(a, plus_projector(3, 0, 1))


class TestForcedCommutation:
    def test_random_commuting_pairs_pass(self):
        gen = make_generator(41)
        for _ in range(60):
            dim = int(gen.integers(3, 7))
            a, b = commuting_projector_pair(gen, dim)
            rep = check_forced_commutation(a, b)
            assert rep.verdict == PASS
            assert commutator_norm(a.mat, b.mat) <= 1e-10

    def test_same_projector_passes(self, spot_pair):
        a, _ = spot_pair
        assert check_forced_commutation(a, a).verdict == PASS

    def test_noncommuting_pair_violates_hypothesis(self, spot_pair):
        a, b = spot_pair
        rep = check_forced_commutation(a, b)
        assert rep.verdict == HYPOTHESIS_VIOLATED
        assert rep.witness is not None
        m = b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat
        asym = abs(trace_inner(rep.witness.mat, m).real)
        assert asym >= 0.35

    def test_no_fail_verdicts_on_random_inputs(self):
        gen = make_generator(43)
        for _ in range(50):
            dim = int(gen.integers(3, 8))
            a, b = noncommuting_projector_pair(gen, dim)
            assert check_forced_commutation(a, b).verdict != FAIL


class TestForcedCommutationAlt:
    def test_commuting_pair_passes(self):
        gen = make_generator(47)
        for _ in range(40):
            dim = int(gen.integers(3, 7))
            a, b = commuting_projector_pair(gen, dim)
            rep = check_forced_commutation_alt(a, b)
            assert rep.verdict == PASS

    def test_unconditional_identity_always_holds(self, spot_pair):
        a, b = spot_pair
        rep = check_forced_commutation_alt(a, b)
        assert rep.parts[0].ok  # A = ABA + A(I-B)A regardless of hypothesis
        assert rep.verdict == HYPOTHESIS_VIOLATED
        assert "violated by" in rep.parts[1].name

    def test_identity_member_trivializes(self):
        b = plus_projector(4, 1, 2)
        rep = check_forced_commutation_alt(Projector(identity(4), 4), b)
        assert rep.verdict == PASS

    def test_routes_agree_on_verdicts(self):
        gen = make_generator(53)
        for _ in range(60):
            dim = int(gen.integers(3, 7))
            if gen.random() < 0.5:
                a, b = commuting_projector_pair(gen, dim)
            else:
                a, b = noncommuting_projector_pair(gen, dim)
            assert (
                check_forced_commutation(a, b).verdict
                == check_forced_commutation_alt(a, b).verdict
            )


class TestProjectorSandwichEquivalence:
    def test_equivalence_both_directions(self):
        # BAB = ABA iff AB = BA, on commuting and noncommuting samples
        gen = make_generator(59)
        for _ in range(60):
            dim = int(gen.integers(3, 9))
            a, b = commuting_projector_pair(gen, dim)
            sandwich = opnorm(b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat)
            assert sandwich <= 1e-10
            assert commutator_norm(a.mat, b.mat) <= 1e-8
        for _ in range(60):
            dim = int(gen.integers(3, 9))
            a, b = noncommuting_projector_pair(gen, dim)
            sandwich = opnorm(b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat)
            assert sandwich > 1e-10

    def test_nilpotency_constant(self):
        # ||C^2|| <= K * ||BAB - ABA|| with K staying modest at small dims
        gen = make_generator(61)
        ratios = []
        for _ in range(100):
            dim = int(gen.integers(3, 9))
            a, b = noncommuting_projector_pair(gen, dim, min_comm=0.01)
            delta = opnorm(b.mat @ a.mat @ b.mat - a.mat @ b.mat @ a.mat)
            c = a.mat @ b.mat - b.mat @ a.mat
            if delta > 1e-12:
                ratios.append(opnorm(c @ c) / delta)
        assert max(ratios) <= 10.0


class TestConditionalUniqueness:
    def test_partial_projector_example(self):
        d = Density.maximally_mixed(3)
        b = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        rep = check_conditional_uniqueness(d, b, trials=25, gen=make_generator(2))
        assert rep.verdict == PASS
        d_b = luders_density(d, b)
        assert opnorm(d_b.mat - b.mat / 2) < 1e-12
        c = basis_projector(3, 0)
        assert trace_inner(d_b.mat, c.mat).real == pytest.approx(0.5, abs=1e-12)

    def test_identity_conditioning(self):
        gen = make_generator(3)
        d = Density.from_matrix(random_density_matrix(gen, 4))
        rep = check_conditional_uniqueness(d, Projector(identity(4), 4), trials=20, gen=gen)
        assert rep.verdict == PASS
        assert opnorm(luders_density(d, Projector(identity(4), 4)).mat - d.mat) < 1e-12

    def test_small_perturbation_is_separated(self):
        # traceless Hermitian perturbation inside range(B), eps = 1e-3
        d = Density.maximally_mixed(3)
        b = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        d_b = luders_density(d, b)
        eps = 1e-3
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0], t[1, 1] = 1.0, -1.0
        d_prime = Density.from_matrix(d_b.mat + eps * t)
        delta = d_prime.mat - d_b.mat
        vals, vecs = np.linalg.eigh(delta)
        r1 = Projector.from_ray(vecs[:, int(np.argmax(np.abs(vals)))])
        gap = abs(
            trace_inner(d_prime.mat, r1.mat).real - trace_inner(d_b.mat, r1.mat).real
        )
        assert gap >= eps / 2

    def test_rejects_dim_two(self):
        with pytest.raises(DimensionTooSmall):
            check_conditional_uniqueness(
                Density.maximally_mixed(2), Projector(identity(2), 2), trials=5
            )

    def test_rejects_null_conditioning(self):
        d = Density.pure([1, 0, 0])
        with pytest.raises(ConditioningOnNull):
            check_conditional_uniqueness(d, basis_projector(3, 2), trials=5)

    def test_batch_rejects_dim_two_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(nogo, "trial_generator", no_draws)
        with pytest.raises(DimensionTooSmall, match="got dimension 2"):
            nogo.conditioning_batch(1, 2, 100)

    def test_loose_tol_is_not_a_null_event_threshold(self):
        # tol bounds the identities only; tr[DB] (0.17 on a trial of this
        # batch, 1/3 below) is judged against NULL_EVENT.
        assert nogo.conditioning_batch(1, 4, 20, tol=0.5).verdict == PASS
        d = Density.maximally_mixed(3)
        rep = check_conditional_uniqueness(d, basis_projector(3, 2), trials=5, tol=0.5)
        assert rep.verdict == PASS

    def test_random_pairs_pass(self):
        gen = make_generator(71)
        for _ in range(20):
            dim = int(gen.integers(3, 6))
            d = Density.from_matrix(random_density_matrix(gen, dim))
            rank = int(gen.integers(1, dim))
            b = Projector.from_matrix(random_projector_matrix(gen, dim, rank), tol=1e-8)
            rep = check_conditional_uniqueness(d, b, trials=8, gen=gen)
            assert rep.verdict == PASS
            assert rep.parts[0].residual <= 1e-9


def test_theorem_report_serializes_to_check_format():
    import json

    a = basis_projector(3, 0)
    b = plus_projector(3, 0, 1)
    rep = check_forced_commutation(a, b)
    entry = rep.as_dict()
    assert entry["verdict"] == HYPOTHESIS_VIOLATED
    assert {"name", "rule", "residual", "verdict"} <= set(entry)
    assert entry["violations"] == 1  # the failed hypothesis step
    assert entry["firstViolation"].startswith("hypothesis BAB = ABA")
    json.dumps(entry)  # must be directly JSON-serializable


def _same(x, y):
    """Checks equal field by field, residuals bit for bit, witnesses entry
    by entry."""
    assert (x.name, x.rule, x.verdict, x.residual, x.bound) == (
        y.name, y.rule, y.verdict, y.residual, y.bound
    )
    assert (x.witness is None) == (y.witness is None)
    if x.witness is not None:
        assert np.array_equal(x.witness.mat, y.witness.mat)
    assert len(x.parts) == len(y.parts)
    for p, q in zip(x.parts, y.parts):
        _same(p, q)


def _outcome(run):
    """``run()``'s result, or the class and message of the library error
    it raised."""
    try:
        return run()
    except NogoLabError as exc:
        return type(exc), str(exc)


def _looped_commutation(seed, dim, trials, tol):
    """Both single-pair verifiers on the batch's draws, pair by pair."""
    routes = []
    for t in range(trials):
        gen = trial_generator(seed, t)
        for draw in (commuting_projector_pair, noncommuting_projector_pair):
            a, b = draw(gen, dim)
            routes.append(check_forced_commutation(a, b, tol))
            routes.append(check_forced_commutation_alt(a, b, tol))
    return routes


def _looped_conditioning(seed, dim, trials, tol):
    """The single-pair verifier on the batch's draws, trial by trial."""
    chains = []
    for t in range(trials):
        gen = trial_generator(seed, t)
        d = Density.from_matrix(random_density_matrix(gen, dim))
        rank = int(gen.integers(1, dim))
        b = Projector.from_matrix(random_projector_matrix(gen, dim, rank), tol=BUILT_TOL)
        chains.append(check_conditional_uniqueness(d, b, nogo.SAMPLES, gen, tol))
    return chains


@given(
    seed=st.integers(0, 2**32),
    dim=st.integers(3, 16),
    trials=st.integers(1, 12),
    tol=st.sampled_from([TOL, 0.5, 1e-15, 1e-16]),
)
@example(seed=1, dim=32, trials=5, tol=TOL)
def test_blocked_batches_equal_the_single_pair_verifiers(seed, dim, trials, tol):
    """Blocks change no verdict, tally, residual, witness or error: every
    route record of a batch equals the single-pair verifier's on the same
    draws, and a batch raises the error a trial-by-trial loop raises
    first."""
    stacks = {"forced_commutation_stack": [], "forced_commutation_alt_stack": []}

    def recorded(name, real):
        def stack(pairs, tol):
            checks = real(pairs, tol)
            stacks[name].extend(checks)
            return checks
        return stack

    with pytest.MonkeyPatch.context() as mp:
        for name in stacks:
            mp.setattr(nogo, name, recorded(name, getattr(nogo, name)))
        batch = _outcome(lambda: nogo.commutation_batch(seed, dim, trials, tol))
    routes = [check for pair in zip(*stacks.values()) for check in pair]  # both routes, pair by pair
    looped = _outcome(lambda: _looped_commutation(seed, dim, trials, tol))
    if isinstance(looped, tuple):
        assert batch == looped
    else:
        assert len(routes) == len(looped) == 4 * trials
        for x, y in zip(routes, looped):
            _same(x, y)
        _, tallies = batch
        verdicts = [r.verdict for r in looped]
        assert tallies == {v: verdicts.count(v) for v in (PASS, HYPOTHESIS_VIOLATED)}

    batch = _outcome(lambda: nogo.conditioning_batch(seed, dim, trials, tol))
    looped = _outcome(lambda: _looped_conditioning(seed, dim, trials, tol))
    if isinstance(looped, tuple):
        assert batch == looped
    else:
        assert len(batch.parts) == len(looped) == trials
        for x, y in zip(batch.parts, looped):
            _same(x, y)


def test_a_commutation_batch_tests_each_sampled_matrix_once(monkeypatch):
    """Each sampled pair is judged as a projector pair once, when its stack
    is built: two projector tests a pair, none in the routes."""
    calls = []
    real = nogo.projector_rank

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nogo, "projector_rank", counted)
    nogo.commutation_batch(1, 4, 10)
    assert len(calls) == 40  # 10 trials, a commuting and a noncommuting pair each, A and B


def _diagonal_stack(*rows):
    return np.array([np.diag(np.array(row, np.complex128)) for row in rows])


@pytest.mark.parametrize("tol", [1e-16, TOL, 0.5])
@pytest.mark.parametrize("side", ["A", "B"])
def test_a_pair_stack_refuses_its_first_non_projector(tol, side):
    """A stack refuses its third pair, whose A or B is not a projector, with
    the class and message of ``Projector.from_matrix`` at tol, though its
    fourth pair fails too."""
    a = _diagonal_stack([1, 0, 0], [1, 1, 0], [0, 1, 1], [2, 0, 0])
    b = _diagonal_stack([0, 1, 0], [1, 0, 1], [1, 1, 1], [1, 0, 0])
    bad = np.diag(np.array([1.0, 1.0, 0.0], np.complex128))
    bad[0, 1] = 0.75  # not Hermitian, well past every tol
    (a if side == "A" else b)[2] = bad
    with pytest.raises(NotProjector) as expected:
        Projector.from_matrix(bad, tol)
    with pytest.raises(NotProjector) as refused:
        nogo.PairStack(a, b, tol)
    assert type(refused.value) is type(expected.value)
    assert str(refused.value) == str(expected.value) == "not Hermitian (defect 7.500e-01)"


def test_block_arrays_fit_the_entry_budget(monkeypatch):
    """No stacked array reaching an SVD, eigh or QR call exceeds
    BLOCK_ENTRIES complex entries, and a long batch fills its blocks."""
    sizes = []
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        real = getattr(np.linalg, name)

        def spy(m, *args, real=real, **kwargs):
            sizes.append(m.size)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    nogo.commutation_batch(1, 4, 300)
    assert max(sizes) == nogo.BLOCK_ENTRIES  # 256 trials of two 4x4 pairs
    sizes.clear()
    nogo.conditioning_batch(1, 4, 100)
    assert max(sizes) == 85 * nogo.SAMPLES * 16
    sizes.clear()
    nogo.commutation_batch(1, 32, 5)
    nogo.conditioning_batch(1, 32, 2)
    assert max(sizes) <= nogo.BLOCK_ENTRIES


@pytest.mark.parametrize("dim", [3, 4, 8, 16])
def test_embedded_draws_equal_the_per_sample_construction(dim):
    """Draws carried into B's eigenbasis give, within 1e-12, each C <= B of
    the QR on a basis of range(B) alone, of its drawn rank, and each D' of
    that basis, on a block that mixes every rank 1..dim - 1 of B; the zeroed
    eigenbasis spans range(I - B)."""
    gen = make_generator(dim)
    ranks = gen.permutation(np.arange(1, dim)).tolist()
    b = np.array([random_projector_matrix(gen, dim, r) for r in ranks])
    samples = [nogo._draw_samples(gen, r, nogo.SAMPLES) for r in ranks]
    embedded = nogo._in_range(b, samples)
    for bi, (below, states), c, rho, complement in zip(b, samples, *embedded):
        vals, vecs = np.linalg.eigh((bi + dag(bi)) / 2)  # the eigenbasis range(B) draws are in
        basis = vecs[:, vals > 0.5]
        for g, s, cj, rho_j in zip(below, states, c, rho):
            assert np.allclose(cj, qr_projector(basis, g), rtol=0, atol=1e-12)
            assert np.allclose(rho_j, basis @ s @ dag(basis), rtol=0, atol=1e-12)
            c_below = Projector.from_matrix(cj, BASIS_TOL)
            assert c_below.rank == g.shape[1]
            assert leq(c_below, Projector.from_matrix(bi, BUILT_TOL), 1e-12)
        assert opnorm(bi @ complement) <= 1e-12
        assert np.allclose(complement @ dag(complement), identity(dim) - bi, rtol=0, atol=1e-12)


def test_a_draw_off_the_rank_of_range_b_raises():
    """A draw on other rows than B has eigenvalues above 1/2 raises, and is
    never embedded by broadcasting: a one-row Gaussian or a 1 x 1 density
    against rank 2, and a B of trace rank 1 with two eigenvalues 0.7."""
    gen = make_generator(0)
    b = random_projector_matrix(gen, 3, 2)[None]
    below, states = nogo._draw_samples(gen, 2, 2)
    cases = {
        r"\(1, 2, 2\)": ([complex_gaussian(gen, 1, 1), below[1]], states),
        r"\(2, 1, 1\)": (below, states[:, :1, :1]),
    }
    for rows, samples in cases.items():
        with pytest.raises(ValueError, match=rf"rows {rows} against rank\(B\) = 2"):
            nogo._in_range(b, [samples])
    loose = Projector.from_matrix(np.diag([0.7, 0.7, 0.0]).astype(np.complex128), 0.5)
    assert loose.rank == 1
    with pytest.raises(ValueError, match=r"rows \(1, 1, 1\) against rank\(B\) = 2"):
        check_conditional_uniqueness(Density.maximally_mixed(3), loose, 3, tol=0.5)


@pytest.mark.parametrize("generic_b", [False, True])
@pytest.mark.parametrize("dim", [3, 4, 8, 16, 32])
def test_separation_agrees_with_the_matrix_formulas(dim, generic_b):
    """The separator's gap, separation and below-B defect, read off one
    eigenpair, equal opnorm(D' - D_B), the traces against P = vv†,
    opnorm(PB - P) and opnorm(BP - P); a generic B tells B from B†."""
    gen = make_generator(dim)
    ranks = [int(gen.integers(1, dim)) for _ in range(3)]
    b = np.array([random_projector_matrix(gen, dim, r) for r in ranks])
    d_b = np.array([random_density_matrix(gen, dim) for _ in ranks])
    rho = nogo._in_range(b, [nogo._draw_samples(gen, r, 4) for r in ranks])[1]
    if generic_b:
        b = b + np.array([complex_gaussian(gen, dim, dim) for _ in ranks]) / dim
    gap, sep, below = nogo._separation(rho, d_b, b)
    delta = rho - d_b[:, None]
    p, bb = top_eigenprojector(delta), b[:, None]
    assert np.allclose(gap, opnorm(delta), rtol=0, atol=1e-12)
    assert np.allclose(sep, np.abs(trace(rho @ p).real - trace(d_b[:, None] @ p).real), rtol=0, atol=1e-12)
    defect = np.maximum(opnorm(p @ bb - p), opnorm(bb @ p - p))
    assert np.allclose(below, defect, rtol=0, atol=1e-12)


def _noncommuting_pair_by_svd(gen, dim, min_comm):
    """:func:`random_noncommuting_pair` with every draw judged by the exact
    commutator norm: the reference for its bounded test."""
    for _ in range(1000):
        ranks = [int(gen.integers(1, dim)) for _ in range(2)]
        a, b = (random_projector_matrix(gen, dim, r) for r in ranks)
        if commutator_norm(a, b) > min_comm:
            return a, b


@pytest.mark.parametrize("dim", [2, 3, 8, 32])
@pytest.mark.parametrize("min_comm", [0.05, 0.2, 0.45, 0.49])
def test_noncommuting_sampler_accepts_as_the_exact_test(dim, min_comm):
    # At 0.05 the Frobenius bounds decide most draws; near the largest
    # commutator norm 1/2, most go to the SVD.
    for seed in range(10):
        got = random_noncommuting_pair(make_generator(seed), dim, min_comm)
        want = _noncommuting_pair_by_svd(make_generator(seed), dim, min_comm)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_a_conditioning_trial_takes_one_svd(monkeypatch):
    """Of the 23 matrices whose opnorm a dim-32 conditioning trial judges,
    only the reported kernel norm goes through an SVD; the projector and
    state tests are decided by their Frobenius bound."""
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    nogo.conditioning_batch(1, 32, 2)
    assert sum(math.prod(s) for s in shapes) == 2


def test_a_conditioning_block_takes_two_eighs(monkeypatch):
    """One eigh of B gives both range(B) and range(I - B); the other is the
    separators' top eigenpairs."""
    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    nogo.conditioning_batch(1, 32, 2)
    assert len(calls) == 2 * len(nogo._blocks(2, nogo.SAMPLES * 32 * 32)) == 4
