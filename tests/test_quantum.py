import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nogo_lab.errors import (
    ConditioningOnNull,
    NotDensity,
    NotProjector,
    UnknownEigenvalue,
)
from nogo_lab.opcore import (
    BUILT_TOL,
    COARSE_TOL,
    TOL,
    dag,
    opnorm,
    random_density_matrix,
    random_projector_matrix,
    random_unitary,
    trace,
    trace_inner,
)
from nogo_lab.quantum import (
    Density,
    Observable,
    Projector,
    condition,
    conditional_probability,
    density_defects,
    leq,
    luders_density,
    projector_defects,
    projector_rank,
    require_density,
    spectral_projector,
)
from nogo_lab.rng import make_generator

from conftest import basis_projector, plus_projector, projector_below


class TestRoleValidation:
    def test_projector_accepts_rank_two(self):
        p = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        assert p.rank == 2

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(NotProjector):
            Projector.from_matrix(np.diag([0.5, 0.0]))

    def test_density_rejects_negative(self):
        with pytest.raises(NotDensity):
            Density.from_matrix(np.diag([1.5, -0.5]))

    def test_density_rejects_unnormalized(self):
        with pytest.raises(NotDensity):
            Density.from_matrix(np.diag([0.7, 0.7]))

    def test_observable_has_real_spectrum(self):
        obs = Observable.from_matrix(np.diag([2.0, 2.0, 5.0]))
        assert sorted(set(obs.eigenvalues())) == pytest.approx([2.0, 5.0])


class TestSpectralProjector:
    def test_single_value(self):
        a = Observable.from_matrix(np.diag([1.0, 0.0, 0.0]))
        p = spectral_projector(a, [1.0])
        assert opnorm(p.mat - np.diag([1.0, 0, 0])) < 1e-12

    def test_full_spectrum_gives_identity(self):
        a = Observable.from_matrix(np.diag([1.0, 0.0, 0.0]))
        p = spectral_projector(a, [0.0, 1.0])
        assert opnorm(p.mat - np.eye(3)) < 1e-12

    def test_empty_selection_gives_zero(self):
        a = Observable.from_matrix(np.diag([1.0, 0.0, 0.0]))
        assert opnorm(spectral_projector(a, []).mat) == 0.0

    def test_degenerate_selection(self):
        a = Observable.from_matrix(np.diag([2.0, 2.0, 5.0]))
        p = spectral_projector(a, [2.0])
        assert p.rank == 2
        assert opnorm(p.mat - np.diag([1.0, 1.0, 0.0])) < 1e-12

    def test_unknown_value(self):
        a = Observable.from_matrix(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(UnknownEigenvalue):
            spectral_projector(a, [0.5])

    def test_a_level_named_twice_is_added_once(self):
        a = Observable.from_matrix(np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(spectral_projector(a, [1.0, 1.0]).mat, spectral_projector(a, [1.0]).mat)
        # two values within the gap of one level name that level twice
        p = spectral_projector(a, [1.0, 1.0 + 1e-9, 0.0])
        assert p.rank == 3 and opnorm(p.mat - np.eye(3)) < 1e-12


class TestConditionalProbability:
    def test_conditioning_on_itself(self):
        d = Density.maximally_mixed(3)
        b = plus_projector(3, 0, 1)
        assert conditional_probability(d, b, b) == pytest.approx(1.0)

    def test_orthogonal_events(self):
        d = Density.maximally_mixed(3)
        a, b = basis_projector(3, 0), basis_projector(3, 1)
        assert conditional_probability(d, a, b) == pytest.approx(0.0)

    def test_nested_events(self):
        # A <= B collapses BAB to A: (1/3)/(2/3) = 1/2
        d = Density.maximally_mixed(3)
        a = basis_projector(3, 0)
        b = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        assert conditional_probability(d, a, b) == pytest.approx(0.5, abs=1e-12)

    def test_null_conditioning(self):
        d = Density.pure([1, 0, 0])
        b = basis_projector(3, 2)
        with pytest.raises(ConditioningOnNull):
            conditional_probability(d, basis_projector(3, 0), b)

    def test_loose_tol_is_not_a_null_event_threshold(self):
        # tr[DB] = 0.25 is no null event, however loose the comparison tol
        d = Density.maximally_mixed(4)
        b = basis_projector(4, 0)
        assert conditional_probability(d, b, b, tol=0.5) == pytest.approx(1.0)
        assert opnorm(luders_density(d, b, tol=0.5).mat - b.mat) < 1e-12

    @given(st.integers(0, 5000))
    def test_numerator_positive_and_bounded(self, seed):
        gen = make_generator(seed)
        dim = int(gen.integers(2, 6))
        d = random_density_matrix(gen, dim)
        a = random_projector_matrix(gen, dim, int(gen.integers(1, dim + 1)))
        b = random_projector_matrix(gen, dim, int(gen.integers(1, dim + 1)))
        num = np.trace(d @ b @ a @ b).real
        assert num >= -1e-9  # BAB = (AB)^dag (AB) is positive
        # BAB <= B as operators
        eigs = np.linalg.eigvalsh(b - b @ a @ b)
        assert eigs.min() >= -1e-9
        pb = np.trace(d @ b).real
        if pb > 1e-9:
            val = conditional_probability(
                Density.from_matrix(d), Projector.from_matrix(a, tol=1e-8),
                Projector.from_matrix(b, tol=1e-8),
            )
            assert 0.0 <= val <= 1.0


class TestLudersDensity:
    def test_partial_trace_example(self):
        d = Density.maximally_mixed(3)
        b = Projector.from_matrix(np.diag([1.0, 1.0, 0.0]))
        out = luders_density(d, b)
        assert opnorm(out.mat - b.mat / 2) < 1e-12
        assert trace_inner(out.mat, b.mat).real == pytest.approx(1.0)

    def test_identity_conditioning_is_noop(self):
        gen = make_generator(5)
        d = Density.from_matrix(random_density_matrix(gen, 4))
        out = luders_density(d, Projector.identity(4))
        assert opnorm(out.mat - d.mat) < 1e-12

    def test_pure_state_fixed_point(self):
        p = basis_projector(3, 0)
        d = Density.from_matrix(p.mat)
        assert opnorm(luders_density(d, p).mat - p.mat) < 1e-12


class TestCondition:
    """The conditioning step every caller shares: tr[DB], the null-event
    refusal and BDB/tr[DB]."""

    @pytest.mark.parametrize("dim", [3, 8, 32])
    def test_a_stack_has_the_bits_of_its_pairs(self, dim):
        gen = make_generator(dim)
        d = np.array([random_density_matrix(gen, dim) for _ in range(5)])
        b = np.array([random_projector_matrix(gen, dim, int(gen.integers(1, dim))) for _ in d])
        pb, d_b = condition(d, b)
        pairs = [condition(x, y) for x, y in zip(d, b)]
        assert np.array_equal(pb, [p for p, _ in pairs])
        assert np.array_equal(d_b, [m for _, m in pairs])

    def test_a_stack_refuses_its_first_null_trial(self):
        d = np.array([np.diag([1 - 1e-10, 1e-10, 0.0]).astype(complex)] * 3)
        b = np.array([basis_projector(3, k).mat for k in range(3)])
        with pytest.raises(ConditioningOnNull, match=r"^tr\[DB\] = 1\.000e-10 <= 1e-09$"):
            condition(d, b)
        with pytest.raises(ConditioningOnNull, match=r"^tr\[DB\] = 0\.000e\+00 <= 1e-09$"):
            condition(d[[0, 2, 1]], b[[0, 2, 1]])

    def test_luders_density_is_the_conditioned_state(self):
        gen = make_generator(11)
        d = Density.from_matrix(random_density_matrix(gen, 4))
        b = Projector.from_matrix(random_projector_matrix(gen, 4, 2), BUILT_TOL)
        assert np.array_equal(luders_density(d, b).mat, condition(d.mat, b.mat)[1])


class TestOrder:
    def test_nested(self):
        assert leq(basis_projector(3, 0), Projector.from_matrix(np.diag([1.0, 1.0, 0.0])))

    def test_reflexive(self):
        p = plus_projector(3, 1, 2)
        assert leq(p, p)

    def test_overlapping_not_ordered(self):
        # AB != A by direct multiplication
        a = basis_projector(3, 0)
        b = plus_projector(3, 0, 1)
        assert not leq(a, b)


@given(st.integers(0, 5000))
def test_luders_conditioning_is_idempotent(seed):
    gen = make_generator(seed)
    dim = int(gen.integers(2, 7))
    d = Density.from_matrix(random_density_matrix(gen, dim))
    b = Projector.from_matrix(
        random_projector_matrix(gen, dim, int(gen.integers(1, dim + 1))), tol=1e-8
    )
    if trace_inner(d.mat, b.mat).real <= 1e-9:
        return
    once = luders_density(d, b)
    twice = luders_density(once, b)
    assert opnorm(twice.mat - once.mat) <= 1e-10


def test_order_conditional_collapse():
    # leq(C, B) turns tr[DBCB]/tr[DB] into tr[DC]/tr[DB]
    gen = make_generator(77)
    for _ in range(50):
        dim = int(gen.integers(3, 7))
        rank_b = int(gen.integers(2, dim + 1))
        b = Projector.from_matrix(random_projector_matrix(gen, dim, rank_b), tol=1e-8)
        c = projector_below(b, gen)
        d = Density.from_matrix(random_density_matrix(gen, dim))
        expected = trace_inner(d.mat, c.mat).real / trace_inner(d.mat, b.mat).real
        assert conditional_probability(d, c, b) == pytest.approx(expected, abs=1e-9)


# Guard values decide as exact opnorms: defects of operator norm f * tol for
# f on both sides of the bound, and of the bound's factor 2.
FACTORS = (1e-3, 0.5 - 1e-3, 0.5 + 1e-3, 1 - 1e-3, 1 + 1e-3, 1.5)


def _conjugated(gen, diagonal):
    u = random_unitary(gen, len(diagonal))
    return u @ np.diag(diagonal).astype(complex) @ dag(u)


def _defect_cases(gen, tol):
    """5 x 5 projector-like and state-like matrices, each with one defect of
    operator norm f * tol: idempotence (P with one eigenvalue 1 - eps,
    eps - eps^2 = f tol) or Hermitian (X + iH, opnorm(2iH) = f tol)."""
    p = _conjugated(gen, [1, 1, 0, 0, 0])
    d = random_density_matrix(gen, 5)
    projectors, states = [], []
    for f in FACTORS:
        eps = (1 - math.sqrt(1 - 4 * f * tol)) / 2
        skew = 1j * _conjugated(gen, [f * tol / 2, -0.3 * f * tol, 0.2 * f * tol, 0, 0])
        projectors += [_conjugated(gen, [1 - eps, 1, 0, 0, 0]), p + skew]
        states.append(d + skew)
    return np.array(projectors), np.array(states)


def _exact_projector_defects(m):
    return opnorm(m - dag(m)), opnorm(m @ m - m), trace(m).real


def _exact_density_defects(m):
    return opnorm(m - dag(m)), np.linalg.eigvalsh((m + dag(m)) / 2).min(), trace(m).real


def _verdict(judge, defects, tol):
    try:
        return judge(5, *defects, tol)
    except (NotProjector, NotDensity) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tol", [1e-12, TOL, COARSE_TOL, 1e-3])
def test_guard_defects_decide_as_the_exact_defects(tol):
    """Every verdict and message of the projector and state tests, on one
    matrix and on a stack, at the guard's tolerance and a coarser one,
    equals the SVD path's."""
    projectors, states = _defect_cases(make_generator(29), tol)
    verdicts = []
    for stack, defects, exact, judge in (
        (projectors, projector_defects, _exact_projector_defects, projector_rank),
        (states, density_defects, _exact_density_defects, require_density),
    ):
        stacked = defects(stack, tol)
        for i, m in enumerate(stack):
            for at in (tol, 2 * tol):
                want = _verdict(judge, exact(m), at)
                assert _verdict(judge, defects(m, tol), at) == want
                assert _verdict(judge, [x[i] for x in stacked], at) == want
                verdicts.append(want)
    assert any(isinstance(v, tuple) for v in verdicts)
    assert any(not isinstance(v, tuple) for v in verdicts)


# Least eigenvalues, in units of tol, on both sides of the state test's bound
# and of the tol/2 shift that the Cholesky factorization tries.
LEAST = (-(1 - 1e-3), -(1 + 1e-3), -(1 - 0.5), -(1 + 0.5), -0.25, 0.25)


def _states_with_least(gen, dim, tol):
    """Unit-trace Hermitian matrices U diag(f tol, rest) U†, one per f in
    ``LEAST``."""
    states = []
    for f in LEAST:
        rest = gen.uniform(0.5, 1.0, dim - 1)
        states.append(_conjugated(gen, [f * tol, *(rest * (1 - f * tol) / rest.sum())]))
    return np.array(states)


@pytest.mark.parametrize("dim", [2, 5, 32])
@pytest.mark.parametrize("tol", [1e-12, TOL, COARSE_TOL, 1e-3])
def test_the_state_test_decides_as_eigvalsh(tol, dim):
    """Every verdict and message of the state test, on each matrix and on
    stacks that fail and pass, at the guard's tolerance and a coarser one,
    equals the one from the ``eigvalsh`` least eigenvalue."""
    states = _states_with_least(make_generator(31), dim, tol)
    passing = states[[k for k, f in enumerate(LEAST) if f > -0.5]]
    verdicts = []
    for stack in (states, passing):
        stacked = density_defects(stack, tol)
        for i, m in enumerate(stack):
            for at in (tol, 2 * tol):
                want = _verdict(require_density, _exact_density_defects(m), at)
                assert _verdict(require_density, density_defects(m, tol), at) == want
                assert _verdict(require_density, [x[i] for x in stacked], at) == want
                verdicts.append(want)
    assert any(isinstance(v, tuple) for v in verdicts)
    assert any(not isinstance(v, tuple) for v in verdicts)


def test_a_passing_stack_of_states_takes_no_eigvalsh(monkeypatch):
    states = np.array([random_density_matrix(make_generator(k), 32) for k in range(6)])

    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    herm, least, tr = density_defects(states, TOL)
    for i in range(len(states)):
        require_density(32, herm[i], least[i], tr[i], TOL)
    assert np.all(least >= -TOL)


@pytest.mark.parametrize("tol", [1e-300, 1e-15, TOL])
def test_rounding_on_a_singular_state_is_judged_as_eigvalsh_judges_it(tol):
    """A pure state's zero eigenvalues come out of ``eigvalsh`` as rounding
    of either sign, far beyond a tiny ``tol``; the Cholesky path must not
    decide where its own rounding is as large."""
    gen = make_generator(37)
    for dim in (2, 5, 32):
        for _ in range(8):
            m = _conjugated(gen, [1.0] + [0.0] * (dim - 1))
            want = _verdict(require_density, _exact_density_defects(m), tol)
            assert _verdict(require_density, density_defects(m, tol), tol) == want
