import numpy as np
import pytest
from hypothesis import given, strategies as st

from nogo_lab import opcore
from nogo_lab.errors import (
    DimensionMismatch,
    NotHermitian,
)
from nogo_lab.opcore import (
    as_operator,
    commutator_norm,
    dag,
    guard_opnorm,
    opnorm,
    top_eigenpair,
    top_eigenprojector,
    trace_inner,
)
from nogo_lab.quantum import Observable, density_defects, require_density, spectral_projector
from nogo_lab.rng import make_generator

from conftest import basis_projector, plus_projector, random_hermitian


class TestAsOperator:
    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            as_operator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            as_operator(m)

    def test_accepts_real_input(self):
        m = as_operator([[1, 0], [0, 1]])
        assert m.dtype == np.complex128


def _level_projectors(obs: Observable, gap: float = 1e-8) -> list:
    """(value, projector matrix) of each level of ``obs`` at ``gap``."""
    return [(lam, spectral_projector(obs, [lam], gap).mat) for lam in obs.eigenvalues(gap)]


def _reconstruct(obs: Observable, gap: float = 1e-8) -> np.ndarray:
    return sum(lam * p for lam, p in _level_projectors(obs, gap))


class TestSpectralDecompose:
    def test_identity(self):
        levels = _level_projectors(Observable.from_matrix(np.eye(3)))
        assert len(levels) == 1
        lam, p = levels[0]
        assert lam == pytest.approx(1.0)
        assert opnorm(p - np.eye(3)) < 1e-12

    def test_diagonal_with_degeneracy(self):
        levels = _level_projectors(Observable.from_matrix(np.diag([1.0, 0.0, 0.0])))
        assert [round(l) for l, _ in levels] == [1, 0]
        assert opnorm(levels[0][1] - np.diag([1.0, 0, 0])) < 1e-12
        assert opnorm(levels[1][1] - np.diag([0.0, 1, 1])) < 1e-12

    def test_clustering_merges_near_degenerate(self):
        levels = _level_projectors(Observable.from_matrix(np.diag([2.0, 2.0, 5.0])))
        assert len(levels) == 2
        by_value = {round(l): p for l, p in levels}
        assert round(np.trace(by_value[2]).real) == 2

    def test_the_gap_decides_the_levels(self):
        obs = Observable.from_matrix(np.diag([1.0, 1.0 + 1e-7, 0.0]))
        assert len(obs.eigenvalues(1e-8)) == 3
        assert len(obs.eigenvalues(1e-6)) == 2
        assert spectral_projector(obs, [1.0], 1e-6).rank == 2
        assert spectral_projector(obs, [1.0], 1e-8).rank == 1

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    def test_clustering_matches_transitive_closure(self, steps):
        # spectrum on a 0.6e-8 grid; the reference links levels pairwise, as in
        # the definition, and counts the connected groups
        values = [0.6e-8 * k for k in steps]
        parent = list(range(len(values)))
        for i in range(len(values)):
            for j in range(len(values)):
                if abs(values[i] - values[j]) < 1e-8:
                    parent = [parent[i] if p == parent[j] else p for p in parent]
        obs = Observable.from_matrix(np.diag(values))
        assert len(obs.eigenvalues(1e-8)) == len(set(parent))

    def test_random_hermitian_reconstruction(self):
        # 1000 matrices across dims 2-8
        gen = make_generator(11)
        for dim in range(2, 9):
            for _ in range(143):
                h = random_hermitian(gen, dim)
                assert opnorm(_reconstruct(Observable.from_matrix(h)) - h) <= 1e-10

    def test_skew_hermitian_rejected(self):
        # normal but not Hermitian: eigenvalues +-i/2 and 0
        c = np.array([[0, 0.5, 0], [-0.5, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(NotHermitian):
            Observable.from_matrix(c)

    def test_rejects_non_normal(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitian):
            Observable.from_matrix(m)

    def test_eigenvalues_are_real_floats(self):
        obs = Observable.from_matrix(random_hermitian(make_generator(5), 4))
        assert all(type(lam) is float for lam in obs.eigenvalues())
        assert list(obs.eigenvalues()) == sorted(obs.eigenvalues(), reverse=True)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_round_trip_property(self, dim, seed):
        h = random_hermitian(make_generator(seed), dim)
        obs = Observable.from_matrix(h)
        ps = [p for _, p in _level_projectors(obs)]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                assert opnorm(ps[i] @ ps[j]) <= 1e-9
        assert opnorm(sum(ps) - np.eye(dim)) <= 1e-9
        assert opnorm(_reconstruct(obs) - h) <= 1e-10


class TestTraceInner:
    def test_normalized_identity(self):
        assert trace_inner(np.eye(3) / 3, np.eye(3)) == pytest.approx(1.0)

    def test_orthogonal_projectors(self):
        p1 = basis_projector(3, 0).mat
        p2 = basis_projector(3, 1).mat
        assert abs(trace_inner(p1, p2)) < 1e-15

    def test_diagonal_case(self):
        # sum of diagonal products: 1/2 + 1/3 + 0
        d = np.diag([1 / 2, 1 / 3, 1 / 6])
        b = np.diag([1.0, 1.0, 0.0])
        assert trace_inner(d, b).real == pytest.approx(5 / 6, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_inner(np.eye(2), np.eye(3))

    @given(st.integers(0, 5000))
    def test_density_projector_pairing_is_a_probability(self, seed):
        gen = make_generator(seed)
        dim = int(gen.integers(2, 7))
        d = opcore.random_density_matrix(gen, dim)
        p = opcore.random_projector_matrix(gen, dim, int(gen.integers(0, dim + 1)))
        val = trace_inner(d, p)
        assert abs(val.imag) <= 1e-9
        assert -1e-9 <= val.real <= 1 + 1e-9


class TestAnnihilationWitness:
    """:func:`top_eigenprojector` as the state realizing opnorm(H)."""

    def test_diagonal_maximum(self):
        b = np.diag([1.0, -1.0, 0.0])
        d = top_eigenprojector(b)
        assert abs(trace_inner(d, b)) == pytest.approx(1.0, abs=1e-10)

    def test_witness_is_rank_one_density(self):
        gen = make_generator(17)
        h = random_hermitian(gen, 5)
        d = top_eigenprojector(h)
        assert np.trace(d).real == pytest.approx(1.0, abs=1e-10)
        assert opnorm(d @ d - d) < 1e-10

    @given(st.integers(2, 6), st.integers(0, 10_000), st.booleans())
    def test_nonzero_trace_for_every_normal_nonzero(self, dim, seed, sandwich):
        # BAB - ABA of two projectors has a spectrum symmetric about 0, so
        # either sign of the top eigenvalue may be picked; both realize the norm.
        gen = make_generator(seed)
        if sandwich:
            a, b = (opcore.random_projector_matrix(gen, dim, int(gen.integers(1, dim))) for _ in "ab")
            h = b @ a @ b - a @ b @ a
        else:
            h = random_hermitian(gen, dim)
        if opnorm(h) <= 1e-9:
            return
        d = top_eigenprojector(h)
        require_density(dim, *density_defects(d))
        assert opnorm(d @ d - d) <= 1e-10
        assert abs(trace_inner(d, h)) >= opnorm(h) * (1 - 1e-9)


class TestCommutatorNorm:
    def test_self_commutes(self):
        h = random_hermitian(make_generator(1), 4)
        assert commutator_norm(h, h) < 1e-12

    def test_diagonals_commute(self):
        assert commutator_norm(np.diag([1.0, 2, 3]), np.diag([4.0, 5, 6])) < 1e-15

    def test_overlapping_rays(self):
        a = basis_projector(3, 0).mat
        b = plus_projector(3, 0, 1).mat
        c = a @ b - b @ a
        # oracle: eigenvalues of the commutator are +-i/2
        assert max(abs(np.linalg.eigvals(c))) == pytest.approx(0.5, abs=1e-12)
        assert commutator_norm(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator_norm(np.eye(2), np.eye(3))


def test_skew_hermitian_norm_square_identity():
    # normality gives opnorm(C)^2 = opnorm(C^2); scaling toward zero keeps it
    gen = make_generator(23)
    g = opcore.complex_gaussian(gen, 5, 5)
    c0 = g - dag(g)
    for scale in (1.0, 1e-3, 1e-6, 1e-9):
        c = c0 * (scale / opnorm(c0))
        assert opnorm(c @ c) == pytest.approx(opnorm(c) ** 2, rel=1e-9)


@pytest.mark.parametrize("dim", [1, 3, 4, 16, 32])
def test_stacked_opnorm_matches_the_loop_bit_for_bit(dim):
    gen = make_generator(dim)
    stack = np.array([opcore.complex_gaussian(gen, dim, dim) for _ in range(6)])
    assert np.array_equal(opnorm(stack), [opnorm(x) for x in stack])
    nested = stack.reshape(2, 3, dim, dim)
    assert np.array_equal(opnorm(nested), opnorm(stack).reshape(2, 3))
    assert isinstance(opnorm(stack[0]), float)


def test_opnorm_of_empty_matrices_is_zero():
    assert opnorm(np.zeros((3, 0))) == 0.0
    assert np.array_equal(opnorm(np.zeros((2, 3, 0))), [0.0, 0.0])
    assert opnorm(np.zeros((0, 4, 4))).shape == (0,)


@pytest.mark.parametrize("dim", [1, 3, 4, 16, 32])
def test_stacked_top_eigenprojector_matches_the_loop_bit_for_bit(dim):
    gen = make_generator(dim)
    stack = np.array([random_hermitian(gen, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
    loop = [[top_eigenprojector(h) for h in row] for row in stack]
    assert np.array_equal(top_eigenprojector(stack), loop)


@pytest.mark.parametrize("dim", [1, 3, 4, 16, 32])
def test_stacked_top_eigenpair_matches_the_loop_bit_for_bit(dim):
    gen = make_generator(dim)
    stack = np.array([random_hermitian(gen, dim) for _ in range(6)]).reshape(2, 3, dim, dim)
    lam, v = top_eigenpair(stack)
    loop = [[top_eigenpair(h) for h in row] for row in stack]
    assert np.array_equal(lam, [[x for x, _ in row] for row in loop])
    assert np.array_equal(v, [[y for _, y in row] for row in loop])
    assert np.allclose(np.abs(lam), opnorm(stack), rtol=0, atol=1e-12)
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(stack @ v[..., None], lam[..., None, None] * v[..., None], atol=1e-12)


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
def test_guard_opnorm_is_exact_wherever_the_bound_cannot_decide(tol):
    """The Frobenius norm where it is at most tol/2, else the exact opnorm,
    bit for bit; for one matrix and for a stack."""
    gen = make_generator(31)
    stack = []
    for f in (1e-3, 0.4, 0.5 + 1e-3, 1 - 1e-3, 1 + 1e-3, 1.5):
        g = opcore.complex_gaussian(gen, 4, 4)
        stack.append(g * (f * tol / opnorm(g)))
    stack = np.array(stack)
    fro = np.linalg.norm(stack, axis=(-2, -1))
    want = np.where(fro <= tol / 2, fro, [opnorm(x) for x in stack])
    assert np.array_equal(guard_opnorm(stack, tol), want)
    assert [guard_opnorm(x, tol) for x in stack] == want.tolist()
    assert fro[0] <= tol / 2 < fro[2:].min()  # both paths are taken
    assert guard_opnorm(stack.reshape(2, 3, 4, 4), tol).shape == (2, 3)


def test_guard_opnorm_does_not_trust_an_underflowed_frobenius_norm():
    # Entries of 1e-170 square to zero, so the summed Frobenius norm reads 0.
    x = np.full((4, 4), 1e-170, dtype=complex)
    assert np.linalg.norm(x) == 0.0
    assert guard_opnorm(x, 1e-300) == opnorm(x) > 1e-300


def test_opnorm_of_a_non_finite_matrix_is_inf_without_an_svd(monkeypatch):
    gen = make_generator(37)
    stack = opcore.complex_gaussian(gen, 12, 3).reshape(3, 2, 2, 3)[..., :2]
    stack = np.ascontiguousarray(stack)
    want = opnorm(stack)
    stack[0, 1, 0, 0] = np.nan
    stack[2, 0, 1, 1] = complex(0, np.inf)
    want[0, 1] = want[2, 0] = np.inf
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert np.array_equal(opnorm(stack), want)  # the finite members keep their bits
    assert shapes == [(4, 2, 2)]  # one SVD, of the finite members only
    assert opnorm(stack[0, 1]) == np.inf and len(shapes) == 1
    with np.errstate(invalid="ignore"):  # the Frobenius norm of inf*1j
        assert guard_opnorm(stack[2, 0], 1e-9) == np.inf


@pytest.mark.parametrize("bound", [1e-9, 0.05, 0.5])
def test_opnorm_exceeds_is_the_exact_test(bound):
    gen = make_generator(41)
    for f in (1e-3, 0.4, 0.9, 1 - 1e-9, 1 + 1e-9, 1.1, 2.5, 10.0):
        for dim in (1, 3, 8):
            g = opcore.complex_gaussian(gen, dim, dim)
            x = g * (f * bound / opnorm(g))
            assert opcore.opnorm_exceeds(x, bound) == (opnorm(x) > bound)
    nan = np.full((2, 2), np.nan, dtype=complex)
    assert opcore.opnorm_exceeds(nan, bound)
