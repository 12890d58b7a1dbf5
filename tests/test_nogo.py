import numpy as np
import pytest

from nogo_lab import nogo
from nogo_lab.errors import ConditioningOnNull, DimensionTooSmall
from nogo_lab.nogo import (
    FAIL,
    HYPOTHESIS_VIOLATED,
    PASS,
    check_conditional_uniqueness,
    check_forced_commutation,
    check_forced_commutation_alt,
    commutation_survey,
    trace_symmetry_gap,
)
from nogo_lab.opcore import (
    commutator_norm,
    dag,
    opnorm,
    random_density_matrix,
    random_projector_matrix,
    trace_inner,
)
from nogo_lab.quantum import Density, Projector, luders_density
from nogo_lab.rng import make_generator

from conftest import (
    basis_projector,
    commuting_projector_pair,
    noncommuting_projector_pair,
    plus_projector,
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
        gap, _ = trace_symmetry_gap(Projector.zero(3), plus_projector(3, 0, 1))
        assert gap == 0.0


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
        rep = check_forced_commutation_alt(Projector.identity(4), b)
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
        rep = check_conditional_uniqueness(d, Projector.identity(4), trials=20, gen=gen)
        assert rep.verdict == PASS
        assert opnorm(luders_density(d, Projector.identity(4)).mat - d.mat) < 1e-12

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
                Density.maximally_mixed(2), Projector.identity(2), trials=5
            )

    def test_rejects_null_conditioning(self):
        d = Density.pure([1, 0, 0])
        with pytest.raises(ConditioningOnNull):
            check_conditional_uniqueness(d, basis_projector(3, 2), trials=5)

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


class TestCommutationSurvey:
    def test_all_diagonal_set_admits_model(self):
        projs = {
            "P1": Projector.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "P2": Projector.from_matrix(np.diag([1.0, 1.0, 0.0])),
        }
        rep = commutation_survey(projs, Density.maximally_mixed(3))
        assert rep.verdict == PASS
        assert rep.model is not None
        from nogo_lab.hvmodel import check_spectrum_rule

        assert check_spectrum_rule(rep.model).ok

    def test_obstruction_is_flagged_with_witness(self, spot_pair):
        a, b = spot_pair
        rep = commutation_survey({"A": a, "B": b}, Density.maximally_mixed(3))
        assert rep.verdict == HYPOTHESIS_VIOLATED
        assert rep.witness is not None
        assert "0.353553" in rep.parts[0].name

    def test_empty_set_is_vacuous(self):
        rep = commutation_survey({}, Density.maximally_mixed(3))
        assert rep.verdict == PASS

    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmall):
            commutation_survey({}, Density.maximally_mixed(2))


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
