import numpy as np
import pytest

from nogo_lab import hvmodel
from nogo_lab.check import fold
from nogo_lab.errors import (
    ConditioningOnNull,
    NotCommuting,
    NotCommutingFamily,
    NotProjector,
    OrderViolation,
    UnregisteredObservable,
)
from nogo_lab.hvmodel import (
    HVModel,
    PhaseSpace,
    build_commuting_model,
    check_conditional_rule,
    check_joint_rule,
    check_marginal_rule,
    check_model,
    check_order_rule,
    check_product_rule,
    check_spectrum_rule,
    check_sum_rule,
    event_weight,
    preimage,
)
from nogo_lab.fileio import load_model, resolve_input_path
from nogo_lab.opcore import (
    COARSE_TOL, TOL, commutator_norm, dag, random_density_matrix, random_unitary,
)
from nogo_lab.quantum import Density, Observable, Projector, conditional_probability, leq
from nogo_lab.rng import make_generator, trial_generator

from conftest import commuting_projector_pair


def diagonal_family():
    return {
        "O1": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
        "O2": Observable.from_matrix(np.diag([1.0, 1.0, 0.0])),
        "SUM": Observable.from_matrix(np.diag([2.0, 1.0, 0.0])),
        "PROD": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
    }


@pytest.fixture
def diag_model():
    return build_commuting_model(
        diagonal_family(), Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6]))
    )


def with_table_entry(m: HVModel, label: str, index: int, value: float) -> HVModel:
    values = {k: v.copy() for k, v in m.values.items()}
    values[label][index] = value
    return HVModel(space=m.space, registered=m.registered, values=values, state=m.state)


def with_weight(m: HVModel, index: int, value: float) -> HVModel:
    w = m.space.weights.copy()
    w[index] = value
    return HVModel(
        space=PhaseSpace(points=m.space.points, weights=w),
        registered=m.registered,
        values=m.values,
        state=m.state,
    )


class TestBuildCommutingModel:
    def test_diagonal_example(self, diag_model):
        assert sorted(np.round(diag_model.space.weights, 12)) == pytest.approx(
            sorted([0.5, 1 / 3, 1 / 6])
        )
        assert len(diag_model.space.points) == 3

    def test_single_identity_observable(self):
        m = build_commuting_model(
            {"I": Observable.from_matrix(np.eye(2))}, Density.maximally_mixed(2)
        )
        assert m.space.weights.sum() == pytest.approx(1.0)
        assert set(np.round(m.value_row("I"), 12)) == {1.0}

    def test_rejects_noncommuting_family(self):
        fam = {
            "A": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "B": Observable.from_matrix(
                np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
            ),
        }
        with pytest.raises(NotCommutingFamily):
            build_commuting_model(fam, Density.maximally_mixed(3))

    def test_random_shared_basis_family_passes_all_checkers(self):
        gen = make_generator(101)
        for _ in range(20):
            dim = int(gen.integers(3, 7))
            u = random_unitary(gen, dim)
            da = gen.integers(0, 2, size=dim).astype(float)
            db = gen.integers(0, 3, size=dim).astype(float)
            a = u @ np.diag(da.astype(complex)) @ dag(u)
            b = u @ np.diag(db.astype(complex)) @ dag(u)
            fam = {
                "A": Observable.from_matrix(a, tol=1e-8),
                "B": Observable.from_matrix(b, tol=1e-8),
                "A+B": Observable.from_matrix(a + b, tol=1e-8),
                "AB": Observable.from_matrix(a @ b, tol=1e-8),
            }
            state = Density.from_matrix(random_density_matrix(gen, dim))
            m = build_commuting_model(fam, state, tol=1e-8)
            assert check_spectrum_rule(m).ok
            assert check_sum_rule(m, "A", "B", tol=1e-9).ok
            assert check_product_rule(m, "A", "B", tol=1e-9).ok
            for label in fam:
                eigs = sorted(set(fam[label].eigenvalues()))
                assert check_marginal_rule(m, label, eigs).residual <= 1e-9
                for v in eigs:
                    assert check_marginal_rule(m, label, [v]).residual <= 1e-9
            va = fam["A"].eigenvalues()[0]
            vb = fam["B"].eigenvalues()[0]
            assert check_joint_rule(m, "A", [va], "B", [vb]).residual <= 1e-9


class TestPreimage:
    def test_constant_assignment_gives_full_space(self):
        m = build_commuting_model(
            {"I": Observable.from_matrix(np.eye(3))}, Density.maximally_mixed(3)
        )
        assert preimage(m, "I", 1.0) == frozenset(m.space.points)

    def test_unattained_value_gives_empty_event(self, diag_model):
        assert preimage(diag_model, "O1", 7.0) == frozenset()

    def test_three_point_model(self, diag_model):
        ev = preimage(diag_model, "O1", 1.0)
        assert len(ev) == 1
        assert event_weight(diag_model, ev) == pytest.approx(0.5)

    def test_unregistered_label(self, diag_model):
        with pytest.raises(UnregisteredObservable):
            preimage(diag_model, "NOPE", 1.0)

    def test_events_partition_space(self, diag_model):
        events = [preimage(diag_model, "O2", v) for v in (0.0, 1.0)]
        assert frozenset().union(*events) == frozenset(diag_model.space.points)
        assert events[0] & events[1] == frozenset()


class TestSpectrumRule:
    def test_built_model_passes(self, diag_model):
        assert check_spectrum_rule(diag_model).ok

    def test_off_spectrum_value_flagged(self, diag_model):
        bad = with_table_entry(diag_model, "O1", 0, 0.5)
        rep = check_spectrum_rule(bad)
        assert not rep.ok
        assert rep.parts[0].residual == pytest.approx(0.5)

    def test_value_within_cluster_gap_passes(self, diag_model):
        nearly = with_table_entry(
            diag_model, "O1", int(np.argmax(diag_model.value_row("O1"))), 1 + 5e-10
        )
        assert check_spectrum_rule(nearly, cluster_gap=1e-8).ok


class TestSumProductRules:
    def test_commuting_pair_passes(self, diag_model):
        assert check_sum_rule(diag_model, "O1", "O2").ok
        assert check_product_rule(diag_model, "O1", "O2").ok

    def test_corrupted_table_flagged(self, diag_model):
        i = int(np.argmax(diag_model.value_row("SUM")))
        bad = with_table_entry(diag_model, "SUM", i, 0.0)
        rep = check_sum_rule(bad, "O1", "O2")
        assert not rep.ok and rep.parts

    def test_product_violation_flagged(self, diag_model):
        # f(O1)=1, f(O2)=1 at w0 but PROD forced to 0 there
        i = int(np.argmax(diag_model.value_row("PROD")))
        bad = with_table_entry(diag_model, "PROD", i, 0.0)
        rep = check_product_rule(bad, "O1", "O2")
        assert not rep.ok

    def test_noncommuting_pair_rejected(self):
        fam = diagonal_family()
        fam["X"] = Observable.from_matrix(
            np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
        )
        # register by hand: model built from commuting part, X injected after
        m = build_commuting_model(
            diagonal_family(), Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6]))
        )
        m2 = HVModel(
            space=m.space,
            registered={**m.registered, "X": fam["X"]},
            values={**m.values, "X": np.zeros(3)},
            state=m.state,
        )
        with pytest.raises(NotCommuting):
            check_sum_rule(m2, "O1", "X")
        with pytest.raises(NotCommuting):
            check_product_rule(m2, "O1", "X")

    def test_missing_compound_rejected(self):
        fam = {k: v for k, v in diagonal_family().items() if k in ("O1", "O2")}
        m = build_commuting_model(fam, Density.maximally_mixed(3))
        with pytest.raises(UnregisteredObservable):
            check_sum_rule(m, "O1", "O2")

    def test_self_product_is_idempotence(self, diag_model):
        # O1 * O1 = O1 is registered as PROD's twin via matrix equality
        assert check_product_rule(diag_model, "O1", "O1").ok


class TestMarginalJointRules:
    def test_full_spectrum_is_total_mass(self, diag_model):
        rep = check_marginal_rule(diag_model, "O2", [0.0, 1.0])
        assert rep.residual <= 1e-12

    def test_empty_selection(self, diag_model):
        assert check_marginal_rule(diag_model, "O2", []).residual <= 1e-15

    def test_diagonal_marginal_value(self, diag_model):
        # state diag(1/2,1/3,1/6), O1 = diag(1,0,0), S={1} -> both sides 1/2
        rep = check_marginal_rule(diag_model, "O1", [1.0])
        assert rep.ok and rep.residual <= 1e-12

    def test_joint_reduces_to_marginal_for_identity(self):
        fam = diagonal_family()
        fam["I"] = Observable.from_matrix(np.eye(3))
        m = build_commuting_model(fam, Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6])))
        joint = check_joint_rule(m, "O1", [1.0], "I", [1.0])
        assert joint.ok

    def test_orthogonal_joint_vanishes(self):
        fam = {
            "P1": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "P2": Observable.from_matrix(np.diag([0.0, 1.0, 0.0])),
        }
        m = build_commuting_model(fam, Density.maximally_mixed(3))
        rep = check_joint_rule(m, "P1", [1.0], "P2", [1.0])
        assert rep.ok

    def test_diagonal_joint_value(self, diag_model):
        rep = check_joint_rule(diag_model, "O1", [1.0], "O2", [1.0])
        assert rep.ok and rep.residual <= 1e-12


class TestOrderAndConditionalRules:
    def test_order_rule_reflexive(self, diag_model):
        assert check_order_rule(diag_model, "O1", "O1").ok

    def test_order_rule_zero_projector(self):
        fam = diagonal_family()
        fam["Z"] = Observable.from_matrix(np.zeros((3, 3)))
        m = build_commuting_model(fam, Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6])))
        assert check_order_rule(m, "Z", "O2").ok

    def test_order_rule_nested_events(self, diag_model):
        rep = check_order_rule(diag_model, "O1", "O2")
        assert rep.ok
        a = preimage(diag_model, "O1", 1.0)
        b = preimage(diag_model, "O2", 1.0)
        assert a < b and len(a) == 1 and len(b) == 2

    def test_order_violation_raises(self, diag_model):
        with pytest.raises(OrderViolation):
            check_order_rule(diag_model, "O2", "O1")

    def test_conditional_self_is_one(self, diag_model):
        rep = check_conditional_rule(diag_model, "O2", "O2")
        assert rep.ok

    def test_conditional_matches_trace_ratio(self, diag_model):
        # mu(a&b)/mu(b) = (1/2)/(5/6) matches tr ratio
        rep = check_conditional_rule(diag_model, "O1", "O2")
        assert rep.ok and rep.residual <= 1e-12

    def test_corrupted_weights_flagged(self, diag_model):
        bad = with_weight(diag_model, 0, diag_model.space.weights[0] + 0.1)
        rep = check_conditional_rule(bad, "O1", "O2")
        assert not rep.ok
        assert "phase-space" in rep.parts[0].detail

    def test_null_conditioning(self):
        fam = diagonal_family()
        m = build_commuting_model(fam, Density.from_matrix(np.diag([0.0, 1.0, 0.0])))
        with pytest.raises(ConditioningOnNull):
            check_conditional_rule(m, "O2", "O1")

    def test_loose_tol_is_not_a_null_event_threshold(self):
        # The bundled model's conditioning events carry mass 1/6 or more: a
        # loose --tol judges every one of them instead of skipping some.
        m = load_model(resolve_input_path("commuting.model"))

        def conditional(tol):
            (rule,) = [c for c in check_model(m, tol=tol) if c.rule == "conditional-rule"]
            return rule.name

        assert conditional(0.5) == conditional(TOL) == "conditional-rule over 6 instances"

    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_the_quantum_side_is_the_conditional_probability(self, dim):
        gen = make_generator(dim)
        compared = 0
        for _ in range(6):
            pair = commuting_projector_pair(gen, dim)
            named = dict(zip("PQ", pair))
            family = {label: Observable.from_matrix(p.mat) for label, p in named.items()}
            m = build_commuting_model(family, Density.from_matrix(random_density_matrix(gen, dim)))
            for a, b in ("PQ", "QP"):
                try:
                    rep = check_conditional_rule(m, a, b)
                except ConditioningOnNull:
                    continue
                want = conditional_probability(m.state, named[a], named[b], COARSE_TOL)
                assert rep.parts[0].detail.endswith(f"conditioned trace {want}")
                compared += 1
        assert compared


def all_rule_checks(m: HVModel):
    reports = [check_spectrum_rule(m)]
    reports.append(check_sum_rule(m, "O1", "O2"))
    reports.append(check_product_rule(m, "O1", "O2"))
    for label in m.registered:
        eigs = sorted(set(m.registered[label].eigenvalues()))
        reports.append(check_marginal_rule(m, label, eigs))
        for v in eigs:
            reports.append(check_marginal_rule(m, label, [v]))
    reports.append(check_joint_rule(m, "O1", [1.0], "O2", [1.0]))
    reports.append(check_order_rule(m, "O1", "O2"))
    try:
        reports.append(check_conditional_rule(m, "O1", "O2"))
    except ConditioningOnNull:
        pass
    return reports


def test_checker_soundness_against_single_corruptions(diag_model):
    # a single corrupted table cell is caught by at least one rule
    gen = make_generator(55)
    for _ in range(20):
        label = ("O1", "O2", "SUM", "PROD")[int(gen.integers(0, 4))]
        idx = int(gen.integers(0, 3))
        delta = 1e-7 * (1 + gen.random())  # > 10x default tolerance
        bad = with_table_entry(
            diag_model, label, idx, diag_model.value_row(label)[idx] + delta
        )
        assert any(not rep.ok for rep in all_rule_checks(bad))
    # a single corrupted weight is caught too
    for idx in range(3):
        bad = with_weight(diag_model, idx, diag_model.space.weights[idx] + 1e-7)
        assert any(not rep.ok for rep in all_rule_checks(bad))


def test_order_rule_needs_no_registered_product():
    # O1 <= O2 makes O1 O2 = O1, so no product observable has to be registered.
    fam = {k: v for k, v in diagonal_family().items() if k in ("O1", "O2")}
    m = build_commuting_model(fam, Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6])))
    assert check_order_rule(m, "O1", "O2").ok


def test_order_sites_are_listed_in_point_order():
    n = 12
    row_a = np.zeros(n)
    row_a[[2, 10]] = 1.0
    m = HVModel(
        space=PhaseSpace(points=tuple(f"w{i}" for i in range(n)), weights=np.full(n, 1 / n)),
        registered={
            "A": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "B": Observable.from_matrix(np.diag([1.0, 1.0, 0.0])),
        },
        values={"A": row_a, "B": 1.0 - row_a},
        state=Density.maximally_mixed(3),
    )
    assert [p.name for p in check_order_rule(m, "A", "B").parts] == ["w2", "w10"]
    (order,) = [c for c in check_model(m) if c.rule == "order-events-rule"]
    assert order.as_dict()["firstViolation"] == "w2: f(A)=1 but f(B)!=1"


def _checkers_one_at_a_time(m: HVModel, tol: float, gap: float) -> list:
    """The folds of ``check_model`` as its docstring states them, each
    instance from a public checker called alone on the model."""
    found = {}

    def add(check):
        found.setdefault(check.rule, []).append(check)

    def add_unless_skipped(checker, *args):
        try:
            add(checker(m, *args))
        except (UnregisteredObservable, OrderViolation, ConditioningOnNull):
            pass

    add(check_spectrum_rule(m, gap))
    labels = sorted(m.registered)
    spectra = {la: sorted(set(m.registered[la].eigenvalues(gap))) for la in labels}
    for la in labels:
        for v in spectra[la]:
            add(check_marginal_rule(m, la, [v], tol, gap))
        add(check_marginal_rule(m, la, spectra[la], tol, gap))
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            mat_a, mat_b = m.registered[la].mat, m.registered[lb].mat
            if commutator_norm(mat_a, mat_b) > tol:
                continue
            for x in spectra[la]:
                for y in spectra[lb]:
                    add(check_joint_rule(m, la, [x], lb, [y], tol, gap))
            add_unless_skipped(check_sum_rule, la, lb, tol)
            add_unless_skipped(check_product_rule, la, lb, tol)
            try:
                pa, pb = (Projector.from_matrix(x, tol=COARSE_TOL) for x in (mat_a, mat_b))
            except NotProjector:
                continue
            for lo, p_lo, hi, p_hi in ((la, pa, lb, pb), (lb, pb, la, pa)):
                if leq(p_lo, p_hi, COARSE_TOL):
                    add_unless_skipped(check_order_rule, lo, hi, tol, gap)
            for lo, hi in ((la, lb), (lb, la)):
                add_unless_skipped(check_conditional_rule, lo, hi, tol, gap)
    return [fold(rule, found[rule]) for rule in hvmodel._RULES if rule in found]


def _bits(c) -> list:
    """Every field a report shows, residuals as exact hex, part by part."""
    own = (c.name, c.rule, float(c.residual).hex(), c.bound, c.verdict, c.detail)
    return [own, *(x for p in c.parts for x in _bits(p))]


def _agreement_models():
    base = load_model(resolve_input_path("commuting.model"))
    yield "commuting.model", base
    yield "weight", with_weight(base, 0, base.space.weights[0] + 0.05)
    yield "SUM", with_table_entry(base, "SUM", 1, base.value_row("SUM")[1] + 0.5)
    yield "PROD", with_table_entry(base, "PROD", 0, 0.0)
    for t in range(0, 200, 20):  # the families of acceptance criterion 4
        gen = trial_generator(4, t)
        dim = 3 + (t % 4)
        u = random_unitary(gen, dim)
        a, b = (u @ np.diag(gen.integers(0, 2, size=dim).astype(complex)) @ dag(u) for _ in "ab")
        fam = {
            "A": Observable.from_matrix(a, tol=1e-8),
            "B": Observable.from_matrix(b, tol=1e-8),
            "S": Observable.from_matrix(a + b, tol=1e-8),
            "P": Observable.from_matrix(a @ b, tol=1e-8),
        }
        state = Density.from_matrix(random_density_matrix(gen, dim))
        yield f"family-{t}", build_commuting_model(fam, state, tol=1e-8)


@pytest.mark.parametrize("tol, gap", [(TOL, 1e-8), (1e-6, 1e-4), (0.5, 1e-8)])
def test_check_model_folds_the_checkers_called_alone(tol, gap):
    for name, m in _agreement_models():
        want = _checkers_one_at_a_time(m, tol, gap)
        got = check_model(m, tol, gap)
        assert [_bits(c) for c in got] == [_bits(c) for c in want], name


def test_check_model_decides_each_fact_once(monkeypatch):
    m = load_model(resolve_input_path("commuting.model"))
    pairs, selections = [], []
    norm, projector = hvmodel.commutator_norm, hvmodel.spectral_projector

    def counted_norm(a, b):
        pairs.append((a, b))
        return norm(a, b)

    def counted_projector(obs, values, gap):
        selections.append((id(obs), tuple(values)))
        return projector(obs, values, gap)

    monkeypatch.setattr(hvmodel, "commutator_norm", counted_norm)
    monkeypatch.setattr(hvmodel, "spectral_projector", counted_projector)
    check_model(m)
    n = len(m.registered)
    assert len(pairs) == n * (n - 1) // 2 == 6
    levels = sum(len(obs.eigenvalues()) + 1 for obs in m.registered.values())
    assert len(selections) == len(set(selections)) == levels == 13


def _diagonal_pair_model(b_top: float, b_row) -> HVModel:
    d = [0.5, 0.3, 0.2]
    return HVModel(
        space=PhaseSpace(points=("w0", "w1", "w2"), weights=np.array(d)),
        registered={
            "A": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
            "B": Observable.from_matrix(np.diag([b_top, 1.0, 0.0])),
        },
        values={"A": np.array([1.0, 0.0, 0.0]), "B": np.array(b_row)},
        state=Density.from_matrix(np.diag(d)),
    )


def test_preconditions_keep_their_tolerances():
    def rules(m, tol):
        return {c.rule: c.name for c in check_model(m, tol)}

    # A <= B within 5e-8: an order that --tol 1e-9 skips and 1e-7 judges.
    m = _diagonal_pair_model(1 - 5e-8, [1 - 5e-8, 1.0, 0.0])
    assert "order-events-rule" not in rules(m, 1e-9)
    assert rules(m, 1e-9)["conditional-rule"] == "conditional-rule over 2 instances"
    assert rules(m, 1e-7)["order-events-rule"] == "order-events-rule over 1 instances"
    with pytest.raises(OrderViolation):
        check_order_rule(m, "A", "B", tol=1e-9)
    # B is a projector at 1e-6 but not at COARSE_TOL: check_model runs no
    # order or conditional instance, the checkers called alone pass.
    m = _diagonal_pair_model(1 - 5e-7, [1.0, 1.0, 0.0])
    assert {"order-events-rule", "conditional-rule"}.isdisjoint(rules(m, 1e-6))
    assert check_order_rule(m, "A", "B", tol=1e-6).ok
    assert check_conditional_rule(m, "A", "B", tol=1e-6).ok
    assert check_conditional_rule(m, "B", "A", tol=1e-6).ok
