import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from nogo_lab.errors import (
    CrossTalk,
    NotDichotomic,
    NumericalAmbiguity,
    ScenarioError,
    SearchSpaceTooLarge,
    WrongScenarioShape,
)
from nogo_lab.feasibility import (
    DICHOTOMIC,
    PROJECTOR,
    Context,
    bch_inequalities_hold,
    chsh_scenario,
    chsh_value,
    classical_chsh_bound,
    enumerate_assignments,
    hv_feasibility,
    make_item,
    make_scenario,
    setting_side1,
    setting_side2,
    singlet_state,
)
from nogo_lab.fileio import load_scenario, resolve_input_path
from nogo_lab.opcore import dag, random_density_matrix, random_unitary
from nogo_lab.quantum import Density
from nogo_lab.rng import make_generator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = np.kron(out, m)
    return out


def magic_square_scenario(state=None):
    sq = {
        "M11": kron(SX, I2), "M12": kron(I2, SX), "M13": kron(SX, SX),
        "M21": kron(I2, SY), "M22": kron(SY, I2), "M23": kron(SY, SY),
        "M31": kron(SX, SY), "M32": kron(SY, SX), "M33": kron(SZ, SZ),
    }
    items = {k: make_item(k, DICHOTOMIC, v) for k, v in sq.items()}
    contexts = [
        Context(labels=("M11", "M12", "M13"), product_sign=1),
        Context(labels=("M21", "M22", "M23"), product_sign=1),
        Context(labels=("M31", "M32", "M33"), product_sign=1),
        Context(labels=("M11", "M21", "M31"), product_sign=1),
        Context(labels=("M12", "M22", "M32"), product_sign=1),
        Context(labels=("M13", "M23", "M33"), product_sign=-1),
    ]
    return make_scenario(
        4, items, contexts, state=state or Density.maximally_mixed(4), name="magic-square"
    )


def triad_scenario(state=None):
    items = {
        f"P{i}": make_item(f"P{i}", PROJECTOR, np.diag([float(j == i) for j in range(3)]))
        for i in range(3)
    }
    return make_scenario(
        3,
        items,
        [Context(labels=("P0", "P1", "P2"))],
        state=state or Density.from_matrix(np.diag([0.5, 1 / 3, 1 / 6])),
        name="triad",
    )


def brute_force_assignments(s):
    """Independent filter over the full product space (test oracle)."""
    labels = s.labels
    out = []
    for values in itertools.product(*(s.items[l].values() for l in labels)):
        v = dict(zip(labels, values))
        ok = True
        for ctx in s.contexts:
            if ctx.resolves_identity and sum(v[l] for l in ctx.labels) != 1:
                ok = False
                break
            if ctx.product_sign is not None:
                prod = 1
                for l in ctx.labels:
                    prod *= v[l]
                if prod != ctx.product_sign:
                    ok = False
                    break
        if ok:
            out.append(values)
    return out


class TestScenarioValidation:
    def test_noncommuting_context_rejected(self):
        items = {
            "A": make_item("A", PROJECTOR, np.diag([1.0, 0.0, 0.0])),
            "B": make_item(
                "B", PROJECTOR, np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
            ),
        }
        with pytest.raises(ScenarioError):
            make_scenario(3, items, [Context(labels=("A", "B"))])

    def test_wrong_product_sign_rejected(self):
        items = {
            "X": make_item("X", DICHOTOMIC, kron(SX, I2)),
            "XX": make_item("XX", DICHOTOMIC, kron(SX, I2)),
        }
        with pytest.raises(ScenarioError):
            make_scenario(
                4, items, [Context(labels=("X", "XX"), product_sign=-1)]
            )

    def test_resolution_detection(self):
        s = triad_scenario()
        assert s.contexts[0].resolves_identity

    def test_non_dichotomic_rejected(self):
        with pytest.raises(NotDichotomic):
            make_item("A", DICHOTOMIC, np.diag([2.0, 1.0]))


class TestEnumerateAssignments:
    def test_triad_has_three_colorings(self):
        asg = enumerate_assignments(triad_scenario())
        assert asg == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_chsh_has_sixteen_strategies(self):
        assert len(enumerate_assignments(chsh_scenario())) == 16

    def test_magic_square_has_no_coloring(self):
        s = magic_square_scenario()
        assert enumerate_assignments(s) == []
        assert brute_force_assignments(s) == []  # 512-case oracle

    def test_matches_brute_force(self):
        gen = make_generator(7)
        for s in (triad_scenario(), chsh_scenario(), magic_square_scenario()):
            assert enumerate_assignments(s) == sorted(brute_force_assignments(s))
        # randomized small scenarios: diagonal projectors with random contexts
        for _ in range(10):
            n = int(gen.integers(2, 6))
            dim = 4
            items = {}
            for i in range(n):
                diag = gen.integers(0, 2, size=dim).astype(float)
                items[f"Q{i}"] = make_item(f"Q{i}", PROJECTOR, np.diag(diag))
            labels = sorted(items)
            contexts = []
            if n >= 2:
                contexts.append(Context(labels=tuple(labels[:2])))
            s = make_scenario(dim, items, contexts)
            assert enumerate_assignments(s) == sorted(brute_force_assignments(s))

    def test_search_space_guard(self):
        items = {
            f"R{i:02d}": make_item(f"R{i:02d}", PROJECTOR, np.diag([1.0, 0.0]))
            for i in range(25)
        }
        s = make_scenario(2, items, [])
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_assignments(s)


class TestHvFeasibility:
    def test_commuting_scenario_feasible_with_exact_certificate(self):
        s = triad_scenario()
        res = hv_feasibility(s)
        assert res.status == "feasible"
        total = sum(w for _, w in res.certificate)
        assert total == 1
        # pushforward reproduces the rationalized marginals exactly
        pos = {l: i for i, l in enumerate(res.labels)}
        for l in res.labels:
            p = np.trace(s.state.mat @ s.items[l].plus).real
            expected = Fraction(round(p * 10**9), 10**9)
            got = sum(w for a, w in res.certificate if a[pos[l]] == 1)
            assert got == expected

    def test_chsh_singlet_optimal_is_infeasible(self):
        res = hv_feasibility(chsh_scenario())
        assert res.status == "infeasible"
        assert res.required > res.max_attainable
        assert res.violated_constraint

    def test_product_state_is_feasible(self):
        gen = make_generator(11)
        for _ in range(5):
            rho1 = random_density_matrix(gen, 2)
            rho2 = random_density_matrix(gen, 2)
            s = chsh_scenario(state=Density.from_matrix(np.kron(rho1, rho2)))
            assert hv_feasibility(s).status == "feasible"

    def test_magic_square_is_state_independent(self):
        gen = make_generator(13)
        for _ in range(5):
            state = Density.from_matrix(random_density_matrix(gen, 4))
            res = hv_feasibility(magic_square_scenario(state))
            assert res.status == "no-admissible-assignments"

    def test_missing_state_rejected(self):
        items = {"P": make_item("P", PROJECTOR, np.diag([1.0, 0.0]))}
        s = make_scenario(2, items, [])
        with pytest.raises(ScenarioError):
            hv_feasibility(s)

    def test_certificate_recovers_eigenbasis_weights(self):
        # rank-one resolution of the identity: the one-hot assignment for
        # basis vector k must carry exactly the state's k-th eigenweight.
        # Dyadic weights rationalize exactly at the 10^9 denominator, so the
        # boundary guard stays quiet.
        from nogo_lab.opcore import dag, random_unitary

        gen = make_generator(37)
        weight_sets = [(0.5, 0.25, 0.25), (0.5, 0.25, 0.125, 0.125)]
        for weights_true in weight_sets:
            dim = len(weights_true)
            u = random_unitary(gen, dim)
            items = {
                f"P{k}": make_item(f"P{k}", PROJECTOR, np.outer(u[:, k], u[:, k].conj()))
                for k in range(dim)
            }
            state = Density.from_matrix(
                u @ np.diag(np.array(weights_true, dtype=complex)) @ dag(u)
            )
            s = make_scenario(
                dim, items, [Context(labels=tuple(sorted(items)))], state=state
            )
            assert s.contexts[0].resolves_identity
            res = hv_feasibility(s)
            assert res.status == "feasible"
            pos = {l: i for i, l in enumerate(res.labels)}
            cert = dict(res.certificate)
            for k, label in enumerate(sorted(items)):
                assignment = tuple(1 if i == pos[label] else 0 for i in range(dim))
                assert cert.get(assignment, Fraction(0)) == Fraction(
                    weights_true[k]
                )

    def test_boundary_instance_raises_ambiguity(self):
        # Werner mixture tuned so the best combination sits at 2 + 1e-7
        target = 2.0 + 1e-7
        p = target / (2 * np.sqrt(2))
        rho = p * singlet_state().mat + (1 - p) * np.eye(4) / 4
        s = chsh_scenario(state=Density.from_matrix(rho))
        with pytest.raises(NumericalAmbiguity):
            hv_feasibility(s)

    def test_ghz_parity_game_is_state_forced(self):
        obs = {
            "X1": kron(SX, I2, I2), "Y1": kron(SY, I2, I2),
            "X2": kron(I2, SX, I2), "Y2": kron(I2, SY, I2),
            "X3": kron(I2, I2, SX), "Y3": kron(I2, I2, SY),
            "XYY": kron(SX, SY, SY), "YXY": kron(SY, SX, SY),
            "YYX": kron(SY, SY, SX), "XXX": kron(SX, SX, SX),
        }
        items = {k: make_item(k, DICHOTOMIC, v) for k, v in obs.items()}
        contexts = [
            Context(labels=("X1", "Y2", "Y3", "XYY"), product_sign=1),
            Context(labels=("Y1", "X2", "Y3", "YXY"), product_sign=1),
            Context(labels=("Y1", "Y2", "X3", "YYX"), product_sign=1),
            Context(labels=("X1", "X2", "X3", "XXX"), product_sign=1),
        ]
        g = np.zeros(8, dtype=complex)
        g[0] = g[7] = 1 / np.sqrt(2)
        s = make_scenario(8, items, contexts, state=Density.pure(g), name="ghz")
        # colorings exist in the abstract...
        assert len(enumerate_assignments(s)) > 0
        # ...but the eigenstate constraints kill them all
        assert hv_feasibility(s).status == "infeasible"


class TestChshValue:
    def test_singlet_optimal_angles(self):
        s = chsh_value(
            singlet_state(),
            setting_side1(0.0),
            setting_side1(90.0),
            setting_side2(45.0),
            setting_side2(135.0),
        )
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_product_states_respect_classical_bound(self):
        gen = make_generator(17)
        for _ in range(20):
            rho = np.kron(random_density_matrix(gen, 2), random_density_matrix(gen, 2))
            angles = gen.uniform(0, 360, size=4)
            s = chsh_value(
                Density.from_matrix(rho),
                setting_side1(angles[0]),
                setting_side1(angles[1]),
                setting_side2(angles[2]),
                setting_side2(angles[3]),
            )
            assert abs(s) <= 2 + 1e-9

    def test_repeated_setting_collapses(self):
        # B = B' makes S = 2 E(A,B), bounded by 2
        gen = make_generator(19)
        for _ in range(10):
            a, a2, b = gen.uniform(0, 360, size=3)
            s = chsh_value(
                singlet_state(),
                setting_side1(a),
                setting_side1(a2),
                setting_side2(b),
                setting_side2(b),
            )
            e_ab = np.sin(np.deg2rad(a + b))
            assert s == pytest.approx(2 * e_ab, abs=1e-9)
            assert abs(s) <= 2 + 1e-12

    def test_rejects_non_dichotomic_setting(self):
        with pytest.raises(NotDichotomic):
            chsh_value(
                singlet_state(),
                np.diag([2.0, 1.0, 1.0, 1.0]),
                setting_side1(90.0),
                setting_side2(45.0),
                setting_side2(135.0),
            )

    def test_rejects_cross_talk(self):
        # a "side 2" operator acting on qubit 1 fails locality
        with pytest.raises(CrossTalk):
            chsh_value(
                singlet_state(),
                setting_side1(0.0),
                setting_side1(90.0),
                setting_side1(45.0),
                setting_side2(135.0),
            )

    def test_grid_search_oracle_attains_tsirelson(self):
        # independent oracle: coarse 3-degree grid with side-1 angle fixed at
        # 0 (a joint shift of both sides leaves every E(t1+t2) unchanged),
        # then a 1e-3-degree local refinement around the best point
        state = singlet_state()
        grid = np.arange(0.0, 360.0, 3.0)
        e = np.array(
            [
                [
                    np.trace(state.mat @ setting_side1(ta) @ setting_side2(tb)).real
                    for tb in grid
                ]
                for ta in (0.0,)
            ]
        )[0]
        best = (-np.inf, None)
        e_cache = {
            ta: np.array(
                [
                    np.trace(state.mat @ setting_side1(ta) @ setting_side2(tb)).real
                    for tb in grid
                ]
            )
            for ta in grid
        }
        for i2, ta2 in enumerate(grid):
            ea2 = e_cache[ta2]
            for j1, tb1 in enumerate(grid):
                svals = e[j1] + e + ea2[j1] - ea2
                k = int(np.argmax(svals))
                if svals[k] > best[0]:
                    best = (svals[k], (ta2, tb1, grid[k]))
        coarse_max, (ta2, tb1, tb2) = best
        assert coarse_max == pytest.approx(2 * np.sqrt(2), abs=1e-9)

        def s_at(a2_deg, b1_deg, b2_deg):
            return chsh_value(
                state,
                setting_side1(0.0),
                setting_side1(a2_deg),
                setting_side2(b1_deg),
                setting_side2(b2_deg),
            )

        refined = coarse_max
        for da in (-1e-3, 0.0, 1e-3):
            for db1 in (-1e-3, 0.0, 1e-3):
                for db2 in (-1e-3, 0.0, 1e-3):
                    refined = max(refined, s_at(ta2 + da, tb1 + db1, tb2 + db2))
        assert refined <= 2 * np.sqrt(2) + 1e-9
        # the textbook quadruple matches the oracle's maximum
        assert s_at(90.0, 45.0, 135.0) == pytest.approx(refined, abs=1e-6)


class TestClassicalBound:
    def test_exactly_two(self):
        assert classical_chsh_bound(chsh_scenario()) == Fraction(2)

    def test_degenerate_repeated_setting(self):
        s = chsh_scenario(angles=(0.0, 0.0, 45.0, 135.0))
        assert classical_chsh_bound(s) == Fraction(2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(WrongScenarioShape):
            classical_chsh_bound(triad_scenario())


class TestFineEquivalence:
    def test_feasibility_matches_bch_inequalities(self):
        gen = make_generator(23)
        agreements = 0
        checked = 0
        seen = {"feasible": 0, "infeasible": 0}
        while checked < 60:
            # alternate generic mixed states and noisy singlets near optimum
            if checked % 2 == 0:
                state = Density.from_matrix(random_density_matrix(gen, 4))
                angles = tuple(gen.uniform(0, 360, size=4))
            else:
                p = gen.uniform(0.5, 1.0)
                rho = p * singlet_state().mat + (1 - p) * np.eye(4) / 4
                state = Density.from_matrix(rho)
                angles = tuple(
                    np.array([0.0, 90.0, 45.0, 135.0]) + gen.uniform(-20, 20, size=4)
                )
            s = chsh_scenario(state=state, angles=angles)
            try:
                res = hv_feasibility(s)
            except NumericalAmbiguity:
                continue
            checked += 1
            seen[res.status] += 1
            assert res.status in ("feasible", "infeasible")
            if res.feasible == bch_inequalities_hold(s):
                agreements += 1
        assert agreements == checked
        assert seen["feasible"] > 0 and seen["infeasible"] > 0

    def test_certificates_reproduce_constraints_exactly(self):
        gen = make_generator(29)
        for _ in range(5):
            state = Density.from_matrix(random_density_matrix(gen, 4))
            s = chsh_scenario(state=state, angles=tuple(gen.uniform(0, 360, size=4)))
            try:
                res = hv_feasibility(s)
            except NumericalAmbiguity:
                continue
            if not res.feasible:
                continue
            pos = {l: i for i, l in enumerate(res.labels)}
            den = 10**9
            for l in res.labels:
                p = np.trace(s.state.mat @ s.items[l].plus).real
                want = Fraction(round(min(1.0, max(0.0, p)) * den), den)
                got = sum(w for a, w in res.certificate if a[pos[l]] == 1)
                assert got == want
            for ctx in s.contexts:
                x, y = sorted(ctx.labels)
                p = np.trace(s.state.mat @ s.items[x].plus @ s.items[y].plus).real
                want = Fraction(round(min(1.0, max(0.0, p)) * den), den)
                got = sum(
                    w
                    for a, w in res.certificate
                    if a[pos[x]] == 1 and a[pos[y]] == 1
                )
                assert got == want


INVARIANCE_FIXTURES = ("chsh", "triad-dim3", "ghz")


def _rebuilt(s, items=None, contexts=None, state=None):
    return make_scenario(
        s.dim,
        items or s.items,
        list(contexts or s.contexts),
        state=state or s.state,
        name=s.name,
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", INVARIANCE_FIXTURES)
class TestFeasibilityInvariance:
    """The verdict (status, not certificate bytes) belongs to the scenario,
    not to how it is written down."""

    def test_relabeling(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        order = make_generator(seed).permutation(len(s.labels))
        new = {old: f"x{k}" for old, k in zip(s.labels, order)}
        items = {new[l]: dataclasses.replace(it, label=new[l]) for l, it in s.items.items()}
        contexts = [
            Context(tuple(new[l] for l in c.labels), c.product_sign) for c in s.contexts
        ]
        relabeled = _rebuilt(s, items=items, contexts=contexts)
        assert hv_feasibility(relabeled).status == hv_feasibility(s).status

    def test_context_order(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        order = make_generator(seed).permutation(len(s.contexts))
        shuffled = _rebuilt(s, contexts=[s.contexts[i] for i in order])
        assert hv_feasibility(shuffled).status == hv_feasibility(s).status

    def test_unitary_conjugation(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        u = random_unitary(make_generator(seed), s.dim)
        items = {l: make_item(l, it.kind, u @ it.mat @ dag(u)) for l, it in s.items.items()}
        state = Density.from_matrix(u @ s.state.mat @ dag(u))
        rotated = _rebuilt(s, items=items, state=state)
        assert hv_feasibility(rotated).status == hv_feasibility(s).status


THRESHOLD = 2**-0.5
NOISE_GRID = sorted(
    {*(float(v) for v in np.linspace(0.0, 1.0, 41)), 0.705, 0.709} - {THRESHOLD}
)


@pytest.mark.parametrize("v", [v for v in NOISE_GRID if abs(v - THRESHOLD) > 1e-3])
def test_white_noise_crosses_the_classical_bound_once(v):
    """CHSH on v * singlet + (1 - v) * I/4 reaches S = 2 sqrt(2) v: feasible
    below v = 1/sqrt(2), infeasible above."""
    state = Density.from_matrix(v * singlet_state().mat + (1 - v) * np.eye(4) / 4)
    status = hv_feasibility(chsh_scenario(state=state)).status
    assert status == ("feasible" if v < THRESHOLD else "infeasible")


# ---------------------------------------------------------------------------
# Exact certificate checker: a FeasibilityResult judged from its scenario
# alone, with the constraints rebuilt here rather than read from the solver.


def _rational(p):
    return Fraction(round(min(1.0, max(0.0, p)) * 10**9), 10**9)


def check_certificate(s, res):
    """Feasible: positive weights on admissible assignments that sum to 1 and
    reproduce every rationalized marginal and in-context joint exactly.
    Infeasible: the printed aggregate ``(c)*name + ...`` recomputed from the
    scenario requires exactly ``required`` > 0, and no admissible assignment
    reaches more than ``max_attainable`` <= 0."""
    pos = {l: i for i, l in enumerate(s.labels)}
    events = {"normalization": ()}
    events.update({f"marginal[{l}]": (l,) for l in s.labels})
    for ctx in s.contexts:
        for x, y in itertools.combinations(sorted(ctx.labels), 2):
            events[f"joint[{x},{y}]"] = (x, y)

    def required_value(involved):
        prod = s.state.mat
        for l in involved:
            prod = prod @ s.items[l].plus
        return _rational(np.trace(prod).real)

    def occurs(assignment, involved):
        return all(assignment[pos[l]] == 1 for l in involved)

    assignments = enumerate_assignments(s)
    if res.feasible:
        weights = dict(res.certificate)
        assert len(weights) == len(res.certificate)
        assert set(weights) <= set(assignments)
        assert all(w > 0 for w in weights.values())
        for name, involved in events.items():
            got = sum(w for a, w in weights.items() if occurs(a, involved))
            assert got == required_value(involved), name
        return "feasible"

    assert res.status == "infeasible"
    coeffs = {}
    for term in res.violated_constraint.split(" + "):
        coeff, name = term.removeprefix("(").split(")*")
        assert name in events and name not in coeffs, term
        coeffs[name] = Fraction(coeff)
    required = sum(c * required_value(events[name]) for name, c in coeffs.items())
    attainable = max(
        sum(c for name, c in coeffs.items() if occurs(a, events[name])) for a in assignments
    )
    assert required == res.required
    assert attainable == res.max_attainable
    assert attainable <= 0 < required
    return "infeasible"


def scaling_scenario(n, m, state):
    """n dichotomic settings on side 1 at 180 i/n + 3 degrees, m on side 2 at
    180 j/m + 47 degrees, all n*m two-party contexts."""
    settings = {f"A{i}": setting_side1(180 * i / n + 3) for i in range(n)}
    settings.update({f"B{j}": setting_side2(180 * j / m + 47) for j in range(m)})
    items = {l: make_item(l, DICHOTOMIC, mat) for l, mat in settings.items()}
    contexts = [Context(labels=(f"A{i}", f"B{j}")) for i in range(n) for j in range(m)]
    return make_scenario(4, items, contexts, state=state, name=f"scaling-{n}x{m}")


def werner_state(visibility):
    return Density.from_matrix(
        visibility * singlet_state().mat + (1 - visibility) * np.eye(4) / 4
    )


CERTIFIED = [
    ("chsh.scenario", None, "infeasible"),
    ("ghz.scenario", None, "infeasible"),
    ("triad-dim3.scenario", None, "feasible"),
] + [
    (f"scaling-{n}x{m}", visibility, "infeasible" if visibility == 1.0 else "feasible")
    for visibility in (1.0, 0.5)
    for n, m in ((2, 2), (2, 3), (3, 3))
] + [
    # Sizes that only the float-proposed, exactly certified basis decides
    # in a test's time: exact pivoting alone took 19.5 s, 256 s and 11-15 s,
    # and Bland-priced float pivoting 11-19 s at 6x6 Werner 0.5.
    ("scaling-5x5", 1.0, "infeasible"),
    ("scaling-6x6", 1.0, "infeasible"),
    ("scaling-4x4", 0.5, "feasible"),
    ("scaling-6x6", 0.5, "feasible"),
]


class TestExactCertificates:
    @pytest.mark.parametrize("name,visibility,status", CERTIFIED)
    def test_certificate_holds_in_exact_arithmetic(self, name, visibility, status):
        if visibility is None:
            s = load_scenario(resolve_input_path(name))
        else:
            n, m = map(int, name.removeprefix("scaling-").split("x"))
            s = scaling_scenario(n, m, werner_state(visibility))
        assert check_certificate(s, hv_feasibility(s)) == status

    def test_random_chsh_instances(self):
        gen = make_generator(2024)
        seen = []
        while len(seen) < 20:
            s = chsh_scenario(angles=tuple(gen.uniform(0.0, 180.0, 4)))
            try:
                res = hv_feasibility(s)
            except NumericalAmbiguity:
                continue
            seen.append(check_certificate(s, res))
        assert set(seen) == {"feasible", "infeasible"}
