import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nogo_lab import simplex
from nogo_lab.check import COARSE_TOL
from nogo_lab.errors import (
    NotDichotomic,
    NotProjector,
    NumericalAmbiguity,
    ScenarioError,
    SearchSpaceTooLarge,
    WrongScenarioShape,
)
from nogo_lab.feasibility import (
    DICHOTOMIC,
    PROJECTOR,
    RATIONALIZATION_BOUND,
    Context,
    bch_inequalities_hold,
    chsh_scenario,
    chsh_value,
    classical_chsh_bound,
    enumerate_assignments,
    feasibility_lp,
    hv_feasibility,
    make_item,
    make_scenario,
    setting_side1,
    setting_side2,
    singlet_state,
)
from nogo_lab.fileio import load_scenario, resolve_input_path
from nogo_lab.opcore import commutator_norm, dag, opnorm, random_density_matrix, random_unitary
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


def wide_scenario():
    """25 loose projector labels and no state: 2^25 assignments, past the guard."""
    items = {
        f"R{i:02d}": make_item(f"R{i:02d}", PROJECTOR, np.diag([1.0, 0.0]))
        for i in range(25)
    }
    return make_scenario(2, items, [])


@st.composite
def diagonal_scenarios(draw):
    """A random diagonal scenario with every rule kind: projector partitions
    of the identity (resolving contexts, one may reuse an earlier projector),
    +-1 items under a consistent declared product sign (which may reuse
    earlier +-1 items), and loose items of both kinds.  Labels are drawn
    names, so contexts close at random depths of the sorted order."""
    dim = draw(st.integers(2, 4))
    bits = st.lists(st.integers(0, 1), min_size=dim, max_size=dim).map(np.array)
    ops, contexts = [], []  # ops: (kind, diagonal); contexts: (members, sign)

    def add(kind, diagonal):
        ops.append((kind, np.asarray(diagonal, dtype=float)))
        return len(ops) - 1

    def of_kind(kind):
        return [i for i, (k, _) in enumerate(ops) if k == kind]

    for _ in range(draw(st.integers(0, 2))):
        pool = of_kind(PROJECTOR)
        members = draw(st.lists(st.sampled_from(pool), max_size=1)) if pool else []
        rest = np.ones(dim) - sum((ops[i][1] for i in members), np.zeros(dim))
        groups = np.array(draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)))
        members += [add(PROJECTOR, rest * (groups == g)) for g in sorted(set(groups))]
        contexts.append((members, None))
    for _ in range(draw(st.integers(0, 2))):
        pool = of_kind(DICHOTOMIC)
        members = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        members += [add(DICHOTOMIC, 1 - 2 * draw(bits)) for _ in range(draw(st.integers(0, 1)))]
        sign = draw(st.sampled_from((-1, 1)))
        closing = sign * np.prod([np.ones(dim)] + [ops[i][1] for i in members], axis=0)
        members.append(add(DICHOTOMIC, closing))
        contexts.append((members, sign))
    for _ in range(draw(st.integers(0 if ops else 1, 2))):
        kind = draw(st.sampled_from((PROJECTOR, DICHOTOMIC)))
        add(kind, draw(bits) if kind == PROJECTOR else 1 - 2 * draw(bits))

    names = [f"x{k:02d}" for k in draw(st.permutations(range(len(ops))))]
    items = {names[i]: make_item(names[i], kind, np.diag(d)) for i, (kind, d) in enumerate(ops)}
    return make_scenario(dim, items, [
        Context(labels=tuple(names[i] for i in draw(st.permutations(members))), product_sign=sign)
        for members, sign in contexts
    ])


@st.composite
def signed_magic_square_lines(draw):
    """Some lines of the magic square with each item X replaced by +-X and
    each line's sign adjusted to match: every proper subset of the six lines
    has admissible assignments, all six have none, whatever the signs."""
    flips = draw(st.lists(st.sampled_from((-1, 1)), min_size=9, max_size=9))
    full = magic_square_scenario()
    flip = dict(zip(full.labels, flips))
    lines = draw(st.lists(st.sampled_from(full.contexts), min_size=1, unique=True))
    labels = sorted({l for ctx in lines for l in ctx.labels})
    items = {l: make_item(l, DICHOTOMIC, flip[l] * full.items[l].mat) for l in labels}
    return make_scenario(4, items, [
        ctx._replace(product_sign=ctx.product_sign * math.prod(flip[l] for l in ctx.labels))
        for ctx in lines
    ])


class TestScenarioValidation:
    def test_noncommuting_context_rejected(self):
        items = {
            "A": make_item("A", PROJECTOR, np.diag([1.0, 0.0, 0.0])),
            "B": make_item(
                "B", PROJECTOR, np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
            ),
        }
        # The failing guard test prints the exact norm, not its Frobenius bound.
        norm = commutator_norm(items["A"].mat, items["B"].mat)
        with pytest.raises(ScenarioError, match=re.escape(f"[A,B] norm {norm:.3e}") + "$"):
            make_scenario(3, items, [Context(labels=("A", "B"))])

    def test_wrong_product_sign_rejected(self):
        items = {
            "X": make_item("X", DICHOTOMIC, kron(SX, I2)),
            "XX": make_item("XX", DICHOTOMIC, kron(SX, I2)),
        }
        residual = opnorm(items["X"].mat @ items["XX"].mat + np.eye(4))
        with pytest.raises(ScenarioError, match=re.escape(f"(residual {residual:.3e})") + "$"):
            make_scenario(
                4, items, [Context(labels=("X", "XX"), product_sign=-1)]
            )

    def test_resolution_detection(self):
        s = triad_scenario()
        assert s.contexts[0].resolves_identity

    def test_non_dichotomic_rejected(self):
        with pytest.raises(NotDichotomic):
            make_item("A", DICHOTOMIC, np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_plus_is_the_eigh_built_plus_one_projector(self, dim):
        gen = make_generator(dim)
        for _ in range(5):
            u = random_unitary(gen, dim)
            signs = gen.choice([-1.0, 1.0], size=dim)
            x = (u * signs) @ dag(u)
            vals, vecs = np.linalg.eigh(x)
            top = vecs[:, vals > 0]
            assert opnorm(make_item("X", DICHOTOMIC, x).plus - top @ dag(top)) <= 1e-12

    def test_plus_is_exact_for_plus_and_minus_identity(self):
        eye = np.eye(3, dtype=complex)
        assert np.array_equal(make_item("X", DICHOTOMIC, -eye).plus, np.zeros((3, 3)))
        assert np.array_equal(make_item("X", DICHOTOMIC, eye).plus, eye)

    def test_file_items_keep_eigenvalues_within_about_coarse_tol_of_one(self):
        make_item("A", DICHOTOMIC, np.diag([1.0 + 5e-8, -1.0]), tol=COARSE_TOL)
        with pytest.raises(NotDichotomic, match="dichotomic item 'A': "):
            make_item("A", DICHOTOMIC, np.diag([1.0 + 5e-7, -1.0]), tol=COARSE_TOL)

    def test_non_hermitian_dichotomic_item_names_the_item(self):
        with pytest.raises(NotDichotomic, match=r"dichotomic item 'A': \(I \+ X\)/2 not Hermitian"):
            make_item("A", DICHOTOMIC, np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]]))

    def test_failing_projector_item_names_the_item(self):
        with pytest.raises(NotProjector, match="projector item 'P': not idempotent"):
            make_item("P", PROJECTOR, np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("kind, a, b", [
        (DICHOTOMIC, np.diag([1.0 + 9e-8, -1.0]), np.diag([-1.0, 1.0])),
        (PROJECTOR, np.diag([1.0 + 9e-8, 0.0]), np.diag([0.0, 1.0])),
    ])
    def test_an_item_at_file_tolerance_keeps_a_commuting_context_feasible(self, kind, a, b):
        """A's value-1 event is 4.5e-8 (9e-8) off a projector; carried into
        the marginals as it is, that gives x(-1, -1) < 0 and a Farkas margin
        past RATIONALIZATION_BOUND, a false 'infeasible' for diagonal items."""
        items = {l: make_item(l, kind, m, tol=COARSE_TOL) for l, m in (("A", a), ("B", b))}
        state = Density.from_matrix(np.diag([0.9, 0.1]))
        res = hv_feasibility(make_scenario(2, items, [Context(labels=("A", "B"))], state=state))
        assert res.feasible
        assert sorted(w for _, w in res.certificate) == [Fraction(1, 10), Fraction(9, 10)]

    def test_a_non_hermitian_item_at_file_tolerance_has_real_marginals(self):
        """X = [[1, 9e-8], [0, -1]] has X² = I exactly and Hermitian defect
        9e-8: under |+i>, tr[D (I + X)/2] has imaginary part 2.25e-8, past
        the 'is not real' test, and the Hermitian part's has none."""
        items = {"A": make_item("A", DICHOTOMIC, np.array([[1.0, 9e-8], [0.0, -1.0]]), tol=COARSE_TOL)}
        s = make_scenario(2, items, [Context(labels=("A",))], state=Density.pure([1, 1j]))
        res = hv_feasibility(s)
        assert res.feasible
        assert dict(res.certificate) == {(-1,): Fraction(1, 2), (1,): Fraction(1, 2)}


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

    @settings(max_examples=200)
    @given(diagonal_scenarios())
    def test_matches_brute_force_on_every_rule_kind(self, s):
        assert all(ctx.resolves_identity for ctx in s.contexts if ctx.product_sign is None)
        assert enumerate_assignments(s) == sorted(brute_force_assignments(s))

    @settings(max_examples=100)
    @given(signed_magic_square_lines())
    def test_matches_brute_force_with_and_without_colorings(self, s):
        asg = enumerate_assignments(s)
        assert asg == sorted(brute_force_assignments(s))
        assert (asg == []) == (len(s.contexts) == 6)

    def test_search_space_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_assignments(wide_scenario())


class TestHvFeasibility:
    def test_a_missing_state_is_reported_before_the_search_space(self):
        with pytest.raises(ScenarioError) as exc:
            hv_feasibility(wide_scenario())
        assert type(exc.value) is ScenarioError
        assert str(exc.value) == "feasibility needs a scenario state"

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

    @pytest.mark.parametrize(
        "excess, status",
        [(1e-6, "infeasible"), (1e-7, None), (-1e-7, "feasible")],
        ids=["above-1e-6", "above-1e-7", "below-1e-7"],
    )
    def test_werner_chsh_boundary(self, excess, status):
        """Werner mixtures tuned so the best combination sits at S = 2 +
        excess.  Above 2 the Farkas margin is (S - 2)/24: it decides once it
        exceeds the rounding bound 1.05e-8, and within it no verdict stands.
        Below 2 the rounded statistics have an exact classical model."""
        p = (2.0 + excess) / (2 * np.sqrt(2))
        rho = p * singlet_state().mat + (1 - p) * np.eye(4) / 4
        s = chsh_scenario(state=Density.from_matrix(rho))
        if status is None:
            with pytest.raises(NumericalAmbiguity, match="Farkas margin 4.00e-09"):
                hv_feasibility(s)
            return
        res = hv_feasibility(s)
        assert res.status == status
        assert float(res.margin) == pytest.approx(max(excess, 0.0) / 24, rel=0.01)

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
        # a "side 2" operator acting on qubit 1 fails locality: its context
        # with a side-1 setting is not commuting
        with pytest.raises(ScenarioError, match=r"context \('A1', 'B1'\) not commuting"):
            chsh_value(
                singlet_state(),
                setting_side1(0.0),
                setting_side1(90.0),
                setting_side1(45.0),
                setting_side2(135.0),
            )

    def test_rejects_wrong_dimension(self):
        settings = [setting_side1(0.0), setting_side1(90.0), setting_side2(45.0), setting_side2(135.0)]
        with pytest.raises(ScenarioError, match="item 'B2' is not 4-dimensional"):
            chsh_value(singlet_state(), *settings[:3], SZ)
        with pytest.raises(ScenarioError, match="state dimension does not match scenario"):
            chsh_value(Density.maximally_mixed(2), *settings)

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


def _decided(s):
    """The verdict, checked to stand clear of the rounding bound.  The margin
    itself depends on the final basis (ghz reads 0.0397 or 0.0424 across
    context orders), so only the verdict is compared."""
    res = hv_feasibility(s)
    assert res.feasible or res.margin > RATIONALIZATION_BOUND
    return res.status


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", INVARIANCE_FIXTURES)
class TestFeasibilityInvariance:
    """The verdict (status, not certificate bytes or margin) belongs to the
    scenario, not to how it is written down."""

    def test_relabeling(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        order = make_generator(seed).permutation(len(s.labels))
        new = {old: f"x{k}" for old, k in zip(s.labels, order)}
        items = {new[l]: it._replace(label=new[l]) for l, it in s.items.items()}
        contexts = [
            Context(tuple(new[l] for l in c.labels), c.product_sign) for c in s.contexts
        ]
        relabeled = _rebuilt(s, items=items, contexts=contexts)
        assert _decided(relabeled) == _decided(s)

    def test_context_order(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        order = make_generator(seed).permutation(len(s.contexts))
        shuffled = _rebuilt(s, contexts=[s.contexts[i] for i in order])
        assert _decided(shuffled) == _decided(s)

    def test_unitary_conjugation(self, name, seed):
        s = load_scenario(resolve_input_path(name))
        u = random_unitary(make_generator(seed), s.dim)
        items = {l: make_item(l, it.kind, u @ it.mat @ dag(u)) for l, it in s.items.items()}
        state = Density.from_matrix(u @ s.state.mat @ dag(u))
        rotated = _rebuilt(s, items=items, state=state)
        assert _decided(rotated) == _decided(s)


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


def _lp_rows(s):
    """Row name -> the labels whose +1 events it intersects (none for the
    normalization row)."""
    events = {"normalization": ()}
    events.update({f"marginal[{l}]": (l,) for l in s.labels})
    for ctx in s.contexts:
        for x, y in itertools.combinations(sorted(ctx.labels), 2):
            events[f"joint[{x},{y}]"] = (x, y)
    return events


def _required(s, involved):
    """The rationalized probability that every involved item takes +1."""
    prod = s.state.mat
    for l in involved:
        prod = prod @ s.items[l].plus
    return _rational(np.trace(prod).real)


def _aggregate(res):
    """Row name -> coefficient of the printed aggregate ``(c)*name + ...``."""
    coeffs = {}
    for term in res.violated_constraint.split(" + "):
        coeff, name = term.removeprefix("(").split(")*")
        assert name not in coeffs, term
        coeffs[name] = Fraction(coeff)
    return coeffs


def check_certificate(s, res):
    """Feasible: positive weights on admissible assignments that sum to 1 and
    reproduce every rationalized marginal and in-context joint exactly.
    Infeasible: the printed aggregate ``(c)*name + ...`` recomputed from the
    scenario requires exactly ``required`` > 0, and no admissible assignment
    reaches more than ``max_attainable`` <= 0."""
    pos = {l: i for i, l in enumerate(s.labels)}
    events = _lp_rows(s)

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
            assert got == _required(s, involved), name
        return "feasible"

    assert res.status == "infeasible"
    coeffs = _aggregate(res)
    assert set(coeffs) <= set(events)
    required = sum(c * _required(s, events[name]) for name, c in coeffs.items())
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


@pytest.mark.parametrize("name", ["chsh", "ghz", "scaling-3x3"])
def test_the_margin_is_a_certified_distance(name):
    """The margin is d = y.b / |y[1:]|_1 for the printed aggregate y, and
    the max-norm move of the rounded statistics that lowers y.b fastest
    (each row but the exact normalization against the sign of its
    coefficient) leaves the exact LP infeasible when it is just under d."""
    if name == "scaling-3x3":
        s = scaling_scenario(3, 3, werner_state(1.0))
    else:
        s = load_scenario(resolve_input_path(name))
    res = hv_feasibility(s)
    y = _aggregate(res)
    y0 = y.pop("normalization", 0)
    rows = _lp_rows(s)
    b = {row: _required(s, involved) for row, involved in rows.items()}
    a = feasibility_lp(s).rows
    yb = y0 * b["normalization"] + sum(c * b[row] for row, c in y.items())
    assert res.margin == yb / sum(abs(c) for c in y.values())
    assert res.margin > RATIONALIZATION_BOUND

    t = res.margin * (1 - Fraction(1, 2**10))
    moved = [b[row] - t * ((y.get(row, 0) > 0) - (y.get(row, 0) < 0)) for row in rows]
    assert not simplex.solve_equality_feasibility(a, moved).feasible


def assert_lp_matches_reference(s):
    """The record's names, rows and b against the events rebuilt here."""
    lp = feasibility_lp(s)
    events = _lp_rows(s)
    pos = {l: i for i, l in enumerate(s.labels)}
    assert lp.labels == s.labels
    assert lp.assignments == tuple(enumerate_assignments(s))
    assert lp.names == tuple(events)
    assert len(lp.rows) == len(lp.b) == len(events)
    assert lp.rows[0] == (1,) * len(lp.assignments)
    assert type(lp.b[0]) is Fraction and lp.b[0] == 1
    for row, involved in zip(lp.rows, events.values()):
        assert all(type(v) is int for v in row)
        assert list(row) == [int(all(a[pos[l]] == 1 for l in involved)) for a in lp.assignments]
    assert lp.b == tuple(_required(s, involved) for involved in events.values())


def with_random_state(s, seed):
    return s.with_state(Density.from_matrix(random_density_matrix(make_generator(seed), s.dim)))


class TestFeasibilityLP:
    @pytest.mark.parametrize("name", ["chsh", "ghz", "triad-dim3"])
    def test_fixture_matches_reference(self, name):
        assert_lp_matches_reference(load_scenario(resolve_input_path(name)))

    @settings(max_examples=100)
    @given(diagonal_scenarios(), st.integers(0, 2**32 - 1))
    def test_diagonal_scenarios_match_reference(self, s, seed):
        assert_lp_matches_reference(with_random_state(s, seed))

    @settings(max_examples=50)
    @given(signed_magic_square_lines(), st.integers(0, 2**32 - 1))
    def test_signed_magic_square_lines_match_reference(self, s, seed):
        assert_lp_matches_reference(with_random_state(s, seed))


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
