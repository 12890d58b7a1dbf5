from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from nogo_lab import simplex
from nogo_lab.rng import make_generator
from nogo_lab.simplex import _bland, solve_equality_feasibility


def F(x):
    return Fraction(x)


def check_farkas(a, b, cert):
    """Exact verification: y.A <= 0 on every column and y.b > 0, with the
    certificate's max_ya and infeasibility_gap equal to max_j y.A_j and y.b."""
    m, n = len(a), len(a[0]) if a else 0
    cols = [sum(cert.y[i] * a[i][j] for i in range(m)) for j in range(n)]
    for j, col in enumerate(cols):
        assert col <= 0, f"column {j}: y.A = {col} > 0"
    yb = sum(cert.y[i] * b[i] for i in range(m))
    assert yb > 0
    assert cert.infeasibility_gap == yb
    assert cert.max_ya == max(cols, default=0)


def check_solution(a, b, sol):
    m = len(a)
    for i in range(m):
        total = sum(a[i][j] * x for j, x in enumerate(sol.x))
        assert total == b[i], f"row {i}: {total} != {b[i]}"
    assert all(x >= 0 for x in sol.x)


class TestSmallSystems:
    def test_trivially_feasible(self):
        r = solve_equality_feasibility([[F(1), F(1)]], [F(1)])
        assert r.feasible
        check_solution([[F(1), F(1)]], [F(1)], r)

    def test_contradictory_rows(self):
        a = [[F(1), F(1)], [F(1), F(1)]]
        b = [F(1), F(2)]
        r = solve_equality_feasibility(a, b)
        assert not r.feasible
        check_farkas(a, b, r)

    def test_negative_rhs_needs_sign_flip(self):
        a = [[F(-1), F(0)], [F(0), F(1)]]
        b = [F(-3), F(2)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)

    def test_nonnegativity_blocks_solution(self):
        # x1 - x2 = 1, x1 + x2 = 0 forces x2 = -1/2 < 0... via equalities
        a = [[F(1), F(-1)], [F(1), F(1)]]
        b = [F(1), F(0)]
        r = solve_equality_feasibility(a, b)
        assert not r.feasible
        check_farkas(a, b, r)

    def test_redundant_rows_are_fine(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        b = [F(3), F(6)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)

    def test_empty_system(self):
        r = solve_equality_feasibility([], [])
        assert r.feasible

    def test_no_columns_and_a_nonzero_rhs(self):
        a, b = [[], []], [F(1), F(0)]
        r = solve_equality_feasibility(a, b)
        assert not r.feasible
        check_farkas(a, b, r)

    def test_exact_rationals_survive(self):
        a = [[Fraction(1, 3), Fraction(1, 7)]]
        b = [Fraction(22, 21)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)

    def test_fraction_rows_are_certified_without_the_fallback(self, monkeypatch):
        monkeypatch.setattr(simplex, "_bland", None)
        a = [[Fraction(1, 3), Fraction(1, 7)], [Fraction(-1, 2), Fraction(5, 6)]]
        for b in ([Fraction(22, 21), Fraction(1, 3)], [Fraction(1), Fraction(-4)]):
            r = solve_equality_feasibility(a, b)
            (check_solution if r.feasible else check_farkas)(a, b, r)


class TestAgainstFloatOracle:
    def test_random_instances_match_scipy(self):
        gen = make_generator(1234)
        mismatches = 0
        for trial in range(60):
            m = int(gen.integers(1, 5))
            n = int(gen.integers(1, 8))
            a_num = gen.integers(-5, 6, size=(m, n))
            # half the time force feasibility by constructing b from a
            # nonnegative solution
            if trial % 2 == 0:
                x0 = gen.integers(0, 4, size=n)
                b_num = a_num @ x0
            else:
                b_num = gen.integers(-6, 7, size=m)
            a = [[F(int(v)) for v in row] for row in a_num]
            b = [F(int(v)) for v in b_num]
            ours = solve_equality_feasibility(a, b)
            ref = linprog(
                c=np.zeros(n),
                A_eq=a_num.astype(float),
                b_eq=b_num.astype(float),
                bounds=[(0, None)] * n,
                method="highs",
            )
            if ours.feasible:
                check_solution(a, b, ours)
            else:
                check_farkas(a, b, ours)
            if ours.feasible != (ref.status == 0):
                mismatches += 1
        assert mismatches == 0

    def test_bland_terminates_on_degenerate_instance(self):
        # classic degeneracy: many zero right-hand sides
        a = [
            [F(1), F(-1), F(0), F(0)],
            [F(0), F(1), F(-1), F(0)],
            [F(0), F(0), F(1), F(-1)],
        ]
        b = [F(0), F(0), F(0)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)


def test_certificate_is_exact_not_rounded():
    # 1/3 + 2/3 style arithmetic must come back exact
    a = [[F(1), F(1), F(1)], [F(1), F(0), F(0)]]
    b = [F(1), Fraction(1, 3)]
    r = solve_equality_feasibility(a, b)
    assert r.feasible
    assert r.x[0] == Fraction(1, 3)
    assert sum(r.x) == 1


@st.composite
def integer_systems(draw):
    """Small integer systems; half of them feasible by construction."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        b = [sum(v * x for v, x in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return a, b


@st.composite
def probability_systems(draw):
    """0/1 event rows under a normalization row, with right-hand sides of
    denominator 10**9: the systems ``hv_feasibility`` builds.  Half of them
    are the events' probabilities under a drawn distribution."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    events = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        mass = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n).filter(any))
        total = sum(mass)
        probs = [sum(w for w, e in zip(mass, row) if e) / total for row in events]
    else:
        probs = draw(st.lists(st.floats(0, 1), min_size=m, max_size=m))
    a = [[1] * n] + events
    b = [Fraction(1)] + [Fraction(round(p * 10**9), 10**9) for p in probs]
    return a, b


@given(st.one_of(integer_systems(), probability_systems()))
def test_equals_the_exact_bland_simplex(system):
    a, b = system
    r = solve_equality_feasibility(a, b)
    assert r == _bland(a, b)
    (check_solution if r.feasible else check_farkas)(a, b, r)


# x0 + x1 = 0 and x0 - x1 = 2 have no nonnegative solution; the basis of
# both columns solves them with x1 = -1.
NEGATIVE_BASIS_SYSTEM = ([[1, 1], [1, -1]], [0, 2])
FEASIBLE_SYSTEM = ([[1, 2, 0], [0, 1, 1]], [3, 2])


@pytest.mark.parametrize(
    "basis,system",
    [
        (None, NEGATIVE_BASIS_SYSTEM),
        ([0, 0], NEGATIVE_BASIS_SYSTEM),
        ([0, 1], NEGATIVE_BASIS_SYSTEM),
        (None, FEASIBLE_SYSTEM),
        ([0, 0], FEASIBLE_SYSTEM),
    ],
    ids=["no-proposal", "singular-basis", "negative-entry", "no-proposal-feasible", "singular-feasible"],
)
def test_a_rejected_proposal_falls_back_to_bland(monkeypatch, basis, system):
    a, b = system
    calls = []

    def bland(a, b):
        calls.append(1)
        return _bland(a, b)

    monkeypatch.setattr(simplex, "_propose_basis", lambda a, b, flip: basis)
    monkeypatch.setattr(simplex, "_bland", bland)
    assert solve_equality_feasibility(a, b) == _bland(a, b)
    assert calls == [1]
