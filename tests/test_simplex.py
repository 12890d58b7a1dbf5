from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from nogo_lab import simplex
from nogo_lab.errors import NumericalAmbiguity
from nogo_lab.rng import make_generator
from nogo_lab.simplex import FeasibleSolution, InfeasibleCertificate, solve_equality_feasibility


def F(x):
    return Fraction(x)


def _bland(a, b):
    """Bland's phase 1 pivoted entirely in ``fractions.Fraction`` arithmetic:
    the reference that :func:`solve_equality_feasibility` is judged against.
    Slow (hours at the 6x6 scaling scenario), but it needs no float step."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]

    # Track sign flips so the Farkas vector refers to the original rows.
    flip = [1] * m
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            flip[i] = -1

    # Tableau columns: n structural + m artificial + rhs.
    # basis[i] is the variable index currently basic in row i.
    width = n + m
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    # Phase-1 objective row: reduced costs of min sum(artificials), i.e.
    # z_j - c_j = sum of rows for structural columns, 0 for artificials.
    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(n):
            obj[j] += tab[i][j]
        obj[width] += tab[i][width]

    def pivot(row: int, col: int) -> None:
        piv = tab[row][col]
        tab[row] = [v / piv for v in tab[row]]
        for r in range(m):
            if r != row and tab[r][col] != 0:
                f = tab[r][col]
                tab[r] = [v - f * w for v, w in zip(tab[r], tab[row])]
        if obj[col] != 0:
            f = obj[col]
            for j in range(width + 1):
                obj[j] -= f * tab[row][j]
        basis[row] = col

    while True:
        # Bland: entering = lowest-index column with positive reduced cost
        # (we maximize -sum(artificials), stored so positive obj means improve).
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][width] / tab[i][enter]
                key = (ratio, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded; constraint bug")
        pivot(best[2], enter)

    residual = obj[width]  # = sum of artificial values at optimum
    if residual > 0:
        # The objective row stores z_j - c_j.  Under artificial column i,
        # z_j = y_i and c_j = 1, so the dual is y_i = obj[n+i] + 1; flips
        # map it back to the original row orientation.  Phase-1 optimality
        # then gives y.A <= 0 on structural columns while y.b > 0.  The
        # flips cancel in the products: y.A_j = obj[j] on structural
        # columns, and y.b = c_B x_B is the sum of the artificials.
        y = tuple(flip[i] * (obj[n + i] + 1) for i in range(m))
        max_ya = max(obj[:n], default=Fraction(0))
        return InfeasibleCertificate(y=y, infeasibility_gap=residual, max_ya=max_ya)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][width]
    return FeasibleSolution(x=tuple(x))


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
        r = solve_equality_feasibility([[1, 1]], [F(1)])
        assert r.feasible
        check_solution([[1, 1]], [F(1)], r)

    def test_contradictory_rows(self):
        a = [[1, 1], [1, 1]]
        b = [F(1), F(2)]
        r = solve_equality_feasibility(a, b)
        assert not r.feasible
        check_farkas(a, b, r)

    def test_negative_rhs_needs_sign_flip(self):
        a = [[-1, 0], [0, 1]]
        b = [F(-3), F(2)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)

    def test_nonnegativity_blocks_solution(self):
        # x1 - x2 = 1, x1 + x2 = 0 forces x2 = -1/2 < 0... via equalities
        a = [[1, -1], [1, 1]]
        b = [F(1), F(0)]
        r = solve_equality_feasibility(a, b)
        assert not r.feasible
        check_farkas(a, b, r)

    def test_redundant_rows_are_fine(self):
        a = [[1, 2], [2, 4]]
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

    # Rows must hold Python ints; a rational row is solved scaled by the lcm
    # of its denominators (x21 and x6), and x checked against both systems.
    def test_exact_rationals_survive(self):
        a = [[Fraction(1, 3), Fraction(1, 7)]]
        with pytest.raises(ValueError, match="Python ints"):
            solve_equality_feasibility(a, [Fraction(22, 21)])
        scaled = [[7, 3]]
        r = solve_equality_feasibility(scaled, [F(22)])
        assert r.feasible
        check_solution(scaled, [F(22)], r)
        check_solution(a, [Fraction(22, 21)], r)

    def test_fraction_rows_are_certified_without_the_fallback(self):
        a = [[Fraction(1, 3), Fraction(1, 7)], [Fraction(-1, 2), Fraction(5, 6)]]
        with pytest.raises(ValueError, match="Python ints"):
            solve_equality_feasibility(a, [Fraction(22, 21), Fraction(1, 3)])
        with pytest.raises(ValueError, match="Python ints"):
            solve_equality_feasibility([[1, np.int64(1)]], [1])
        scaled = [[7, 3], [-3, 5]]
        for b, feasible in (([Fraction(22, 21), Fraction(1, 3)], True), ([Fraction(1), Fraction(-4)], False)):
            b_scaled = [21 * b[0], 6 * b[1]]
            r = solve_equality_feasibility(scaled, b_scaled)
            assert r.feasible == feasible
            if feasible:
                check_solution(scaled, b_scaled, r)
                check_solution(a, b, r)
            else:
                check_farkas(scaled, b_scaled, r)


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
            a = [[int(v) for v in row] for row in a_num]
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
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
        ]
        b = [F(0), F(0), F(0)]
        r = solve_equality_feasibility(a, b)
        assert r.feasible
        check_solution(a, b, r)


def test_certificate_is_exact_not_rounded():
    # 1/3 + 2/3 style arithmetic must come back exact
    a = [[1, 1, 1], [1, 0, 0]]
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
def test_agrees_with_the_exact_bland_simplex(system):
    """The float-proposed basis need not be Bland's, so x and y may differ
    from the reference; the status and the phase-1 optimum y.b may not."""
    a, b = system
    r = solve_equality_feasibility(a, b)
    ref = _bland(a, b)
    assert r.feasible == ref.feasible
    if r.feasible:
        check_solution(a, b, r)
    else:
        assert r.infeasibility_gap == ref.infeasibility_gap
        check_farkas(a, b, r)


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
def test_a_rejected_proposal_is_undecidable(monkeypatch, basis, system):
    monkeypatch.setattr(simplex, "_propose_basis", lambda a, b, flip: basis)
    cause = "proposed no final basis" if basis is None else "failed exact certification"
    with pytest.raises(NumericalAmbiguity, match=cause):
        solve_equality_feasibility(*system)
