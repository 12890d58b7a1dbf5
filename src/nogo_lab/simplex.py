"""Exact rational equality-feasibility via phase-1 simplex.

Decides whether A x = b has a solution with x >= 0 by minimizing the sum of
artificial variables with Bland's rule (anti-cycling, guaranteed
termination).  On success the solution itself is returned; on failure a
Farkas certificate y is returned, satisfying  y.A <= 0 componentwise and
y.b > 0  - an exact proof that no nonnegative solution exists.

The final basis is found in floating point and certified in exact rationals
(Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Lett. 35, 2007):

1. a float64 tableau follows Bland's rule and proposes the final basis B;
2. x_B is solved from B x_B = b in exact integers.  With x_B >= 0 and every
   basic artificial 0, x is the answer.  Otherwise B^T pi = c_B gives the
   dual, every reduced cost pi.A_j comes from one integer product over the
   rows, and the Farkas certificate is accepted when the basis is
   phase-1 optimal with pi.b > 0;
3. a singular basis, a failed check or the pivot cap runs the whole Bland
   loop in ``fractions.Fraction`` arithmetic instead.

x, y and both certificate numbers are fixed by the final basis, so when the
float tableau follows Bland's path to the basis the exact loop ends on, the
result equals the exact loop's.  Every returned answer is checked exactly,
so correctness never rests on the float path.

Problem sizes here are small (tens of rows, at most a few thousand columns),
so dense tableaus are the simplest correct tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .opcore import PIVOT_TOL, RATIO_TIE

__all__ = ["FeasibleSolution", "InfeasibleCertificate", "solve_equality_feasibility"]


@dataclass(frozen=True)
class FeasibleSolution:
    x: tuple[Fraction, ...]

    feasible = True


@dataclass(frozen=True)
class InfeasibleCertificate:
    """Farkas dual: y.A <= 0 and y.b = infeasibility_gap > 0.

    ``max_ya`` is max_j y.A_j over the columns of A (at most 0; 0 when A
    has no columns).
    """

    y: tuple[Fraction, ...]
    infeasibility_gap: Fraction
    max_ya: Fraction

    feasible = False


def solve_equality_feasibility(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> FeasibleSolution | InfeasibleCertificate:
    """Find x >= 0 with A x = b, or produce a Farkas certificate.

    ``a`` is row-major, m rows by n columns.  All entries must be Fractions
    or Python ints (a numpy integer would keep its fixed width inside the
    Fractions); the result is exact.
    """
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != len(a):
        raise ValueError("rhs length does not match row count")
    flip = [-1 if v < 0 else 1 for v in b]
    basis = _propose_basis(a, b, flip)
    if basis is not None:
        result = _certify(a, b, flip, basis)
        if result is not None:
            return result
    return _bland(a, b)


def _propose_basis(a, b, flip: list[int]) -> Optional[list[int]]:
    """The final basis of Bland's phase 1 on a float64 tableau, or None when
    the phase-1 objective looks unbounded or the pivot cap is reached.

    Entries and reduced costs at or below ``PIVOT_TOL`` count as zero, and
    ratios within ``RATIO_TIE`` of the least tie; ties go to the lowest basic
    variable, as in :func:`_bland`.  The tie bound sits below the 1e-9 grid
    of rationalized probabilities, so distinct ratios on that grid stay
    apart, and the entry bound above the rounding that pivots leave on
    entries that are exactly zero.
    """
    m, n = len(a), len(a[0]) if a else 0
    width = n + m
    sign = np.array(flip, dtype=float)
    tab = np.zeros((m + 1, width + 1))
    tab[:m, :n] = np.array(a, dtype=float).reshape(m, n) * sign[:, None]
    tab[:m, n:width] = np.eye(m)
    tab[:m, width] = np.array(b, dtype=float) * sign
    tab[m, :n] = tab[:m, :n].sum(axis=0)
    tab[m, width] = tab[:m, width].sum()
    basis = np.arange(n, width)
    for _ in range(50 * width + 1):  # at most 50 (m + n) pivots
        improving = tab[m, :width] > PIVOT_TOL
        if not improving.any():
            return basis.tolist()
        enter = int(np.argmax(improving))
        col = tab[:m, enter]
        ratio = np.full(m, np.inf)
        np.divide(tab[:m, width], col, out=ratio, where=col > PIVOT_TOL)
        if np.isinf(ratio.min()):
            return None
        ties = ratio <= ratio.min() + RATIO_TIE
        row = int(np.argmin(np.where(ties, basis, width)))
        tab[row] /= tab[row, enter]
        factors = tab[:, enter].copy()
        factors[row] = 0.0
        tab -= np.outer(factors, tab[row])
        basis[row] = enter
    return None


def _certify(
    a, b, flip: list[int], basis: list[int]
) -> FeasibleSolution | InfeasibleCertificate | None:
    """The exact result at ``basis`` (row i's basic variable is basis[i]),
    or None when the basis is singular, x_B has a negative entry, or the
    basis is neither feasible nor a phase-1 optimum with a Farkas dual.

    Row i of the flipped system [A~ | I] x = b~ is scaled by the lcm of the
    denominators in row i of A, so M = diag(scale) B is an integer matrix.
    """
    n = len(a[0]) if a else 0
    scale = [math.lcm(*(v.denominator for v in row)) for row in a]
    ints = [[int(v * s) for v in row] for row, s in zip(a, scale)]
    # Column j of M, for a structural j or the artificial of row j - n.
    cols = [
        [f * row[j] for f, row in zip(flip, ints)]
        if j < n
        else [s if i == j - n else 0 for i, s in enumerate(scale)]
        for j in basis
    ]
    scaled_b = [Fraction(f * s) * v for f, s, v in zip(flip, scale, b)]
    denom = math.lcm(*(v.denominator for v in scaled_b))
    x_basic = _solve_integer(list(zip(*cols)), [int(v * denom) for v in scaled_b])
    if x_basic is None:
        return None
    x_basic = [v / denom for v in x_basic]
    if any(v < 0 for v in x_basic):
        return None
    if all(v == 0 for j, v in zip(basis, x_basic) if j >= n):
        x = [Fraction(0)] * n
        for j, v in zip(basis, x_basic):
            if j < n:
                x[j] = v
        return FeasibleSolution(x=tuple(x))

    # B^T pi = c_B with c = 1 on artificials: M^T q = c_B and pi = scale * q.
    q = _solve_integer(cols, [int(j >= n) for j in basis])
    if q is None:
        return None
    pi = [s * v for s, v in zip(scale, q)]
    y = tuple(f * v for f, v in zip(flip, pi))
    gap = sum((v * w for v, w in zip(y, b)), Fraction(0))
    # pi.A~_j = y.A_j = sum_i (y_i / scale_i) ints_ij: one integer product.
    weights = [f * v for f, v in zip(flip, q)]
    common = math.lcm(*(v.denominator for v in weights))
    products = np.array([int(v * common) for v in weights], dtype=object) @ np.array(
        ints, dtype=object
    )
    max_ya = Fraction(max(products.tolist(), default=0), common)
    # Phase-1 optimal: no structural (pi.A~_j) or artificial (pi_i - 1)
    # reduced cost is positive.
    if max_ya > 0 or any(v > 1 for v in pi) or gap <= 0:
        return None
    return InfeasibleCertificate(y=y, infeasibility_gap=gap, max_ya=max_ya)


def _solve_integer(mat: Sequence[Sequence[int]], rhs: list[int]) -> Optional[list[Fraction]]:
    """The exact solution of mat x = rhs for a square integer matrix, or None
    when it is singular.

    Bareiss's fraction-free elimination keeps every entry an integer minor;
    the last pivot d is the determinant of the row-permuted matrix, so d x
    is integral and back substitution divides exactly.
    """
    m = len(mat)
    rows = [list(r) + [v] for r, v in zip(mat, rhs)]
    prev = 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        top = rows[k]
        pivot = top[k]
        for i in range(k + 1, m):
            row, f = rows[i], rows[i][k]
            # Columns up to k are never read again below the diagonal.
            row[k + 1 :] = [(pivot * v - f * w) // prev for v, w in zip(row[k + 1 :], top[k + 1 :])]
        prev = pivot
    det = prev
    dx = [0] * m
    for i in reversed(range(m)):
        row = rows[i]
        total = det * row[m] - sum(row[j] * dx[j] for j in range(i + 1, m))
        dx[i] = total // row[i]
    return [Fraction(v, det) for v in dx]


def _bland(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> FeasibleSolution | InfeasibleCertificate:
    """Bland's phase 1 pivoted entirely in ``fractions.Fraction`` arithmetic:
    the fallback of :func:`solve_equality_feasibility`, and its reference.
    The system's shape is already checked."""
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
        best: Optional[tuple[Fraction, int, int]] = None
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
