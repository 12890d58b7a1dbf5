"""Exact rational equality-feasibility via phase-1 simplex.

Decides whether A x = b has a solution with x >= 0 by minimizing the sum of
artificial variables.  On success the solution itself is returned; on
failure a Farkas certificate y is returned, satisfying  y.A <= 0
componentwise and y.b > 0  - an exact proof that no nonnegative solution
exists.

The final basis is found in floating point and certified in exact rationals
(Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Lett. 35, 2007):

1. a float64 tableau, priced by Dantzig's rule, proposes the final basis B;
2. x_B is solved from B x_B = b in exact integers.  With x_B >= 0 and every
   basic artificial 0, x is the answer.  Otherwise B^T pi = c_B gives the
   dual, every reduced cost pi.A_j comes from one integer product over the
   rows, and the Farkas certificate is accepted when the basis is
   phase-1 optimal with pi.b > 0.

Every returned answer is checked exactly, so correctness never rests on the
float path.  When the tableau proposes no basis, or the exact check rejects
it, :class:`~nogo_lab.errors.NumericalAmbiguity` is raised instead of a
verdict.

Tableaus are dense: tens of rows, one column per admissible assignment (4,096
at 6x6, 65,536 at 8x8, up to the 2^24 that ``MAX_ASSIGNMENT_SPACE`` admits).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericalAmbiguity
from .opcore import PIVOT_TOL

__all__ = ["FeasibleSolution", "InfeasibleCertificate", "solve_equality_feasibility"]


class FeasibleSolution(NamedTuple):
    x: tuple[Fraction, ...]

    feasible = True


class InfeasibleCertificate(NamedTuple):
    """Farkas dual: y.A <= 0 and y.b = infeasibility_gap > 0.

    ``max_ya`` is max_j y.A_j over the columns of A (at most 0; 0 when A
    has no columns).
    """

    y: tuple[Fraction, ...]
    infeasibility_gap: Fraction
    max_ya: Fraction

    feasible = False


def solve_equality_feasibility(
    a: Sequence[Sequence[int]], b: Sequence[Fraction]
) -> FeasibleSolution | InfeasibleCertificate:
    """Find x >= 0 with A x = b, or produce a Farkas certificate.

    ``a`` is row-major, m rows by n columns of Python ints (a numpy integer
    would keep its fixed width inside the Fractions), else ``ValueError``;
    ``b`` holds Fractions or ints.  The result is exact.
    :class:`NumericalAmbiguity` is raised when the float tableau proposes no
    basis or the exact check rejects it.
    """
    n = len(a[0]) if a else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged constraint matrix")
    if not all({int}.issuperset(map(type, row)) for row in a):
        raise ValueError("constraint rows must hold Python ints")
    if len(b) != len(a):
        raise ValueError("rhs length does not match row count")
    flip = [-1 if v < 0 else 1 for v in b]
    basis = _propose_basis(a, b, flip)
    if basis is None:
        raise NumericalAmbiguity(
            "the float simplex proposed no final basis: its phase-1 objective "
            f"looked unbounded or it reached the pivot cap of {50 * (len(a) + n)}"
        )
    result = _certify(a, b, flip, basis)
    if result is None:
        raise NumericalAmbiguity(
            "the float simplex's final basis failed exact certification: it is "
            "singular, or neither feasible nor phase-1 optimal in rationals"
        )
    return result


def _propose_basis(a, b, flip: list[int]) -> Optional[list[int]]:
    """The final basis of phase 1 on a float64 tableau, or None when the
    phase-1 objective looks unbounded or the pivot cap is reached.

    Dantzig's rule enters the column of largest reduced cost; the row of
    least ratio leaves, the lowest row on ties.  Entries and reduced costs
    at or below ``PIVOT_TOL`` count as zero; the bound sits above the
    rounding that pivots leave on entries that are exactly zero.
    """
    m, n = len(a), len(a[0]) if a else 0
    if not m:
        return []
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
        enter = int(np.argmax(tab[m, :width]))
        if tab[m, enter] <= PIVOT_TOL:
            return basis.tolist()
        col = tab[:m, enter]
        ratio = np.full(m, np.inf)
        np.divide(tab[:m, width], col, out=ratio, where=col > PIVOT_TOL)
        row = int(np.argmin(ratio))
        if np.isinf(ratio[row]):
            return None
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

    B is a column selection of the flipped system [A~ | I], an integer matrix.
    """
    m, n = len(a), len(a[0]) if a else 0
    # Column j of B, for a structural j or the artificial of row j - n.
    cols = [
        [f * row[j] for f, row in zip(flip, a)] if j < n else [int(i == j - n) for i in range(m)]
        for j in basis
    ]
    flipped_b = [f * v for f, v in zip(flip, b)]
    denom = math.lcm(*(v.denominator for v in flipped_b))
    x_basic = _solve_integer(list(zip(*cols)), [int(v * denom) for v in flipped_b])
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

    # B^T pi = c_B with c = 1 on artificials.
    pi = _solve_integer(cols, [int(j >= n) for j in basis])
    if pi is None:
        return None
    y = tuple(f * v for f, v in zip(flip, pi))
    gap = sum((v * w for v, w in zip(y, b)), Fraction(0))
    # pi.A~_j = y.A_j: one integer product over the rows.
    common = math.lcm(*(v.denominator for v in y))
    products = np.array([int(v * common) for v in y], dtype=object) @ np.array(a, dtype=object)
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
