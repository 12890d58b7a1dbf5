"""Exact rational equality-feasibility via phase-1 simplex.

Decides whether A x = b has a solution with x >= 0, entirely in
``fractions.Fraction`` arithmetic: minimize the sum of artificial variables
with Bland's rule (anti-cycling, guaranteed termination).  On success the
solution itself is returned; on failure a Farkas certificate y is returned,
satisfying  y.A <= 0 componentwise and y.b > 0  - an exact proof that no
nonnegative solution exists.

Problem sizes here are tiny (tens of rows, at most a few thousand columns),
so a dense tableau is the simplest correct tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in a]
    rhs = [Fraction(v) for v in b]
    if any(len(r) != n for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")

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
