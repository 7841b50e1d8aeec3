"""An exact phase-1 simplex with Bland's rule, the one general LP of the
project: the verdict reference that tests hold Fine's gluing
(`marginal_polytope.feasible_joint_4`) and its six-variable lift to, on the
same cell systems, and the reference LP of the moment-form cross-check."""

import math
from fractions import Fraction


def _over_one_denominator(values) -> tuple[int, tuple[int, ...]]:
    """The lcm of the denominators of `values` (ints or Fractions) and each
    value times it: the values as a count table over that denominator."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def solve_nonnegative(rows, rhs) -> list[Fraction] | None:
    """Find x >= 0 with A x = b exactly (ints or Fractions), or prove none
    exists.

    Phase-1 simplex minimizing the sum of artificial variables, with Bland's
    rule (lowest-index entering column, lowest-index basic tie-break) so
    termination is guaranteed.  The tableau is integer: b is scaled once by
    the lcm of its denominators (which changes no pivot), the ratio test
    cross-multiplies, only a pivot other than 1 divides its row into
    Fractions, and a pivot updates only the columns where its row is nonzero.
    Returns the solution (Fractions) on the original columns, or None when
    the system is infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    scale, b_scaled = _over_one_denominator(rhs)
    tab = []
    for i, (row, b) in enumerate(zip(rows, b_scaled)):
        sign = -1 if b < 0 else 1
        tab.append([sign * v for v in row] + [1 if j == i else 0 for j in range(m)] + [sign * b])
    basis = [n + i for i in range(m)]
    # reduced-cost row of the artificial sum for the all-artificial basis:
    # z_j - c_j = column sum (of at least a zero row), minus 1 on artificials
    z = [sum(col) for col in zip([0] * (n + m + 1), *tab)]
    for j in range(n, n + m):
        z[j] -= 1

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:  # b_i / a < b_leave / a_leave, cross-multiplied
                d = -1 if leave is None else tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # cannot happen: phase-1 objective is bounded below
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        pivot_row = tab[leave]
        piv = pivot_row[enter]
        if piv != 1:
            pivot_row = tab[leave] = [Fraction(v, piv) for v in pivot_row]
        cols = [(j, w) for j, w in enumerate(pivot_row) if w != 0]
        for row in (*tab, z):
            f = row[enter]
            if f != 0 and row is not pivot_row:
                for j, w in cols:
                    row[j] -= f * w
        basis[leave] = enter

    if z[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[i][-1], scale)
    return x
