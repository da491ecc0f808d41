"""Exact simplex with Bland's rule on a fraction-free tableau.

Solves  max c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the shape of
every tree-packing LP in the package.  Since b >= 0 the slack basis is
feasible, so one simplex pass from it reaches the optimum.  Intended for
desk-scale certified computations (oracles, restricted masters).

Every tableau row, the objective row included, is a list of Python ints
over one positive denominator of its own, kept in lowest terms by a gcd
after each update (the fraction-free elimination of Edmonds 1967 and
Bareiss 1968, with per-row rather than common denominators).  A pivot
touches only the rows whose entering-column entry is nonzero, so the
sparsity of 0/1 constraint matrices survives.  The objective row is
pivoted with the rest, so reduced costs, the objective value and the duals
are all read off the tableau.  The pivot sequence is that of the textbook
rational tableau: first improving column (Bland), smallest ratio, ties to
the smallest basic column index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


class LpUnbounded(Exception):
    pass


@dataclass
class LpResult:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]  # one multiplier per constraint row


def solve_lp(c, rows, rhs) -> LpResult:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0, where every
    rhs[i] >= 0.

    ``rows`` are dense coefficient lists; coefficients are ints, Fractions
    or anything ``Fraction`` accepts.  Bland's rule guarantees termination.
    The duals are ``c_B B^-1`` for the optimal basis B, each one minus the
    reduced cost of its row's slack column, so every dual is >= 0.  Raises
    ``ValueError`` on a negative right-hand side and ``LpUnbounded`` when
    the objective has no maximum.
    """
    nvar = len(c)
    m = len(rows)
    ncols = nvar + m  # structural | slack | rhs

    # Integer rows over their own denominators, each with a unit slack.
    tab: list[list[int]] = []
    den: list[int] = []
    for i in range(m):
        nums, d = _scaled(list(rows[i]) + [rhs[i]])
        if nums[-1] < 0:
            raise ValueError(f"right-hand side {rhs[i]} of row {i} is negative")
        row = nums[:-1] + [0] * m + nums[-1:]
        row[nvar + i] = d
        tab.append(row)
        den.append(d)
    basis = list(range(nvar, ncols))

    # The objective row holds reduced costs and, in the rhs column, minus
    # the objective value.  It starts as c, since every slack costs 0.
    cost, cden = _scaled(c)
    tab.append(cost + [0] * (m + 1))
    den.append(cden)

    _run_simplex(tab, den, basis)

    x = [ZERO] * nvar
    for i, j in enumerate(basis):
        if j < nvar:
            x[j] = Fraction(tab[i][ncols], den[i])
    # Slack i is the unit column e_i at cost 0, so its reduced cost is -y_i.
    obj, oden = tab[m], den[m]
    duals = [Fraction(-obj[nvar + i], oden) for i in range(m)]
    return LpResult(Fraction(-obj[ncols], oden), x, duals)


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator
    (so the numerators and the denominator share no factor)."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (d // v.denominator) for v in vals], d


def _run_simplex(tab, den, basis):
    """Primal simplex on a tableau in basic feasible form, maximizing the
    objective in its last row."""
    m = len(basis)
    last = len(tab[0]) - 1
    while True:
        # Bland: first improving column (basic columns have reduced cost 0).
        obj = tab[-1]
        enter = next((j for j in range(last) if obj[j] > 0), -1)
        if enter < 0:
            return
        # Smallest ratio b_i / a_i over a_i > 0, compared by cross-multiplying
        # (the row denominators cancel); ties to the smallest basic column.
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][last]
                if leave < 0:
                    leave, lb, la = i, b, a
                    continue
                left, right = b * la, lb * a
                if left < right or (left == right and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave < 0:
            raise LpUnbounded()
        _pivot(tab, den, basis, leave, enter)


def _pivot(tab, den, basis, r, e):
    """Make column ``e`` the unit column of row ``r`` in every row, the
    objective row included.  Rows with a zero in column ``e`` are untouched.

    Row i (over d_i) becomes (p * row_i - f * prow) / (d_i * p), where p and
    f are the column-e entries of the pivot row and of row i; the pivot
    row's own denominator cancels.  The pivot row becomes prow / p.  The
    ratio test only pivots on p > 0, so every denominator stays positive.
    """
    prow = tab[r]
    p = prow[e]
    nz = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tab):
        f = row[e]
        if i == r or not f:
            continue
        if p == 1:
            new = row
            d = den[i]
        else:
            new = [p * v for v in row]
            d = den[i] * p
        for j, v in nz:
            new[j] -= f * v
        tab[i], den[i] = _reduced(new, d)
    tab[r], den[r] = _reduced(prow, p)
    basis[r] = e


def _reduced(row, d):
    """Divide a row and its denominator by their gcd."""
    if d != 1:
        g = math.gcd(d, *row)
        if g != 1:
            return [v // g for v in row], d // g
    return row, d
