"""Exact two-phase simplex with Bland's rule on a fraction-free tableau.

Solves  max c.x  subject to  A x (<=|=|>=) b,  x >= 0.  Intended for
desk-scale certified computations (oracles, restricted masters).

Every tableau row, the objective rows included, is a list of Python ints
over one positive denominator of its own, kept in lowest terms by a gcd
after each update (the fraction-free elimination of Edmonds 1967 and
Bareiss 1968, with per-row rather than common denominators).  A pivot
touches only the rows whose entering-column entry is nonzero, so the
sparsity of 0/1 constraint matrices survives.  The objective rows are
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


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


@dataclass
class LpResult:
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]  # one multiplier per constraint row


_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def solve_lp(c, rows, senses, rhs, maximize=True) -> LpResult:
    """Solve max (or min) c.x s.t. rows[i] . x  senses[i]  rhs[i], x >= 0.

    ``rows`` are dense coefficient lists, ``senses`` entries are "<=", "=",
    or ">="; coefficients are ints, Fractions or anything ``Fraction``
    accepts.  Bland's rule guarantees termination.  The duals are
    ``c_B B^-1`` for the optimal basis B, read from the slack and
    artificial columns of the final objective row; for a maximization a
    "<=" row has dual >= 0 and a ">=" row has dual <= 0, and a
    minimization reverses both signs.  Raises ``LpInfeasible`` or
    ``LpUnbounded``.
    """
    nvar = len(c)
    m = len(rows)

    # Integer rows with the right-hand side last, normalized to b >= 0.
    tab: list[list[int]] = []
    den: list[int] = []
    sense: list[str] = []
    flipped: list[bool] = []
    for i in range(m):
        si = senses[i]
        if si not in _FLIP:
            raise ValueError(f"bad sense {si!r}")
        nums, d = _scaled(list(rows[i]) + [rhs[i]])
        flip = nums[-1] < 0
        if flip:
            nums = [-v for v in nums]
            si = _FLIP[si]
        tab.append(nums)
        den.append(d)
        sense.append(si)
        flipped.append(flip)

    # Column layout: structural | slack/surplus | artificial | rhs.
    slack_col: list[int | None] = [None] * m
    art_col: list[int | None] = [None] * m
    ncols = nvar
    for i in range(m):
        if sense[i] != "=":
            slack_col[i] = ncols
            ncols += 1
    first_art = ncols
    for i in range(m):
        if sense[i] != "<=":
            art_col[i] = ncols
            ncols += 1

    basis = [0] * m
    for i in range(m):
        row = tab[i]
        b = row.pop()
        row.extend([0] * (ncols - nvar))
        row.append(b)
        if slack_col[i] is not None:
            row[slack_col[i]] = den[i] if sense[i] == "<=" else -den[i]
        if art_col[i] is not None:
            row[art_col[i]] = den[i]
        basis[i] = art_col[i] if art_col[i] is not None else slack_col[i]

    # Objective rows hold reduced costs and, in the rhs column, minus the
    # objective value.  The phase-2 row starts as c (every initial basic
    # column costs 0) and is pivoted along through phase 1.
    cost, cden = _scaled(c)
    if not maximize:
        cost = [-v for v in cost]
    tab.append(cost + [0] * (ncols - nvar + 1))
    den.append(cden)

    if first_art < ncols:
        # Phase 1 maximizes minus the sum of the artificials; its reduced
        # costs are -1 on each artificial plus the rows they are basic in.
        art_rows = [i for i in range(m) if art_col[i] is not None]
        d = math.lcm(*(den[i] for i in art_rows))
        phase1 = [0] * (ncols + 1)
        for i in art_rows:
            s = d // den[i]
            for j, v in enumerate(tab[i]):
                if v:
                    phase1[j] += s * v
        for j in range(first_art, ncols):
            phase1[j] -= d
        phase1, d = _reduced(phase1, d)
        tab.append(phase1)
        den.append(d)
        _run_simplex(tab, den, basis, ncols)
        if tab[m + 1][ncols] != 0:
            raise LpInfeasible()
        tab.pop()
        den.pop()
        _expel_artificials(tab, den, basis, first_art)

    _run_simplex(tab, den, basis, first_art)

    x = [ZERO] * nvar
    for i, j in enumerate(basis):
        if j < nvar:
            x[j] = Fraction(tab[i][ncols], den[i])

    # The slack column of row i is s_i e_i (s_i = +1 for "<=", -1 for
    # ">="), the artificial column is e_i, and both cost 0, so their reduced
    # cost is -s_i y_i or -y_i.
    obj, oden = tab[m], den[m]
    duals = []
    for i in range(m):
        if slack_col[i] is not None:
            y = Fraction(obj[slack_col[i]], oden)
            if sense[i] == "<=":
                y = -y
        else:
            y = Fraction(-obj[art_col[i]], oden)
        duals.append(-y if flipped[i] else y)
    value = Fraction(-obj[ncols], oden)
    if not maximize:
        value = -value
        duals = [-y for y in duals]
    return LpResult(value, x, duals)


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator
    (so the numerators and the denominator share no factor)."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (d // v.denominator) for v in vals], d


def _run_simplex(tab, den, basis, nenter):
    """Primal simplex on a tableau in basic feasible form, maximizing the
    objective in its last row.  Columns ``nenter`` and up never enter."""
    m = len(basis)
    last = len(tab[0]) - 1
    while True:
        # Bland: first improving column (basic columns have reduced cost 0).
        obj = tab[-1]
        enter = next((j for j in range(nenter) if obj[j] > 0), -1)
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
    objective rows included.  Rows with a zero in column ``e`` are untouched.

    Row i (over d_i) becomes (p * row_i - f * prow) / (d_i * p), where p and
    f are the column-e entries of the pivot row and of row i; the pivot
    row's own denominator cancels.  The pivot row becomes prow / p.
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
        if d < 0:
            new = [-v for v in new]
            d = -d
        tab[i], den[i] = _reduced(new, d)
    if p < 0:
        tab[r], den[r] = _reduced([-v for v in prow], -p)
    else:
        tab[r], den[r] = _reduced(prow, p)
    basis[r] = e


def _reduced(row, d):
    """Divide a row and its denominator by their gcd."""
    if d != 1:
        g = math.gcd(d, *row)
        if g != 1:
            return [v // g for v in row], d // g
    return row, d


def _expel_artificials(tab, den, basis, first_art):
    """Pivot basic artificials (at value 0) out wherever possible.

    If a row has no nonzero non-artificial entry it is redundant; the
    artificial stays basic at value zero, which is harmless since
    artificial columns never enter in phase 2.
    """
    for i in range(len(basis)):
        if basis[i] >= first_art:
            row = tab[i]
            for j in range(first_art):
                if row[j]:  # nonzero here means j is nonbasic
                    _pivot(tab, den, basis, i, j)
                    break
