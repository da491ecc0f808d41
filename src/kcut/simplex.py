"""Exact revised simplex with Bland's rule, fraction-free.

Solves  max c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the shape of
every tree-packing LP in the package.  Since b >= 0 the slack basis is
feasible, so one simplex pass from it reaches the optimum.  Intended for
desk-scale certified computations (oracles, restricted masters).

Row i stores only row i of B^-1 and (B^-1 b)_i, and the objective row -y =
-c_B B^-1 and minus the objective value: m + 1 Python ints over a positive
denominator of the row's own, kept in lowest terms by a gcd after each
update (the fraction-free elimination of Edmonds 1967 and Bareiss 1968,
with per-row denominators).  The columns are kept apart, as their nonzero
entries and cost over one denominator, and priced on demand: Bland's rule
computes c_j - y.a_j in column order up to the first positive one, and the
ratio test computes B^-1 a_e.  A pivot rewrites only rows of width m + 1,
however many columns the LP has.  Each choice (first improving column,
slacks last; smallest ratio, ties to the smallest basic column) compares
exact rationals, so the pivots and the vertex are the dense tableau's.

A ``Tableau`` outlives its solve, for a family of LPs over one feasible
region.  Adding a column or replacing the objective leaves the right-hand
side alone, so the basis stays primal feasible and the next solve resumes
Bland's rule from a basis already reached: a warm start.  Added columns sit
after the other variables and before the slacks, where ``solve_lp`` would
put them.  Bland's rule enters the first improving column, so a new column
can change the path only at a step that entered a slack, or at the end.
``solve`` keeps a checkpoint before each pivot into a slack, and
``add_column`` goes back to the first checkpoint at which the new column
has a positive reduced cost.  So a tableau grown by column generation walks
the pivot path of a cold solve over all of its columns, from that
checkpoint on, and stops at the same vertex (Bland 1977; Desrosiers and
Lübbecke 2005 on column generation).  Adding a column touches no row and a
pivot builds new rows instead of changing one in place, so a checkpoint is
a shallow copy of the row list.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .graph import _scaled

ZERO = Fraction(0)


class LpUnbounded(Exception):
    pass


class LpResult(NamedTuple):
    value: Fraction
    x: list[Fraction]
    duals: list[Fraction]  # one multiplier per constraint row


class Tableau:
    """A primal feasible simplex tableau that outlives one solve.

    ``Tableau(rows, rhs)`` starts at the slack basis of rows . x <= rhs with
    a zero objective.  ``add_column`` adds a variable after the existing
    ones and before the slacks, ``set_objective`` replaces the objective
    and ``solve`` runs Bland's rule from the current basis.  Every solve
    ends where Bland's rule would end if it started at the basis of the
    last ``set_objective`` with every current column already there: from
    the slack basis, where ``solve_lp`` ends on the same LP.  ``basis``
    numbers slack i ``nvar + added + i``; ``pivots`` counts pivots and
    ``rewinds`` rewinds, over all solves.
    """

    def __init__(self, rows, rhs):
        self.m = m = len(rows)
        self.nvar = nvar = len(rows[0]) if rows else 0  # columns of the rows
        self.added = 0  # columns added since, between those and the slacks
        self.pivots = 0
        self.rewinds = 0
        # Row i of B^-1 and (B^-1 b)_i over den[i], then the objective row
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        for i in range(m):
            (b,), d = _scaled([rhs[i]])
            if b < 0:
                raise ValueError(f"right-hand side {rhs[i]} of row {i} is negative")
            row = [0] * (m + 1)
            row[i], row[m] = d, b
            self.tab.append(row)
            self.den.append(d)
        self.tab.append([0] * (m + 1))
        self.den.append(1)
        self.basis = list(range(nvar, nvar + m))
        self._cols = [_column([row[j] for row in rows], 0) for j in range(nvar)]
        # (tab, den, basis, added) before each pivot into a slack since the
        # last set_objective; the duals are in the objective row
        self._checkpoints: list[tuple] = []

    def add_column(self, coeffs, cost) -> None:
        """Add a variable with constraint coefficients ``coeffs`` (one per
        row) and objective coefficient ``cost``, nonbasic at 0, after the
        other variables and before the slacks: where ``solve_lp`` puts it.

        On the path taken since the last ``set_objective`` the new column
        changes only the first step that entered a slack while the column's
        reduced cost there, cost - y . a, was positive: Bland's rule enters
        it there instead, so the tableau goes back to that checkpoint.
        """
        col = _column(coeffs, cost)
        idx, vals, cn, _ = col
        for n, (tab, den, basis, added) in enumerate(self._checkpoints):
            get = tab[-1].__getitem__  # -y over den[-1]
            ya = sum(map(get, idx)) if vals is None else sum(map(mul, map(get, idx), vals))
            if cn * den[-1] + ya > 0:
                del self._checkpoints[n:]
                at, shift = self.nvar + added, self.added - added
                self.tab, self.den = tab, den
                self.basis = [j + shift if j >= at else j for j in basis]
                self.rewinds += 1
                break
        self._cols.append(col)
        at = self.nvar + self.added  # the first slack
        self.basis = [j + (j >= at) for j in self.basis]
        self.added += 1

    def set_objective(self, c) -> None:
        """Maximize c . x from the current basis; ``c`` has one entry per
        variable, the columns of the rows first, then the added ones.

        The objective row becomes -c_B B^-1 over one denominator, with minus
        the value of the current vertex.  The checkpoints are dropped: the
        next solve starts a new path from this basis.
        """
        nv = self.nvar + self.added
        if len(c) != nv:
            raise ValueError(f"objective has {len(c)} entries for {nv} variables")
        cost, cden = _scaled(c)
        self._cols = [_recosted(col, cj, cden) for col, cj in zip(self._cols, cost)]
        # (row, cost numerator) of each basic variable of nonzero cost
        basic = [(i, cost[j]) for i, j in enumerate(self.basis) if j < nv and cost[j]]
        scale = math.lcm(*(self.den[i] for i, _ in basic))
        obj = [0] * (self.m + 1)
        for i, cb in basic:
            w = cb * (scale // self.den[i])
            for j, v in enumerate(self.tab[i]):
                if v:
                    obj[j] -= w * v
        self.tab[self.m], self.den[self.m] = _reduced(obj, cden * scale)
        self._checkpoints.clear()

    def solve_duals(self) -> tuple[list[int], int]:
        """Pivot to an optimum of the current objective, keeping a
        checkpoint before each pivot that enters a slack.  Returns the duals
        ``c_B B^-1`` of the optimal basis B as integers over one positive
        denominator, so every one is >= 0.  Raises ``LpUnbounded`` when the
        objective has no maximum; the basis is then still feasible."""
        tab, den, basis, m = self.tab, self.den, self.basis, self.m
        nv = self.nvar + self.added  # the first slack
        while (step := _bland_step(tab, den, basis, self._cols, nv)) is not None:
            r, e, f, d = step
            if e >= nv:
                self._checkpoints.append((tab[:], den[:], basis[:], self.added))
            _pivot(tab, den, r, f, d)
            basis[r] = e
            self.pivots += 1
        return [-y for y in tab[m][:m]], den[m]

    def solve(self) -> LpResult:
        """``solve_duals``, with the optimum, the vertex and the duals as
        Fractions."""
        duals, dden = self.solve_duals()
        tab, den, m = self.tab, self.den, self.m
        nv = self.nvar + self.added
        x = [ZERO] * nv
        for i, j in enumerate(self.basis):
            if j < nv:
                x[j] = Fraction(tab[i][m], den[i])
        value = Fraction(-tab[m][m], dden)
        return LpResult(value, x, [Fraction(y, dden) for y in duals])


def solve_lp(c, rows, rhs) -> LpResult:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0, where every
    rhs[i] >= 0, from the slack basis.

    ``rows`` are dense coefficient lists; coefficients are ints, Fractions
    or anything ``Fraction`` accepts.  Bland's rule guarantees termination.
    Raises ``ValueError`` on a negative right-hand side and ``LpUnbounded``
    when the objective has no maximum.  See ``Tableau.solve_duals`` for the duals.
    """
    t = Tableau(rows, rhs)
    if not rows:
        # no rows to count the variables by
        for cj in c:
            t.add_column([], cj)
    t.set_objective(c)
    return t.solve()


def _column(coeffs, cost):
    """A column as (rows, numerators, cost numerator, denominator): the rows
    of its nonzero entries, their numerators, or None when all of them are
    1, and its cost, all over one positive denominator."""
    nums, d = _scaled(list(coeffs) + [cost])
    idx = [i for i in range(len(nums) - 1) if nums[i]]
    vals = [nums[i] for i in idx]
    return idx, None if all(a == 1 for a in vals) else vals, nums[-1], d


def _recosted(col, cost, q):
    """``col`` with objective coefficient cost / q, its entries rescaled
    when q does not divide their denominator."""
    idx, vals, _, d = col
    if d % q:
        f = q // math.gcd(d, q)
        vals = [f * a for a in vals] if vals is not None else [f] * len(idx)
        d *= f
    return idx, vals, cost * (d // q), d


def _bland_step(tab, den, basis, cols, nv):
    """The next pivot of Bland's rule, maximizing the objective, or None at
    an optimum.  Returns (row, column, f, d): f[i] is the entering column's
    entry in row i, the objective row's last, over den[i] * d."""
    m = len(basis)
    obj = tab[m]
    get = obj.__getitem__
    dm = den[m]
    basic = set(basis)
    # Bland: first improving column, pricing c_j - y.a_j over dm times the
    # column's denominator; basic columns price 0
    for e in range(nv):
        if e in basic:
            continue
        idx, vals, cn, d = cols[e]
        rc = cn * dm + (sum(map(get, idx)) if vals is None else sum(map(mul, map(get, idx), vals)))
        if rc > 0:
            if vals is None:
                f = [sum(map(row.__getitem__, idx)) for row in tab[:m]]
            else:
                f = [sum(map(mul, map(row.__getitem__, idx), vals)) for row in tab[:m]]
            break
    else:
        # slack i is the unit column e_i at cost 0, so it prices -y_i
        s = next((i for i in range(m) if obj[i] > 0), -1)
        if s < 0:
            return None
        e, rc, d = nv + s, obj[s], 1
        f = [row[s] for row in tab[:m]]
    # Smallest ratio b_i / f_i over f_i > 0, compared by cross-multiplying
    # (the row denominators cancel); ties to the smallest basic column.
    leave = -1
    for i in range(m):
        a = f[i]
        if a > 0:
            b = tab[i][m]
            if leave < 0:
                leave, lb, la = i, b, a
                continue
            left, right = b * la, lb * a
            if left < right or (left == right and basis[i] < basis[leave]):
                leave, lb, la = i, b, a
    if leave < 0:
        raise LpUnbounded()
    f.append(rc)
    return leave, e, f, d


def _pivot(tab, den, r, f, d):
    """Pivot on row ``r``, given the entering column's entry f[i] over
    den[i] * d in every row, the objective row included.  Row i (over d_i)
    becomes (p * row_i - f_i * prow) / (d_i * p) with p = f[r], since d and
    the pivot row's denominator cancel, and the pivot row d * prow / p.  A
    row with f_i = 0 is untouched, and no row is changed in place.  The
    ratio test pivots only on p > 0, so every denominator stays positive.
    """
    prow = tab[r]
    p = f[r]
    nz = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tab):
        fi = f[i]
        if i == r or not fi:
            continue
        if p == 1:
            new = row[:]
            di = den[i]
        else:
            new = [p * v for v in row]
            di = den[i] * p
        for j, v in nz:
            new[j] -= fi * v
        tab[i], den[i] = _reduced(new, di)
    tab[r], den[r] = _reduced([d * v for v in prow] if d != 1 else prow, p)


def _reduced(row, d):
    """Divide a row and its denominator by their gcd."""
    if d != 1:
        g = math.gcd(d, *row)
        if g != 1:
            return [v // g for v in row], d // g
    return row, d
