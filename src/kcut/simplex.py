"""Exact simplex with Bland's rule on a fraction-free tableau.

Solves  max c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the shape of
every tree-packing LP in the package.  Since b >= 0 the slack basis is
feasible, so one simplex pass from it reaches the optimum.  Intended for
desk-scale certified computations (oracles, restricted masters).

A ``Tableau`` outlives its solve, for a family of LPs over one feasible
region.  Adding a column or replacing the objective leaves the basis and
the right-hand side alone, so the basis stays primal feasible and the next
solve resumes Bland's rule from the last optimal basis: a warm start.  The
slack block of each row holds that row of B^-1, times the row's
denominator, so a later column is brought into the current basis by one
product with that block, and the objective row is repriced from the basis
as c - c_B B^-1 A.  Added columns sit after the slack block, so in Bland's
index order they come after every slack.  ``solve_lp`` adds no column and
starts at the slack basis, so its pivots are those of a one-shot tableau.

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


class Tableau:
    """A primal feasible simplex tableau that outlives one solve.

    ``Tableau(rows, rhs)`` starts at the slack basis of rows . x <= rhs with
    a zero objective.  ``add_column`` appends a variable after the slack
    block, ``set_objective`` replaces the objective and ``solve`` runs Bland's
    rule from the current basis.  Neither change touches the basis or the
    right-hand side, so the basis stays primal feasible and every solve is a
    warm start from the last one.  ``pivots`` counts pivots over all solves.
    """

    def __init__(self, rows, rhs):
        self.m = m = len(rows)
        self.nvar = nvar = len(rows[0]) if rows else 0  # columns before the slacks
        self.added = 0  # columns after the slacks
        self.pivots = 0
        # Integer rows over their own denominators, each with a unit slack,
        # then the objective row: reduced costs and, in the rhs column,
        # minus the objective value.
        self.tab: list[list[int]] = []
        self.den: list[int] = []
        for i in range(m):
            nums, d = _scaled(list(rows[i]) + [rhs[i]])
            if nums[-1] < 0:
                raise ValueError(f"right-hand side {rhs[i]} of row {i} is negative")
            row = nums[:-1] + [0] * m + nums[-1:]
            row[nvar + i] = d
            self.tab.append(row)
            self.den.append(d)
        self.tab.append([0] * (nvar + m + 1))
        self.den.append(1)
        self.basis = list(range(nvar, nvar + m))

    def add_column(self, coeffs, cost) -> None:
        """Append a variable with constraint coefficients ``coeffs`` (one per
        row) and objective coefficient ``cost``, nonbasic at 0.

        Row i's slack block is B^-1 times its denominator, so the row's
        entry is that block times the column; the objective row's entry is
        the reduced cost, cost minus the duals times the column.
        """
        nums, d = _scaled(list(coeffs) + [cost])
        nz = [(self.nvar + i, a) for i, a in enumerate(nums[:-1]) if a]
        at = len(self.tab[0]) - 1
        for i, row in enumerate(self.tab):
            v = sum(row[s] * a for s, a in nz)
            if i == self.m:
                v += nums[-1] * self.den[i]
            if v % d:
                # scale the row so that v / d is an integer, then reduce it
                f = d // math.gcd(v, d)
                row = [f * x for x in row]
                row.insert(at, v * f // d)
                self.tab[i], self.den[i] = _reduced(row, self.den[i] * f)
            else:
                row.insert(at, v // d)
        self.added += 1

    def set_objective(self, c) -> None:
        """Maximize c . x from the current basis; ``c`` has one entry per
        variable, the columns before the slacks first, then the added ones.

        The objective row becomes c - c_B B^-1 A over one denominator, so
        the basic columns get reduced cost 0 and the rhs column minus the
        value of the current vertex.
        """
        if len(c) != self.nvar + self.added:
            raise ValueError(f"objective has {len(c)} entries for {self.nvar + self.added} variables")
        cost, cden = _scaled(c)
        basic = []  # (row, cost numerator) of each basic variable of nonzero cost
        for i, j in enumerate(self.basis):
            v = self._var(j)
            if v is not None and cost[v]:
                basic.append((i, cost[v]))
        scale = math.lcm(*(self.den[i] for i, _ in basic))
        obj = [scale * v for v in cost[: self.nvar] + [0] * self.m + cost[self.nvar :] + [0]]
        for i, cb in basic:
            w = cb * (scale // self.den[i])
            for j, v in enumerate(self.tab[i]):
                if v:
                    obj[j] -= w * v
        self.tab[self.m], self.den[self.m] = _reduced(obj, cden * scale)

    def _var(self, col: int):
        """The variable of a column, or None for a slack."""
        if col < self.nvar:
            return col
        if col < self.nvar + self.m:
            return None
        return col - self.m

    def solve(self) -> LpResult:
        """Pivot to an optimum of the current objective.  The duals are
        ``c_B B^-1`` for the optimal basis B, each one minus the reduced cost
        of its row's slack column, so every dual is >= 0.  Raises
        ``LpUnbounded`` when the objective has no maximum; the basis is then
        still feasible."""
        tab, den, m, nvar = self.tab, self.den, self.m, self.nvar
        while (step := _bland_step(tab, self.basis)) is not None:
            _pivot(tab, den, self.basis, *step)
            self.pivots += 1
        last = len(tab[0]) - 1
        x = [ZERO] * (nvar + self.added)
        for i, j in enumerate(self.basis):
            v = self._var(j)
            if v is not None:
                x[v] = Fraction(tab[i][last], den[i])
        # Slack i is the unit column e_i at cost 0, so its reduced cost is -y_i.
        obj, oden = tab[m], den[m]
        duals = [Fraction(-obj[nvar + i], oden) for i in range(m)]
        return LpResult(Fraction(-obj[last], oden), x, duals)


def solve_lp(c, rows, rhs) -> LpResult:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0, where every
    rhs[i] >= 0, from the slack basis.

    ``rows`` are dense coefficient lists; coefficients are ints, Fractions
    or anything ``Fraction`` accepts.  Bland's rule guarantees termination.
    Raises ``ValueError`` on a negative right-hand side and ``LpUnbounded``
    when the objective has no maximum.  See ``Tableau.solve`` for the duals.
    """
    t = Tableau(rows, rhs)
    if not rows:
        # no slacks, so added columns keep Bland's order
        for cj in c:
            t.add_column([], cj)
    t.set_objective(c)
    return t.solve()


def _scaled(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator
    (so the numerators and the denominator share no factor)."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    d = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (d // v.denominator) for v in vals], d


def _bland_step(tab, basis):
    """The (row, column) of the next pivot on a tableau in basic feasible
    form, maximizing the objective in its last row, or None at an optimum."""
    last = len(tab[0]) - 1
    # Bland: first improving column (basic columns have reduced cost 0).
    obj = tab[-1]
    enter = next((j for j in range(last) if obj[j] > 0), -1)
    if enter < 0:
        return None
    # Smallest ratio b_i / a_i over a_i > 0, compared by cross-multiplying
    # (the row denominators cancel); ties to the smallest basic column.
    leave = -1
    for i in range(len(basis)):
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
    return leave, enter


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
