"""Exact simplex with Bland's rule on a fraction-free tableau.

Solves  max c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the shape of
every tree-packing LP in the package.  Since b >= 0 the slack basis is
feasible, so one simplex pass from it reaches the optimum.  Intended for
desk-scale certified computations (oracles, restricted masters).

A ``Tableau`` outlives its solve, for a family of LPs over one feasible
region.  Adding a column or replacing the objective leaves the right-hand
side alone, so the basis stays primal feasible and the next solve resumes
Bland's rule from a basis already reached: a warm start.  The slack block of
each row holds that row of B^-1, times the row's denominator, so a later
column is brought into a basis by one product with that block, and the
objective row is repriced from the basis as c - c_B B^-1 A.

Added columns sit after the other variables and before the slack block,
which is where ``solve_lp`` would put them.  Bland's rule enters the first
improving column, so a new column can change the path only at a step that
entered a slack, or at the end.  ``solve`` keeps a copy of the tableau
before each pivot into a slack, and ``add_column`` goes back to the first
copy at which the new column has a positive reduced cost.  So a tableau
grown by column generation walks the pivot path of a cold solve over all of
its columns, from that copy on, and stops at the same vertex (Bland 1977;
Desrosiers and Lübbecke 2005 on column generation).  ``solve_lp`` adds no
column and starts at the slack basis, so its pivots are those of a one-shot
tableau.

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
    a zero objective.  ``add_column`` inserts a variable after the existing
    ones and before the slack block, ``set_objective`` replaces the objective
    and ``solve`` runs Bland's rule from the current basis.  Neither change
    moves the right-hand side, so the basis stays primal feasible.

    Every solve ends where Bland's rule would end if it started at the basis
    of the last ``set_objective`` with every current column already there:
    from the slack basis, that is where ``solve_lp`` ends on the same LP.
    ``solve`` keeps a checkpoint before each pivot that enters a slack, and
    ``add_column`` rewinds to the first checkpoint at which the new column
    prices positive.  ``pivots`` counts pivots and ``rewinds`` rewinds, over
    all solves.
    """

    def __init__(self, rows, rhs):
        self.m = m = len(rows)
        self.nvar = nvar = len(rows[0]) if rows else 0  # columns of the rows
        self.added = 0  # columns added since, between those and the slacks
        self.pivots = 0
        self.rewinds = 0
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
        self._columns: list[tuple[list[int], int]] = []  # each added column, scaled
        # (tab, den, basis, added) before each pivot into a slack since the
        # last set_objective; the duals are in the objective row's slack block
        self._checkpoints: list[tuple] = []

    def add_column(self, coeffs, cost) -> None:
        """Insert a variable with constraint coefficients ``coeffs`` (one per
        row) and objective coefficient ``cost``, nonbasic at 0, after the
        other variables and before the slacks: where ``solve_lp`` puts it.

        Bland's rule enters the first column of positive reduced cost, so
        on the path taken since the last ``set_objective`` the new column
        changes only the first step that entered a slack while its reduced
        cost there, cost - y . a under that step's duals y, was positive: it
        enters there instead.  The tableau goes back to that step's
        checkpoint and inserts again the columns added since.  With no such
        step the column is inserted at the current basis, and the next solve
        enters it if it prices positive there.
        """
        col = _scaled(list(coeffs) + [cost])
        nums, _ = col
        nz = [(i, a) for i, a in enumerate(nums[:-1]) if a]
        m = self.m
        for n, (tab, den, basis, added) in enumerate(self._checkpoints):
            # slack i's reduced cost is -y_i, over the objective row's den
            obj, s = tab[m], self.nvar + added
            if nums[-1] * den[m] + sum(obj[s + i] * a for i, a in nz) > 0:
                later = self._columns[added:]
                del self._columns[added:]
                del self._checkpoints[n:]
                self.tab, self.den, self.basis, self.added = tab, den, basis, added
                self.rewinds += 1
                for c in later:
                    self._insert(c)
                break
        self._insert(col)

    def _insert(self, col) -> None:
        """Insert a scaled column at the current basis.  Row i's slack block
        is B^-1 times its denominator, so the row's entry is that block times
        the column; the objective row's entry is the reduced cost, cost
        minus the duals times the column."""
        self._columns.append(col)
        nums, d = col
        at = self.nvar + self.added  # the first slack
        nz = [(at + i, a) for i, a in enumerate(nums[:-1]) if a]
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
        self.basis = [j + (j >= at) for j in self.basis]
        self.added += 1

    def set_objective(self, c) -> None:
        """Maximize c . x from the current basis; ``c`` has one entry per
        variable, the columns of the rows first, then the added ones.

        The objective row becomes c - c_B B^-1 A over one denominator, so
        the basic columns get reduced cost 0 and the rhs column minus the
        value of the current vertex.  The checkpoints are dropped: the next
        solve starts a new path from this basis.
        """
        nv = self.nvar + self.added
        if len(c) != nv:
            raise ValueError(f"objective has {len(c)} entries for {nv} variables")
        cost, cden = _scaled(c)
        basic = []  # (row, cost numerator) of each basic variable of nonzero cost
        for i, j in enumerate(self.basis):
            if j < nv and cost[j]:
                basic.append((i, cost[j]))
        scale = math.lcm(*(self.den[i] for i, _ in basic))
        obj = [scale * v for v in cost] + [0] * (self.m + 1)
        for i, cb in basic:
            w = cb * (scale // self.den[i])
            for j, v in enumerate(self.tab[i]):
                if v:
                    obj[j] -= w * v
        self.tab[self.m], self.den[self.m] = _reduced(obj, cden * scale)
        self._checkpoints.clear()

    def solve(self) -> LpResult:
        """Pivot to an optimum of the current objective, keeping a
        checkpoint before each pivot that enters a slack.  The duals are
        ``c_B B^-1`` for the optimal basis B, each one minus the reduced cost
        of its row's slack column, so every dual is >= 0.  Raises
        ``LpUnbounded`` when the objective has no maximum; the basis is then
        still feasible."""
        tab, den, basis, m = self.tab, self.den, self.basis, self.m
        nv = self.nvar + self.added  # the first slack
        while (step := _bland_step(tab, basis)) is not None:
            if step[1] >= nv:
                self._checkpoints.append(([row[:] for row in tab], den[:], basis[:], self.added))
            _pivot(tab, den, basis, *step)
            self.pivots += 1
        last = len(tab[0]) - 1
        x = [ZERO] * nv
        for i, j in enumerate(basis):
            if j < nv:
                x[j] = Fraction(tab[i][last], den[i])
        # Slack i is the unit column e_i at cost 0, so its reduced cost is -y_i.
        obj, oden = tab[m], den[m]
        duals = [Fraction(-obj[nv + i], oden) for i in range(m)]
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
        # no rows to count the variables by
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
