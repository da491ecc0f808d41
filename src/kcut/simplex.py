"""Exact revised simplex with Bland's rule, fraction-free.

Solves  max c.x  subject to  A x <= b,  x >= 0,  with b >= 0: the shape of
every tree-packing LP in the package.  Since b >= 0 the slack basis is
feasible, so one simplex pass from it reaches the optimum.  Intended for
desk-scale certified computations (oracles, restricted masters).

Every number the tableau stores is a Python int.  A column is kept as its
nonzero entries over the lcm d of their denominators: the integer column
of the variable x / d.  The basis B is the matrix of the basic integer
columns (a slack's is a unit column), and D = det B.  Row i stores T_i =
D (B^-1)_i and T_i b', b' the right-hand side over its lcm, and the
objective row -c_B T and -c_B T b' (the duals and the objective value,
negated) over D Q for the objective's common denominator Q: m + 1 ints
per row, all over D.  Entering
a column a with F = T a on row r, p = F_r, is Bareiss's fraction-free step
(Bareiss 1968; Edmonds 1967): row r stays, every other row i, the
objective row included, becomes (p T_i - F_i T_r) / D, an exact division
since the new rows are again D' (B'^-1)_i with D' = det B' = p, and D
becomes p.  The ratio test pivots only on p > 0, so D stays positive, and
no gcd is ever taken.

The columns are kept apart and priced on demand: Bland's rule computes
c_j - y.a_j in column order up to the first positive one, and the ratio
test computes T a_e.  A pivot rewrites only rows of width m + 1, however
many columns the LP has.  Each choice (first improving column, slacks
last; smallest ratio, ties to the smallest basic column) compares exact
rationals, so the pivots and the vertex are the dense tableau's.

A ``Tableau`` outlives its solve, for a family of LPs over one feasible
region.  Adding a column or replacing the objective leaves the right-hand
side alone, so the basis stays primal feasible and the next solve resumes
Bland's rule from a basis already reached: a warm start.  The tableau
starts with its rows and no column; every column enters one at a time, at
an int cost, numbered in order before the slacks (slack i is ``added +
i``), as ``solve_lp`` adds its variables; a 0/1 column, such as a spanning
forest over edge rows, is added as its support.  Bland's rule enters the
first improving column, so a new column can change the path only at a
step that entered a slack, or at the end.  ``solve`` keeps a checkpoint
before each pivot into a slack, and ``add_column`` goes back to the first
checkpoint at which the new column has a positive reduced cost.  So a
tableau grown by column generation walks the pivot path of a cold solve
over all of its columns, from that checkpoint on, and stops at the same
vertex (Bland 1977; Desrosiers and Lübbecke 2005 on column generation).
Adding a column touches no row and a pivot builds new rows instead of
changing one in place, so a checkpoint is a shallow copy of the row list.
"""

from __future__ import annotations

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

    ``Tableau(rhs)`` starts at the slack basis of the rows x <= rhs, with
    no column and a zero objective.  ``add_column`` adds a variable at an
    int cost after the existing ones and before the slacks, ``add_support``
    adds a 0/1 one at cost 1 by the rows of its 1s, ``set_objective``
    replaces the objective and ``solve`` runs Bland's rule from the current
    basis.  Every solve ends where Bland's rule would end if it started at
    the basis of the last ``set_objective`` with every current column
    already there: from the slack basis, where ``solve_lp`` ends on the
    same LP.  ``basis`` numbers slack i ``added + i``; ``det`` is the
    determinant of the basis, each column over the lcm of its entries'
    denominators, and every row is an int multiple of B^-1 over it.
    ``pivots`` counts pivots and ``rewinds`` rewinds, over all solves.
    """

    def __init__(self, rhs):
        self.m = m = len(rhs)
        self.added = 0  # columns added, numbered before the slacks
        self.pivots = 0
        self.rewinds = 0
        b, self._rhs_den = _scaled(rhs)
        # row i: det * (B^-1)_i and det * (B^-1 b')_i; then the objective row
        self.tab: list[list[int]] = []
        for i in range(m):
            if b[i] < 0:
                raise ValueError(f"right-hand side {rhs[i]} of row {i} is negative")
            row = [0] * (m + 1)
            row[i], row[m] = 1, b[i]
            self.tab.append(row)
        self.tab.append([0] * (m + 1))
        self.det = 1
        self._q = 1  # the objective's denominator
        self.basis = list(range(m))
        # (rows, entries or None when all are 1, cost * d over q, d) per column
        self._cols = []
        # (tab, det, basis, added) before each pivot into a slack since the
        # last set_objective; the duals are in the objective row
        self._checkpoints: list[tuple] = []

    def add_column(self, coeffs, cost) -> None:
        """Add a variable with constraint coefficients ``coeffs`` (one per
        row) and int objective coefficient ``cost``, nonbasic at 0, after
        the other variables and before the slacks.

        On the path taken since the last ``set_objective`` the new column
        changes only the first step that entered a slack while the column's
        reduced cost there, cost - y . a, was positive: Bland's rule enters
        it there instead, so the tableau goes back to that checkpoint.
        """
        idx, vals, d = _column(coeffs)
        self._add(idx, vals, cost, d)

    def add_support(self, rows) -> None:
        """``add_column`` for the column with a 1 in each of ``rows`` and 0
        elsewhere at cost 1, such as a forest over edge rows by its edge
        ids."""
        self._add(list(rows), None, 1, 1)

    def _add(self, idx, vals, cost, d) -> None:
        if type(cost) is not int:
            raise TypeError(f"column cost {cost!r} is not an int")
        cn = cost * d * self._q
        for n, (tab, det, basis, added) in enumerate(self._checkpoints):
            get = tab[-1].__getitem__  # -y over det * q
            ya = sum(map(get, idx)) if vals is None else sum(map(mul, map(get, idx), vals))
            if cn * det + ya > 0:
                del self._checkpoints[n:]
                shift = self.added - added
                self.tab, self.det = tab, det
                self.basis = [j + shift if j >= added else j for j in basis]
                self.rewinds += 1
                break
        self._cols.append((idx, vals, cn, d))
        at = self.added  # the first slack
        self.basis = [j + (j >= at) for j in self.basis]
        self.added += 1

    def set_objective(self, c) -> None:
        """Maximize c . x from the current basis; ``c`` has one entry per
        column, in the order they were added, and may be rational.

        The objective row becomes -c_B T over det * q, with minus the value
        of the current vertex, for q the common denominator of the costs of
        the integer columns.  The checkpoints are dropped: the next solve
        starts a new path from this basis.
        """
        nv = self.added
        if len(c) != nv:
            raise ValueError(f"objective has {len(c)} entries for {nv} variables")
        cost, self._q = _scaled(c)
        self._cols = cols = [(idx, vals, cj * d, d) for (idx, vals, _, d), cj in zip(self._cols, cost)]
        obj = [0] * (self.m + 1)
        for i, j in enumerate(self.basis):
            if j < nv and (cb := cols[j][2]):
                for k, v in enumerate(self.tab[i]):
                    if v:
                        obj[k] -= cb * v
        self.tab[self.m] = obj
        self._checkpoints.clear()

    def solve_duals(self) -> tuple[list[int], int]:
        """Pivot to an optimum of the current objective, keeping a
        checkpoint before each pivot that enters a slack.  Returns the duals
        ``c_B B^-1`` of the optimal basis B as integers over one positive
        denominator, so every one is >= 0.  Raises ``LpUnbounded`` when the
        objective has no maximum; the basis is then still feasible."""
        tab, basis, m = self.tab, self.basis, self.m
        nv = self.added  # the first slack
        while (step := _bland_step(tab, self.det, basis, self._cols, nv)) is not None:
            r, e, f = step
            if e >= nv:
                self._checkpoints.append((tab[:], self.det, basis[:], self.added))
            self.det = _pivot(tab, self.det, r, f)
            basis[r] = e
            self.pivots += 1
        return [-y for y in tab[m][:m]], self.det * self._q

    def solve(self) -> LpResult:
        """``solve_duals``, with the optimum, the vertex and the duals as
        Fractions."""
        duals, dden = self.solve_duals()
        tab, m, cols = self.tab, self.m, self._cols
        nv = self.added
        xden = self.det * self._rhs_den
        x = [ZERO] * nv
        for i, j in enumerate(self.basis):
            if j < nv:
                x[j] = Fraction(cols[j][3] * tab[i][m], xden)
        value = Fraction(-tab[m][m], dden * self._rhs_den)
        return LpResult(value, x, [Fraction(y, dden) for y in duals])


def solve_lp(c, rows, rhs) -> LpResult:
    """Solve max c.x s.t. rows[i] . x <= rhs[i], x >= 0, where every
    rhs[i] >= 0, from the slack basis.

    ``rows`` are dense coefficient lists; coefficients are ints, Fractions
    or anything ``Fraction`` accepts.  Bland's rule guarantees termination.
    Raises ``ValueError`` on a negative right-hand side or a row whose
    length is not the objective's, and ``LpUnbounded`` when the objective
    has no maximum.  See ``Tableau.solve_duals`` for the duals.
    """
    if any(len(row) != len(c) for row in rows):
        raise ValueError(f"every row needs one coefficient per entry of the objective, {len(c)}")
    t = Tableau(rhs)
    for j in range(len(c)):
        t.add_column([row[j] for row in rows], 0)
    t.set_objective(c)
    return t.solve()


def _column(coeffs):
    """(rows, numerators, d): the rows of the nonzero entries of
    ``coeffs``, their numerators over the lcm d of their denominators, or
    None when all of them are 1, and d."""
    nums, d = _scaled(coeffs)
    idx = [i for i, a in enumerate(nums) if a]
    vals = [nums[i] for i in idx]
    return idx, None if all(a == 1 for a in vals) else vals, d


def _bland_step(tab, det, basis, cols, nv):
    """The next pivot of Bland's rule, maximizing the objective, or None at
    an optimum.  Returns (row, column, f): f[i] is T_i a for the entering
    integer column a, det times its entry in row i of the tableau, and the
    last entry is its reduced cost times det * q."""
    m = len(basis)
    obj = tab[m]
    get = obj.__getitem__
    basic = set(basis)
    # Bland: first improving column, pricing c_j - y.a_j over det * q;
    # basic columns price 0
    for e in range(nv):
        if e in basic:
            continue
        idx, vals, cn, _ = cols[e]
        rc = cn * det + (sum(map(get, idx)) if vals is None else sum(map(mul, map(get, idx), vals)))
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
        e, rc = nv + s, obj[s]
        f = [row[s] for row in tab[:m]]
    # Smallest ratio b_i / f_i over f_i > 0, compared by cross-multiplying
    # (det cancels); ties to the smallest basic column.
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
    return leave, e, f


def _pivot(tab, det, r, f):
    """Bareiss's pivot on row ``r``, given the entering column's entry f[i]
    over det in every row, the objective row included; returns the new
    determinant p = f[r].  Row r stays and row i becomes (p * row_i - f_i
    * row_r) / det, exactly; no row is changed in place, and a row with
    f_i = 0 is left alone when p = det."""
    prow = tab[r]
    p = f[r]
    # Where row r is 0 the new entry is p * v / det, exact on its own and v
    # itself when p = det, so for a sparse row r only its nonzero entries
    # take the full update.  On the colgen-lp and verify-oracle workloads
    # 39% and 51% of the pivots keep p = det, and updating every entry
    # when most of row r is nonzero makes colgen-lp 2-3% faster.
    nz = [(j, w) for j, w in enumerate(prow) if w]
    dense = 2 * len(nz) > len(prow)
    for i, fi in enumerate(f):
        if i == r or (p == det and not fi):
            continue
        row = tab[i]
        if dense:
            tab[i] = [(p * v - fi * w) // det for v, w in zip(row, prow)]
            continue
        new = row[:] if p == det else [p * v // det if v else 0 for v in row]
        for j, w in nz:
            new[j] = (p * row[j] - fi * w) // det
        tab[i] = new
    return p
