"""Cross-check battery: runs every certified identity the toolkit promises
on a given graph and reports structured pass/fail rows.

Certificate rows (exact identities between independently computed objects)
decide the exit status; brute-force oracle rows are skipped when the
instance exceeds the oracle limits.  One row is not independent: on the
closed-form optimum the smallest-shores cut is LP rounding of it, so
``smallest-shores-bound`` is ``rounding-bound`` without its ``certified``
test and fails only with it.

Every k's explicit dual is one object: the ideal packing of the principal
sequence (the ``psp-ideal-packing`` row), coupled into one distribution of
spanning trees and scaled by k's lambda_j (``lp.ideal_dual``).  No column
generation runs in c+z.  One memo per job builds each k's dual, runs the
exact k-cut scan on it and checks it feasible once per level; every row
that reads them reads the memo.  ``treepack-minmax`` is the k = 2 dual, of
value sigma by construction, checked feasible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cuts import (
    dual_respect_bound,
    min_kcut,
    mincut_respect_bound,
    respect_stats,
    round_lp,
)
from .graph import Graph, _scaled, crossing_edges, rational_str
from .lp import (
    check_complementary_slackness,
    ideal_dual,
    ideal_packing,
    lagrangean_value,
    lp_dual,
    lp_primal,
    verify_dual,
    verify_primal,
)
from .mincut import global_mincut
from .oracle import (
    DEFAULT_LIMITS,
    ForestLP,
    OracleLimitError,
    OracleLimits,
    partition_table,
)
from .packing import SaturationError
from .strength import principal_sequence


class CheckRow(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    certificate: bool = True  # certificate rows decide the exit code

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "status": self.status,
            "detail": self.detail,
            "certificate": self.certificate,
        }


def _row(rows, name, ok, detail="", certificate=True):
    rows.append(CheckRow(name, "pass" if ok else "fail", detail, certificate))


def _skip(rows, name, why, certificate=False):
    rows.append(CheckRow(name, "skip", why, certificate))


def run_verification(g: Graph, ks=None, limits: OracleLimits = DEFAULT_LIMITS) -> list[CheckRow]:
    """Every row on g for each k of ks in 2..n (default all), in order:
    ``treepack-minmax``, ``oracle-treepack``, ``psp-ideal-packing``,
    ``oracle-strength``; each k's rows tagged ``[k=K]``, k ascending; then
    ``global-mincut`` and ``mincut-2respect-fraction``.  A skipped row
    gives its reason as its detail.  At strength 0 no LP or packing
    certificate applies, and each k is one skipped ``k=K`` row.  Should the
    ideal packing fail, every row that reads a dual or its scan is skipped
    with that failure.  Past the oracle limits, the forest-LP rows or the
    partition-table rows are skipped."""
    if g.n < 2 or not g.is_connected():
        raise ValueError("verify expects a connected graph with n >= 2")
    n = g.n
    rows: list[CheckRow] = []
    ks = sorted({k for k in (range(2, n + 1) if ks is None else ks) if 2 <= k <= n})

    psp = principal_sequence(g)
    sigma, sigma_part = psp.levels[0].lam, psp.levels[0].partition  # g is connected
    # A zero-capacity cut leaves the ideal packing undefined and the k=2
    # dual's packing empty, which the min-max and respect rows read; only
    # the oracle rows apply.
    degenerate = "strength 0: the LP and packing certificates need every cut positive" if sigma == 0 else ""
    # The coupled ideal packing, scaled by lambda_j, is every k's explicit dual.
    ideal, no_dual = None, degenerate
    if not degenerate:
        try:
            ideal = ideal_packing(psp)
        except SaturationError as exc:
            no_dual = str(exc)
    scans = {}  # k -> scan(k)
    feasible = {}  # level index -> verify_dual's verdict: z and the packing depend only on the level

    def scan(k):
        """k's explicit dual, whether it is feasible, and min_kcut's optimal
        cut and report on it, once per k; no column generation runs."""
        if k not in scans:
            dual = ideal_dual(ideal, lp_dual(psp, k))
            if dual.level_index not in feasible:
                feasible[dual.level_index] = verify_dual(g, dual).ok
            scans[k] = dual, feasible[dual.level_index], *min_kcut(psp, k, dual=dual)
        return scans[k]

    if no_dual:
        _skip(rows, "treepack-minmax", no_dual, certificate=True)
    else:
        # At k = 2 the dual has z = 0, so its packing is a packing of g
        # itself, of value sigma by construction: feasible, beside the
        # level-1 partition of strength sigma, it certifies the min-max.
        # It serves the 2-respect rows as well.
        dual, dual_feasible, _, _ = scan(2)
        _row(
            rows,
            "treepack-minmax",
            dual.packing.total_value == sigma and dual_feasible,
            f"strength {rational_str(sigma)}, packing value {rational_str(dual.packing.total_value)}",
        )
    # One ForestLP enumerates the spanning forests once and answers every
    # forest-LP row; past the forest limit all of those rows are skipped.
    forest_lp, forest_limit = ForestLP(g, limits), ""
    try:
        otp = forest_lp.treepack()
        _row(rows, "oracle-treepack", otp == sigma, f"oracle {rational_str(otp)}", certificate=False)
    except OracleLimitError as exc:
        forest_limit = str(exc)
        _skip(rows, "oracle-treepack", forest_limit)

    if degenerate:
        _skip(rows, "psp-ideal-packing", degenerate, certificate=True)
    else:
        _row(rows, "psp-ideal-packing", ideal is not None, no_dual or f"{len(psp.levels)} levels")

    # One partition table answers the strength and every k's minimum k-cut.
    try:
        table, partition_limit = partition_table(g, limits), ""
    except OracleLimitError as exc:
        table, partition_limit = None, str(exc)
        _skip(rows, "oracle-strength", partition_limit)
    else:
        osig, opart = table.strength()
        _row(
            rows,
            "oracle-strength",
            (osig, opart) == (sigma, sigma_part),
            f"oracle {rational_str(osig)}",
            certificate=False,
        )

    for k in ks:
        tag = f"k={k}"
        if degenerate:
            _skip(rows, tag, degenerate, certificate=True)
            continue
        primal = lp_primal(psp, k)
        if no_dual:
            dual = lp_dual(psp, k)
        else:
            dual, dual_feasible, best, report = scan(k)
        lag, lag_b = lagrangean_value(psp, k)
        _row(
            rows,
            f"lp-triple-equality[{tag}]",
            primal.objective == dual.objective == lag,
            f"value {rational_str(lag)} at b={rational_str(lag_b)}",
        )
        _row(rows, f"lp-primal-feasible[{tag}]", verify_primal(g, primal.x, k).ok)
        if no_dual:
            names = ["lp-dual-feasible", "lp-complementary-slackness", "dual-packing-bound", "integrality-gap"]
            if k < n:
                names += ["optimal-cut-respect", "respect-fraction-bound"]
            for name in names:
                _skip(rows, f"{name}[{tag}]", no_dual, certificate=True)
        else:
            # k's rows on its explicit dual and the scan of it; for k < n
            # the respect rows read every optimal cut
            cs = check_complementary_slackness(g, primal.x, dual)
            _row(rows, f"lp-dual-feasible[{tag}]", dual_feasible)
            _row(
                rows,
                f"lp-complementary-slackness[{tag}]",
                cs.ok,
                "; ".join(cs.witnesses[:3]),
            )
            z, dz = _scaled(dual.z)
            _row(
                rows,
                f"dual-packing-bound[{tag}]",
                (k - 1) * dual.total_y
                >= Fraction(n, 2 * (n - 1)) * best.crossing_value + Fraction(sum(z), dz),
                f"min {k}-cut {rational_str(best.crossing_value)}",
            )
            limit = 2 * (1 - Fraction(1, n))
            ratio = best.crossing_value / primal.objective if primal.objective else Fraction(0)
            note = f"ratio {rational_str(ratio)} vs 2(1-1/n) = {rational_str(limit)}"
            if ratio == limit:
                note += " (tight)"
            _row(rows, f"integrality-gap[{tag}]", ratio <= limit, note)

            if k < n:
                h = report.h
                stats = [respect_stats(dual.packing, crossing_edges(g, cut.block_of(n)), h) for cut in report.cuts]
                _row(rows, f"optimal-cut-respect[{tag}]", all(min(s.crossings) <= h for s in stats), f"h={h}")
                qh_bound = dual_respect_bound(1, k, h, n)
                _row(rows, f"respect-fraction-bound[{tag}]", all(s.q_h >= qh_bound for s in stats))

        rounded = round_lp(psp, primal)
        bound = 2 * (1 - Fraction(1, n)) * primal.objective
        _row(
            rows,
            f"rounding-bound[{tag}]",
            rounded.cut.part_count >= k and rounded.cut.crossing_value <= bound and rounded.certified,
            f"rounded {rational_str(rounded.cut.crossing_value)} <= {rational_str(bound)}",
        )
        _row(
            rows,
            f"smallest-shores-bound[{tag}]",
            rounded.cut.part_count >= k and rounded.cut.crossing_value <= bound,
            f"cut {rational_str(rounded.cut.crossing_value)}",
        )

        if table is None or no_dual:
            _skip(rows, f"oracle-min-kcut[{tag}]", partition_limit or no_dual)
        else:
            ocut, oall = table.min_kcut(k)
            _row(
                rows,
                f"oracle-min-kcut[{tag}]",
                set(oall) == set(report.cuts),  # a partition carries its value
                f"oracle {rational_str(ocut.crossing_value)}, {len(oall)} minimizers",
                certificate=False,
            )
        if forest_limit:
            _skip(rows, f"oracle-lp-value[{tag}]", forest_limit)
        else:
            olp = forest_lp.lp_value(k)
            _row(
                rows,
                f"oracle-lp-value[{tag}]",
                olp == primal.objective,
                f"oracle {rational_str(olp)}",
                certificate=False,
            )

    if no_dual:
        for name in ("global-mincut", "mincut-2respect-fraction"):
            _skip(rows, name, no_dual, certificate=True)
        return rows
    # global mincut row + 2-respecting fraction, on the k = 2 scan
    dual, _, best, report = scan(2)
    mincut = global_mincut(g)
    _row(
        rows,
        "global-mincut",
        mincut.crossing_value == best.crossing_value,
        f"value {rational_str(mincut.crossing_value)}",
    )
    q2_bound = mincut_respect_bound(2, n)
    stats = [respect_stats(dual.packing, crossing_edges(g, cut.block_of(n)), 2) for cut in report.cuts]
    _row(rows, "mincut-2respect-fraction", all(s.q_h >= q2_bound for s in stats))
    return rows
