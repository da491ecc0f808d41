"""Cross-check battery: runs every certified identity the toolkit promises
on a given graph and reports structured pass/fail rows.

Certificate rows (exact identities between independently computed objects)
decide the exit status; brute-force oracle rows do not.  Each row is one
``check`` that names the reason it may be skipped (strength 0, a failed
ideal packing, an oracle limit) and runs its test only when none is set.
One row is not independent: on the
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

from .cuts import dual_respect_bound, min_kcut, mincut_respect_bound, respect_stats, round_lp
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
from .oracle import DEFAULT_LIMITS, ForestLP, OracleLimitError, OracleLimits, partition_table
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


def run_verification(g: Graph, ks=None, limits: OracleLimits = DEFAULT_LIMITS) -> list[CheckRow]:
    """Every row on g for each k of ks in 2..n (default all), in order:
    ``treepack-minmax``, ``oracle-treepack``, ``psp-ideal-packing``,
    ``oracle-strength``; each k's rows tagged ``[k=K]``, k ascending; then
    ``global-mincut`` and ``mincut-2respect-fraction``.  Each row is one
    ``check`` with the reason it is skipped for, its detail if it is:
    ``degenerate`` (strength 0: no LP or packing certificate applies, and
    each k is one ``k=K`` row), ``no_dual`` (the ideal packing failed) for
    every row that reads a dual or its scan, and ``forest_limit`` or
    ``partition_limit`` for the forest-LP or partition-table rows."""
    if g.n < 2 or not g.is_connected():
        raise ValueError("verify expects a connected graph with n >= 2")
    n = g.n
    rows: list[CheckRow] = []
    ks = sorted({k for k in (range(2, n + 1) if ks is None else ks) if 2 <= k <= n})

    def check(name, why, test, certificate=True):
        """Row ``name``: skipped with ``why`` as its detail when ``why`` is
        set, else passed or failed on ``test()``'s (ok, detail)."""
        if why:
            rows.append(CheckRow(name, "skip", why, certificate))
        else:
            ok, detail = test()
            rows.append(CheckRow(name, "pass" if ok else "fail", detail, certificate))

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
    # One ForestLP enumerates the spanning forests once and answers every
    # forest-LP row; one partition table answers the strength and every k's
    # minimum k-cut.
    forest_lp, forest_limit = ForestLP(g, limits), ""
    try:
        otp = forest_lp.treepack()
    except OracleLimitError as exc:
        forest_limit = str(exc)
    try:
        table, partition_limit = partition_table(g, limits), ""
    except OracleLimitError as exc:
        partition_limit = str(exc)
    scans = {}  # k -> scan(k)
    feasible = {}  # level index -> verify_dual's verdict: z and the packing depend only on the level

    def respect(dual, report, h):
        """respect_stats at h of every optimal cut of report against dual's packing."""
        return [respect_stats(dual.packing, crossing_edges(g, cut.block_of(n)), h) for cut in report.cuts]

    def scan(k):
        """k's explicit dual, whether it is feasible, min_kcut's optimal cut
        and report on it, and for k < n ``respect`` at its h, once per k."""
        if k not in scans:
            dual = ideal_dual(ideal, lp_dual(psp, k))
            if dual.level_index not in feasible:
                feasible[dual.level_index] = verify_dual(g, dual).ok
            best, report = min_kcut(psp, k, dual=dual)
            stats = respect(dual, report, report.h) if k < n else None
            scans[k] = dual, feasible[dual.level_index], best, report, stats
        return scans[k]

    # At k = 2 the dual has z = 0, so its packing is a packing of g itself,
    # of value sigma by construction: feasible, beside the level-1 partition
    # of strength sigma, it certifies the min-max.
    check(
        "treepack-minmax",
        no_dual,
        lambda: (
            (packed := scan(2)[0].packing.total_value) == sigma and scan(2)[1],
            f"strength {rational_str(sigma)}, packing value {rational_str(packed)}",
        ),
    )
    check(
        "oracle-treepack", forest_limit, lambda: (otp == sigma, f"oracle {rational_str(otp)}"), certificate=False
    )
    check("psp-ideal-packing", degenerate, lambda: (ideal is not None, no_dual or f"{len(psp.levels)} levels"))
    check(
        "oracle-strength",
        partition_limit,
        lambda: ((osig := table.strength()) == (sigma, sigma_part), f"oracle {rational_str(osig[0])}"),
        certificate=False,
    )

    gap_limit = 2 * (1 - Fraction(1, n))
    for k in ks:
        tag = f"k={k}"
        if degenerate:
            check(tag, degenerate, None)
            continue
        primal = lp_primal(psp, k)
        dual, dual_ok, best, report, stats = (lp_dual(psp, k), None, None, None, None) if no_dual else scan(k)
        lag, lag_b = lagrangean_value(psp, k)
        check(
            f"lp-triple-equality[{tag}]",
            "",
            lambda: (
                primal.objective == dual.objective == lag,
                f"value {rational_str(lag)} at b={rational_str(lag_b)}",
            ),
        )
        check(f"lp-primal-feasible[{tag}]", "", lambda: (verify_primal(g, primal.x, k).ok, ""))
        check(f"lp-dual-feasible[{tag}]", no_dual, lambda: (dual_ok, ""))
        check(
            f"lp-complementary-slackness[{tag}]",
            no_dual,
            lambda: ((cs := check_complementary_slackness(g, primal.x, dual)).ok, "; ".join(cs.witnesses[:3])),
        )

        def packing_bound():
            z, dz = _scaled(dual.z)
            bound = Fraction(n, 2 * (n - 1)) * best.crossing_value + Fraction(sum(z), dz)
            return (k - 1) * dual.total_y >= bound, f"min {k}-cut {rational_str(best.crossing_value)}"

        def gap():
            ratio = best.crossing_value / primal.objective if primal.objective else Fraction(0)
            note = f"ratio {rational_str(ratio)} vs 2(1-1/n) = {rational_str(gap_limit)}"
            return ratio <= gap_limit, note + " (tight)" * (ratio == gap_limit)

        def fraction_bound():
            qh_bound = dual_respect_bound(1, k, report.h, n)
            return all(s.q_h >= qh_bound for s in stats), ""

        check(f"dual-packing-bound[{tag}]", no_dual, packing_bound)
        check(f"integrality-gap[{tag}]", no_dual, gap)
        if k < n:
            check(
                f"optimal-cut-respect[{tag}]",
                no_dual,
                lambda: (all(min(s.crossings) <= report.h for s in stats), f"h={report.h}"),
            )
            check(f"respect-fraction-bound[{tag}]", no_dual, fraction_bound)

        rounded = round_lp(psp, primal)
        value, bound = rounded.cut.crossing_value, gap_limit * primal.objective
        fits = rounded.cut.part_count >= k and value <= bound
        check(
            f"rounding-bound[{tag}]",
            "",
            lambda: (fits and rounded.certified, f"rounded {rational_str(value)} <= {rational_str(bound)}"),
        )
        check(f"smallest-shores-bound[{tag}]", "", lambda: (fits, f"cut {rational_str(value)}"))
        check(
            f"oracle-min-kcut[{tag}]",
            partition_limit or no_dual,
            lambda: (
                set(oall := table.min_kcut(k)[1]) == set(report.cuts),  # a partition carries its value
                f"oracle {rational_str(oall[0].crossing_value)}, {len(oall)} minimizers",
            ),
            certificate=False,
        )
        check(
            f"oracle-lp-value[{tag}]",
            forest_limit,
            lambda: ((olp := forest_lp.lp_value(k)) == primal.objective, f"oracle {rational_str(olp)}"),
            certificate=False,
        )

    # global mincut row + 2-respecting fraction, on the k = 2 scan
    check(
        "global-mincut",
        no_dual,
        lambda: (
            (mincut := global_mincut(g)).crossing_value == scan(2)[2].crossing_value,
            f"value {rational_str(mincut.crossing_value)}",
        ),
    )
    q2_bound = mincut_respect_bound(2, n)
    check(
        "mincut-2respect-fraction",
        no_dual,
        lambda: (all(s.q_h >= q2_bound for s in respect(scan(2)[0], scan(2)[3], 2)), ""),
    )
    return rows
