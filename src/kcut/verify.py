"""Cross-check battery: runs every certified identity the toolkit promises
on a given graph and reports structured pass/fail rows.

Certificate rows (exact identities between independently computed objects)
decide the exit status; brute-force oracle rows are skipped when the
instance exceeds the oracle limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cuts import (
    dual_respect_bound,
    min_kcut,
    ravi_sinha_cut,
    respect_stats,
    round_lp,
)
from .exact import rational_str
from .graph import Graph, crossing_edges
from .lp import (
    check_complementary_slackness,
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
from .strength import principal_sequence, strength


@dataclass
class CheckRow:
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


def _kcut_and_dual(g: Graph, psp, k: int):
    """min_kcut's optimal cut and report, and the explicit dual it scanned;
    only at k = n, where min_kcut scans nothing, is the dual built here."""
    best, report = min_kcut(g, k)
    dual = report.dual
    if dual is None:
        dual = lp_dual(g, psp, k, explicit=True)
    return best, report, dual


def run_verification(g: Graph, ks=None, limits: OracleLimits = DEFAULT_LIMITS) -> list[CheckRow]:
    if g.n < 2 or not g.is_connected():
        raise ValueError("verify expects a connected graph with n >= 2")
    rows: list[CheckRow] = []
    if ks is None:
        ks = range(2, g.n + 1)
    ks = sorted(set(ks))

    sigma, sigma_part = strength(g)
    psp = principal_sequence(g)
    # A zero-capacity cut leaves the k-cut LP closed forms undefined, and
    # exact_pack packs the positive part; only the oracle rows apply.
    degenerate = "strength 0: the LP and packing certificates need every cut positive" if sigma == 0 else ""
    if degenerate:
        _skip(rows, "treepack-minmax", degenerate, certificate=True)
    else:
        # At k = 2 the dual has z = 0, so its packing is an optimal packing
        # of g itself; it serves the min-max and 2-respect rows as well.
        k2cut, k2report, k2dual = _kcut_and_dual(g, psp, 2)
        pack = k2dual.packing
        _row(
            rows,
            "treepack-minmax",
            pack.total_value == sigma,
            f"strength {rational_str(sigma)}, packing value {rational_str(pack.total_value)}",
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
        try:
            ideal_packing(g, psp)
        except SaturationError as exc:
            _row(rows, "psp-ideal-packing", False, str(exc))
        else:
            _row(rows, "psp-ideal-packing", True, f"{len(psp.levels)} levels")

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

    if degenerate:
        for name in [f"k={k}" for k in ks if 2 <= k <= g.n] + ["global-mincut", "mincut-2respect-fraction"]:
            _skip(rows, name, degenerate, certificate=True)
        return rows

    mincut = global_mincut(g)
    n = g.n
    for k in ks:
        if not 2 <= k <= g.n:
            continue
        tag = f"k={k}"
        primal = lp_primal(psp, k)
        if k == 2:
            best, report, dual = k2cut, k2report, k2dual
        else:
            best, report, dual = _kcut_and_dual(g, psp, k)
        lag, lag_b = lagrangean_value(psp, k)
        _row(
            rows,
            f"lp-triple-equality[{tag}]",
            primal.objective == dual.objective == lag,
            f"value {rational_str(lag)} at b={rational_str(lag_b)}",
        )
        pv = verify_primal(g, primal.x, k)
        dv = verify_dual(g, dual)
        cs = check_complementary_slackness(g, primal.x, dual)
        _row(rows, f"lp-primal-feasible[{tag}]", pv.ok)
        _row(rows, f"lp-dual-feasible[{tag}]", dv.ok)
        _row(
            rows,
            f"lp-complementary-slackness[{tag}]",
            cs.ok,
            "; ".join(cs.witnesses[:3]),
        )

        _row(
            rows,
            f"dual-packing-bound[{tag}]",
            (k - 1) * dual.total_y
            >= Fraction(n, 2 * (n - 1)) * best.value + sum(dual.z, Fraction(0)),
            f"min {k}-cut {rational_str(best.value)}",
        )
        limit = 2 * (1 - Fraction(1, n))
        ratio = best.value / primal.objective if primal.objective else Fraction(0)
        gap_ok = ratio <= limit
        note = f"ratio {rational_str(ratio)} vs 2(1-1/n) = {rational_str(limit)}"
        if ratio == limit:
            note += " (tight)"
        _row(rows, f"integrality-gap[{tag}]", gap_ok, note)

        if k < g.n:
            h = 2 * k - 3 if k > 2 else 1
            witness_ok = True
            qh_ok = True
            for cut in report.cuts:
                eids = crossing_edges(g, cut.partition.block_of(g.n))
                stats = respect_stats(dual.packing, eids, h)
                if min(stats.crossings) > h:
                    witness_ok = False
                if stats.q_h < dual_respect_bound(1, k, h, n):
                    qh_ok = False
            _row(rows, f"optimal-cut-respect[{tag}]", witness_ok, f"h={h}")
            _row(rows, f"respect-fraction-bound[{tag}]", qh_ok)

        rounded = round_lp(g, primal)
        rs = ravi_sinha_cut(g, psp, k)
        bound = 2 * (1 - Fraction(1, n)) * primal.objective
        _row(
            rows,
            f"rounding-bound[{tag}]",
            rounded.cut.k_achieved >= k and rounded.cut.value <= bound and rounded.certified,
            f"rounded {rational_str(rounded.cut.value)} <= {rational_str(bound)}",
        )
        _row(
            rows,
            f"smallest-shores-bound[{tag}]",
            rs.k_achieved >= k and rs.value <= bound,
            f"cut {rational_str(rs.value)}",
        )

        if table is None:
            _skip(rows, f"oracle-min-kcut[{tag}]", partition_limit)
        else:
            ocut, oall = table.min_kcut(k)
            same_value = ocut.value == best.value
            same_set = set(p.parts for p in oall) == set(
                c.partition.parts for c in report.cuts
            )
            _row(
                rows,
                f"oracle-min-kcut[{tag}]",
                same_value and same_set,
                f"oracle {rational_str(ocut.value)}, {len(oall)} minimizers",
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

    # global mincut row + 2-respecting fraction
    _row(
        rows,
        "global-mincut",
        mincut.value == k2cut.value,
        f"value {rational_str(mincut.value)}",
    )
    q2_ok = True
    for cut in k2report.cuts:
        eids = crossing_edges(g, cut.partition.block_of(g.n))
        stats = respect_stats(pack, eids, 2)
        if stats.q_h < Fraction(1, 2) + Fraction(1, n):
            q2_ok = False
    _row(rows, "mincut-2respect-fraction", q2_ok)
    return rows
