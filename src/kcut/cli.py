"""Command-line front end.  One JSON document (or TSV) on stdout per run;
diagnostics on stderr.  Exit codes: 0 ok, 1 input error, 2 a certificate
failed."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cuts import enumerate_approx_kcuts, min_kcut, ravi_sinha_cut, round_lp
from .graph import Graph, ParseError, crossing_edges, parse_graph, rational_str, to_fraction
from .lp import (
    check_complementary_slackness,
    dual_packing,
    lagrangean_value,
    lp_dual,
    lp_primal,
    verify_dual,
    verify_primal,
)
from .mincut import global_mincut_detail
from .oracle import (
    OracleLimitError,
    OracleLimits,
    oracle_lp_value,
    oracle_min_kcut,
    oracle_strength,
    oracle_treepack,
)
from .packing import PackConfig, PackingError, TreePacking, exact_pack, mwu_pack
from .strength import principal_sequence, strength
from .verify import run_verification


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we reserve 2
        raise CliError(message)


def _cut_json(cut) -> dict:
    return {
        "value": rational_str(cut.crossing_value),
        "parts": cut.part_count,
        "partition": cut.to_json(),
    }


def _trees_json(packing: TreePacking) -> list[dict]:
    return [
        {"edges": list(t), "weight": rational_str(w)}
        for t, w in zip(packing.trees, packing.weights)
    ]


def _packing_json(packing: TreePacking) -> dict:
    loads = packing.loads()
    out = {
        "trees": _trees_json(packing),
        "loads": {str(eid): rational_str(loads[eid]) for eid in sorted(loads)},
        "total_value": rational_str(packing.total_value),
    }
    if packing.approximate:
        out["approx_value"] = float(packing.total_value)
    return out


def _rational(text, default):
    """The value of a rational flag such as ``--eps 1/6``; unset means ``default``."""
    if not text:
        return default
    try:
        return to_fraction(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _read_graph(args) -> Graph:
    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(str(exc)) from None
    return parse_graph(text)


def _cmd_strength(g, args):
    sigma, part = strength(g)
    return {"strength": rational_str(sigma), "partition": part.to_json()}


def _cmd_psp(g, args):
    psp = principal_sequence(g)
    return {
        "components": psp.p0.to_json(),
        "levels": [
            {
                "lambda": rational_str(level.lam),
                "partition": level.partition.to_json(),
                "kappa": level.kappa,
            }
            for level in psp.levels
        ],
    }


def _cmd_pack(g, args):
    if args.exact:
        packing = exact_pack(principal_sequence(g))
    else:
        eps = _rational(args.eps, Fraction(1, 10))
        packing = mwu_pack(g, config=PackConfig(epsilon=eps))
    return _packing_json(packing)


def _cmd_lp(g, args):
    psp = principal_sequence(g)
    k = args.k
    primal = lp_primal(psp, k)
    dual = lp_dual(psp, k)
    z = [rational_str(v) for v in dual.z]  # refuse an unprintable z before the column generation
    dual = dual_packing(g, dual)
    lag, lag_b = lagrangean_value(psp, k)
    pv = verify_primal(g, primal.x, k)
    dv = verify_dual(g, dual)
    cs = check_complementary_slackness(g, primal.x, dual)
    out = {
        "primal": {
            "x": [rational_str(v) for v in primal.x],
            "value": rational_str(primal.objective),
        },
        "dual": {
            "z": z,
            "trees": _trees_json(dual.packing),
            "value": rational_str(dual.objective),
        },
        "lagrangean": {"b": rational_str(lag_b), "value": rational_str(lag)},
        "certificates": {
            "primal_feasible": pv.ok,
            "dual_feasible": dv.ok,
            "cs": [cs.z_implies_tight_x, cs.trees_tight, cs.x_implies_tight_load],
        },
    }
    if not (pv.ok and dv.ok and cs.ok):
        raise CertificateFailure(out)
    return out


class CertificateFailure(Exception):
    def __init__(self, payload):
        self.payload = payload


def _cmd_solve(g, args):
    eps = _rational(args.eps, None)
    cut, report = min_kcut(principal_sequence(g), args.k, eps=eps)
    out = {
        "k": args.k,
        "mode": report.mode,
        "h": report.h,
        "cut": _cut_json(cut),
        "candidates_examined": report.candidates_examined,
        "distinct_cuts": report.distinct_cuts,
    }
    if args.all:
        out["minimizers"] = [_cut_json(c) for c in report.cuts]
    return out


def _cmd_enumerate(g, args):
    alpha = _rational(args.alpha, Fraction(1))
    report = enumerate_approx_kcuts(principal_sequence(g), args.k, alpha)
    return {
        "k": args.k,
        "alpha": rational_str(alpha),
        "h": report.h,
        "min_value": rational_str(report.min_value),
        "threshold": rational_str(report.threshold),
        "count": len(report.cuts),
        "cuts": [_cut_json(c) for c in report.cuts],
    }


def _cmd_round(g, args):
    psp = principal_sequence(g)
    primal = lp_primal(psp, args.k)
    result = round_lp(psp, primal)
    return {
        "k": args.k,
        "lp_value": rational_str(primal.objective),
        "cut": _cut_json(result.cut),
        "bound": rational_str(result.bound),
        "certified": result.certified,
    }


def _cmd_approx(g, args):
    psp = principal_sequence(g)
    cut = ravi_sinha_cut(psp, args.k)
    lp, _ = lagrangean_value(psp, args.k)
    return {"k": args.k, "lp_value": rational_str(lp), "cut": _cut_json(cut)}


def _cmd_mincut(g, args):
    cut, witness, packing = global_mincut_detail(g)
    crossing = crossing_edges(g, cut.block_of(g.n))
    out = {"mincut": _cut_json(cut), "crossing_edges": crossing}
    if witness is not None:
        out["witness_tree"] = witness
        out["witness_tree_edges"] = list(packing.trees[witness])  # every MWU tree is in the support
    return out


def _cmd_oracle(g, args):
    limits = OracleLimits(args.max_partitions, args.max_trees)
    which = args.what
    if args.k is not None and which in ("strength", "treepack"):
        raise CliError(f"oracle {which} takes no --k")
    if which == "strength":
        sigma, part = oracle_strength(g, limits)
        return {"strength": rational_str(sigma), "partition": part.to_json()}
    if which == "kcut":
        if args.k is None:
            raise CliError("oracle kcut needs --k")
        cut, argmins = oracle_min_kcut(g, args.k, limits)
        return {
            "k": args.k,
            "value": rational_str(cut.crossing_value),
            "minimizers": [p.to_json() for p in argmins],
        }
    if which == "treepack":
        return {"treepack": rational_str(oracle_treepack(g, limits))}
    # "lp": argparse's choices admit no other query
    if args.k is None:
        raise CliError("oracle lp needs --k")
    return {"k": args.k, "lp_value": rational_str(oracle_lp_value(g, args.k, limits))}


def _cmd_verify(g, args):
    ks = range(2, min(g.n, args.kmax) + 1) if args.kmax is not None else None
    rows = run_verification(g, ks)
    failed = [r for r in rows if r.status == "fail"]
    out = {
        "rows": [r.to_json() for r in rows],
        "passed": sum(1 for r in rows if r.status == "pass"),
        "failed": len(failed),
        "skipped": sum(1 for r in rows if r.status == "skip"),
        "ok": not failed,
    }
    if failed:
        raise CertificateFailure(out)
    return out


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, rows)
    elif isinstance(obj, list):
        rows.append((prefix, json.dumps(obj)))
    else:
        rows.append((prefix, obj))


def _emit(obj, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj)
    rows: list[tuple[str, object]] = []
    _flatten("", obj, rows)
    return "\n".join(f"{key}\t{val}" for key, val in rows)


def _add_k(p):
    p.add_argument("--k", type=int, required=True)


def _add_pack(p):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--eps", help="approximation parameter (multiplicative weights)")
    mode.add_argument("--exact", action="store_true", help="exact column generation")


def _add_solve(p):
    _add_k(p)
    p.add_argument(
        "--eps",
        help="scan greedy trees up to a packing within 1-eps of the optimum, "
        "0 < eps < 1/(2k-1); past a cap of trees per edge, the exact packing",
    )
    p.add_argument("--all", action="store_true", help="list every minimizer")


def _add_enumerate(p):
    _add_k(p)
    p.add_argument("--alpha", help="approximation ratio (default 1)")


def _add_oracle(p):
    p.add_argument("what", choices=["strength", "kcut", "treepack", "lp"])
    p.add_argument("--k", type=int)
    p.add_argument("--max-partitions", type=int, default=12)
    p.add_argument("--max-trees", type=int, default=20000)
    p.epilog = "flags go after the graph file: kcut oracle kcut G --k 3"


_COMMANDS = {  # name -> (its run, its help, what adds its arguments ahead of the graph file)
    "strength": (_cmd_strength, "exact graph strength", None),
    "psp": (_cmd_psp, "principal sequence of partitions", None),
    "pack": (_cmd_pack, "fractional tree packing", _add_pack),
    "lp": (_cmd_lp, "k-cut LP primal/dual with certificates", _add_k),
    "solve": (_cmd_solve, "minimum k-cut with enumeration", _add_solve),
    "enumerate": (_cmd_enumerate, "all alpha-approximate k-cuts", _add_enumerate),
    "round": (_cmd_round, "round the LP optimum to a k-cut", _add_k),
    "approx": (_cmd_approx, "smallest-shores 2-approximation", _add_k),
    "mincut": (_cmd_mincut, "global minimum cut via 2-respecting trees", None),
    "oracle": (_cmd_oracle, "brute-force ground truth (small graphs)", _add_oracle),
    "verify": (
        _cmd_verify,
        "run the full cross-check battery",
        lambda p: p.add_argument("--kmax", type=int, help="largest k to verify (default n)"),
    ),
}


def build_parser(command=None) -> _Parser:
    """The ``kcut`` parser with every subcommand, or with ``command``'s
    alone.  argparse hands every word after the command to its subparser,
    and ``--output`` is in both, so either parses ``kcut COMMAND ...`` to
    the same namespace or the same error."""
    parser = _Parser(prog="kcut", description="graph cut toolkit with exact certificates")
    parser.add_argument("--output", choices=["json", "tsv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            if add_arguments:
                add_arguments(p)
            p.add_argument("input", nargs="?", help="graph file (default stdin)")
            p.set_defaults(fn=fn)
    return parser


_PARSERS: dict = {}  # argv[0] if it names a command, else None -> its parser, built on first use
RATIONAL_FLAGS = ("--eps", "--alpha")


def _join_negative_values(argv):
    """``argv`` with each rational flag joined to a negative value given as
    its own word (``--eps -1/5`` becomes ``--eps=-1/5``).  argparse takes a
    word such as ``-1/5`` for an option, so the value would never reach the
    flag's range check."""
    out = []
    for word in argv:
        if out and out[-1] in RATIONAL_FLAGS and word[:1] == "-" and (word[1:2].isdigit() or word[1:2] == "."):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None  # no words, a flag or a typo: the full parser
    if command not in _PARSERS:
        _PARSERS[command] = build_parser(command)
    try:
        args = _PARSERS[command].parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        out = args.fn(_read_graph(args), args)
    except CertificateFailure as exc:
        sys.stdout.write(_emit(exc.payload, args.output) + "\n")
        print("error: certificate failure", file=sys.stderr)
        return 2
    except (ParseError, CliError, OracleLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PackingError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_emit(out, args.output) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
