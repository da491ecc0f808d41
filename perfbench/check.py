"""Exact answer checks for one job.

``check_answer`` compares a job's JSON output with the reference recorded
on the base graph.  Fields that are unique for the graph (values, the PSP,
strength partitions, minimizer sets, closed-form LP vectors) are mapped
through the copy's relabelling and must be equal.  On the base graph itself
(copy 0, on every seed) every answer field must equal the reference,
including packing trees and weights and the chosen mincut.  On a relabelled copy the fields that may
legitimately differ between optimal answers (packing trees, a tie-broken
cut) are validated exactly instead.  Work counters are never compared.
"""

from __future__ import annotations

from fractions import Fraction

from graphs import Instance


class WrongAnswer(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _canon(parts) -> list[list[int]]:
    return sorted(sorted(p) for p in parts)


def _map_parts(inst: Instance, parts) -> list[list[int]]:
    return _canon([[inst.perm[v - 1] + 1 for v in p] for p in parts])


def _map_edge_vector(inst: Instance, vec) -> list[Fraction]:
    return [Fraction(vec[j]) for j in inst.order]


def _frac_list(vec) -> list[Fraction]:
    return [Fraction(v) for v in vec]


def _is_spanning_tree(inst: Instance, edge_ids) -> bool:
    edges = inst.edges
    parent = list(range(inst.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if len(edge_ids) != inst.n - 1:
        return False
    for eid in edge_ids:
        if not 0 <= eid < len(edges):
            return False
        ru, rv = find(edges[eid][0]), find(edges[eid][1])
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def _check_packing(inst: Instance, trees, caps, total) -> list[Fraction]:
    """Every tree spans the graph, weights are positive, loads respect
    ``caps`` and the weights add up to ``total``; returns the loads."""
    load = [Fraction(0)] * len(caps)
    weight_sum = Fraction(0)
    for tree in trees:
        _require(_is_spanning_tree(inst, tree["edges"]), "packing tree is not a spanning tree")
        w = Fraction(tree["weight"])
        _require(w > 0, "packing weight is not positive")
        weight_sum += w
        for eid in tree["edges"]:
            load[eid] += w
    _require(all(load[i] <= caps[i] for i in range(len(caps))), "packing overloads an edge")
    _require(weight_sum == total, "packing weights do not add up to its value")
    return load


def _cut_value(inst: Instance, parts) -> tuple[Fraction, list[int]]:
    block = {}
    for i, p in enumerate(parts):
        for v in p:
            block[v - 1] = i
    _require(sorted(block) == list(range(inst.n)), "partition does not cover the vertices")
    crossing = [j for j, (u, v, _) in enumerate(inst.edges) if block[u] != block[v]]
    value = sum((inst.edges[j][2] for j in crossing), Fraction(0))
    return value, crossing


def _check_strength(inst, out, ref):
    _require(Fraction(out["strength"]) == Fraction(ref["strength"]), "strength value")
    _require(_canon(out["partition"]) == _map_parts(inst, ref["partition"]), "strength partition")


def _check_psp(inst, out, ref):
    _require(_canon(out["components"]) == _map_parts(inst, ref["components"]), "psp components")
    _require(len(out["levels"]) == len(ref["levels"]), "psp level count")
    for got, want in zip(out["levels"], ref["levels"]):
        _require(Fraction(got["lambda"]) == Fraction(want["lambda"]), "psp lambda")
        _require(got["kappa"] == want["kappa"], "psp kappa")
        _require(_canon(got["partition"]) == _map_parts(inst, want["partition"]), "psp partition")


def _check_pack(inst, out, ref):
    total = Fraction(out["total_value"])
    _require(total == Fraction(ref["total_value"]), "packing value")
    caps = [c for _, _, c in inst.edges]
    load = _check_packing(inst, out["trees"], caps, total)
    _require(
        {int(k): Fraction(v) for k, v in out["loads"].items()}
        == {j: load[j] for j in range(len(caps)) if caps[j] > 0},
        "packing loads",
    )
    if inst.identity:
        _require(out["trees"] == ref["trees"], "packing trees differ from the reference")


def _check_lp(inst, out, ref):
    for key in ("primal", "dual", "lagrangean"):
        for field in ("value", "b"):
            if field in ref[key]:
                _require(
                    Fraction(out[key][field]) == Fraction(ref[key][field]), f"lp {key} {field}"
                )
    _require(_frac_list(out["primal"]["x"]) == _map_edge_vector(inst, ref["primal"]["x"]), "lp x")
    z = _frac_list(out["dual"]["z"])
    _require(z == _map_edge_vector(inst, ref["dual"]["z"]), "lp z")
    certs = out["certificates"]
    _require(certs["primal_feasible"] and certs["dual_feasible"] and all(certs["cs"]), "lp certificate")
    caps = [c + z[j] for j, (_, _, c) in enumerate(inst.edges)]
    ref_total = sum((Fraction(t["weight"]) for t in ref["dual"]["trees"]), Fraction(0))
    _check_packing(inst, out["dual"]["trees"], caps, ref_total)
    if inst.identity:
        _require(out["dual"]["trees"] == ref["dual"]["trees"], "lp dual trees differ from the reference")


def _cut_key(inst, cut, mapped):
    parts = _map_parts(inst, cut["partition"]) if mapped else _canon(cut["partition"])
    return (Fraction(cut["value"]), cut["parts"], parts)


def _check_cut(inst, cut):
    value, _ = _cut_value(inst, cut["partition"])
    _require(value == Fraction(cut["value"]), "cut value does not match its partition")
    _require(cut["parts"] == len(cut["partition"]), "cut part count")


def _check_solve(inst, out, ref):
    for key in ("k", "mode", "h"):
        _require(out[key] == ref[key], f"solve {key}")
    _check_cut(inst, out["cut"])
    got = sorted(_cut_key(inst, c, False) for c in out["minimizers"])
    want = sorted(_cut_key(inst, c, True) for c in ref["minimizers"])
    _require(got == want, "minimizer set")
    _require(out["cut"] == out["minimizers"][0], "reported cut is not the first minimizer")
    if inst.identity:
        _require(out["minimizers"] == ref["minimizers"], "minimizers differ from the reference")


def _check_enumerate(inst, out, ref):
    for key in ("k", "h", "count"):
        _require(out[key] == ref[key], f"enumerate {key}")
    for key in ("alpha", "min_value", "threshold"):
        _require(Fraction(out[key]) == Fraction(ref[key]), f"enumerate {key}")
    for cut in out["cuts"]:
        _check_cut(inst, cut)
    got = sorted(_cut_key(inst, c, False) for c in out["cuts"])
    want = sorted(_cut_key(inst, c, True) for c in ref["cuts"])
    _require(got == want, "enumerated cut set")
    if inst.identity:
        _require(out["cuts"] == ref["cuts"], "enumerated cuts differ from the reference")


def _check_mincut(inst, out, ref):
    cut = out["mincut"]
    _require(Fraction(cut["value"]) == Fraction(ref["mincut"]["value"]), "mincut value")
    _require(cut["parts"] == 2 and len(cut["partition"]) == 2, "mincut is not a 2-cut")
    value, crossing = _cut_value(inst, cut["partition"])
    _require(value == Fraction(cut["value"]), "mincut value does not match its partition")
    _require(out["crossing_edges"] == crossing, "mincut crossing edges")
    tree = out["witness_tree_edges"]
    _require(_is_spanning_tree(inst, tree), "witness tree is not a spanning tree")
    _require(len(set(tree) & set(crossing)) <= 2, "witness tree crosses the cut more than twice")
    if inst.identity:
        _require(out == ref, "mincut answer differs from the reference")


def _check_verify(inst, out, ref):
    _require(out["ok"] is True and out["failed"] == 0, "verify reported a failed row")


CHECKS = {
    "strength": _check_strength,
    "psp": _check_psp,
    "pack_exact": _check_pack,
    "lp": _check_lp,
    "solve_exact": _check_solve,
    "solve_approx": _check_solve,
    "enumerate": _check_enumerate,
    "mincut": _check_mincut,
    "verify": _check_verify,
}


def check_answer(command: str, inst: Instance, out: dict, ref: dict) -> None:
    """Raise WrongAnswer unless ``out`` is a correct answer for ``inst``."""
    try:
        CHECKS[command](inst, out, ref)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise WrongAnswer(f"malformed output: {exc!r}") from None
