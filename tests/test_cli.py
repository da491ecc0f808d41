import json
import random
import sys

import pytest

from kcut import cli
from kcut.cli import main

from conftest import C5_TEXT, K4_TEXT, TT_TEXT
from test_psp_pin import GRAPHS


@pytest.fixture()
def tt_file(tmp_path):
    path = tmp_path / "tt.graph"
    path.write_text(TT_TEXT)
    return str(path)


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(C5_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_strength_json(capsys, tt_file):
    code, out = run(capsys, "strength", tt_file)
    assert code == 0
    assert json.loads(out) == {
        "strength": "1/1",
        "partition": [[1, 2, 3], [4, 5, 6]],
    }


def test_psp_json(capsys, tt_file):
    code, out = run(capsys, "psp", tt_file)
    data = json.loads(out)
    assert code == 0
    assert [lvl["lambda"] for lvl in data["levels"]] == ["1/1", "3/2"]
    assert [lvl["kappa"] for lvl in data["levels"]] == [2, 6]


def test_lp_json(capsys, tt_file):
    code, out = run(capsys, "lp", "--k", "3", tt_file)
    data = json.loads(out)
    assert code == 0
    assert data["primal"]["value"] == "5/2"
    assert data["dual"]["value"] == "5/2"
    assert data["lagrangean"] == {"b": "3/2", "value": "5/2"}
    assert data["certificates"]["cs"] == [True, True, True]


def test_solve_all_minimizers(capsys, c5_file):
    code, out = run(capsys, "solve", "--k", "2", "--all", c5_file)
    data = json.loads(out)
    assert code == 0
    assert data["cut"]["value"] == "2/1"
    assert len(data["minimizers"]) == 10


def test_enumerate(capsys, c5_file):
    code, out = run(capsys, "enumerate", "--k", "2", "--alpha", "1", c5_file)
    data = json.loads(out)
    assert code == 0 and data["count"] == 10


def test_round_and_approx(capsys, tt_file):
    code, out = run(capsys, "round", "--k", "3", tt_file)
    data = json.loads(out)
    assert code == 0 and data["cut"]["value"] == "3/1" and data["certified"]
    code, out = run(capsys, "approx", "--k", "3", tt_file)
    assert code == 0 and json.loads(out)["cut"]["value"] == "3/1"


def test_round_on_strength_zero(capsys, tmp_path):
    path = tmp_path / "zero.graph"
    path.write_text(GRAPHS["strength-zero"])
    code, out = run(capsys, "round", "--k", "2", str(path))
    data = json.loads(out)
    assert code == 0 and data["certified"]
    assert data["cut"] == {"value": "0/1", "parts": 2, "partition": [[1, 2, 3], [4]]}


def test_lp_strength_zero_answers_every_k(capsys, tmp_path):
    # the dual is read off the sequence's positive part, the tail after
    # lambda = 0: on the path it has two parts, so k = 2 is free; on the
    # split graph it is the singletons, so every k is
    cases = (
        ("p kcut 4 3\ne 1 2 1\ne 2 3 0\ne 3 4 1\n", {2: "0/1", 3: "1/1", 4: "2/1"}),
        ("p kcut 3 1\ne 2 3 0\n", {2: "0/1", 3: "0/1"}),
    )
    for text, values in cases:
        path = tmp_path / "zero.graph"
        path.write_text(text)
        for k, value in values.items():
            code, out = run(capsys, "lp", "--k", str(k), str(path))
            data = json.loads(out)
            assert code == 0, (text, k)
            assert data["primal"]["value"] == data["dual"]["value"] == data["lagrangean"]["value"] == value
            assert data["certificates"] == {
                "primal_feasible": True, "dual_feasible": True, "cs": [True, True, True],
            }


def test_mincut(capsys, tt_file):
    code, out = run(capsys, "mincut", tt_file)
    data = json.loads(out)
    assert code == 0
    assert data["mincut"]["value"] == "1/1"
    assert data["crossing_edges"] == [6]
    assert 6 in data["witness_tree_edges"]  # the witness tree crosses via the bridge


def test_pack_deterministic_bytes(capsys, c5_file):
    code1, out1 = run(capsys, "pack", "--eps", "1/10", c5_file)
    code2, out2 = run(capsys, "pack", "--eps", "1/10", c5_file)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert "approx_value" in data


def test_pack_exact(capsys, c5_file):
    code, out = run(capsys, "pack", "--exact", c5_file)
    assert code == 0
    assert json.loads(out)["total_value"] == "5/4"


def test_pack_eps_too_small_exit_1(capsys, tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(K4_TEXT)
    code = main(["pack", "--eps", "0.001", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _assert_eps_too_small(capsys, tmp_path, argv, text):
    path = tmp_path / "g.graph"
    path.write_text(text)
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: epsilon ") and captured.err.count("\n") == 1
    assert "too small for" in captured.err and "Traceback" not in captured.err


def _assert_approx_solve_matches_exact(capsys, tmp_path, argv, text):
    """``solve --eps`` packs greedy trees with integer loads, so no float
    limit applies: it exits 0 with exact mode's cut and minimizers."""
    path = tmp_path / "g.graph"
    path.write_text(text)
    code, out = run(capsys, *argv, "--all", str(path))
    assert code == 0
    approx = json.loads(out)
    k = argv[argv.index("--k") + 1]
    code, out = run(capsys, "solve", "--k", k, "--all", str(path))
    assert code == 0
    exact = json.loads(out)
    assert approx["mode"] == "approx"
    assert (approx["cut"], approx["minimizers"]) == (exact["cut"], exact["minimizers"])


@pytest.mark.parametrize("eps", ["1e-400", "1e-310"], ids=["zero", "subnormal"])
@pytest.mark.parametrize("argv", [["pack"], ["solve", "--k", "2"]], ids=["pack", "solve"])
def test_eps_below_float_range_exit_1(capsys, tmp_path, argv, eps):
    # as floats, 1e-400 is 0.0 and 1e-310 subnormal: 1/eps is 1/0 or inf
    if argv[0] == "solve":  # no float limit left in solve
        _assert_approx_solve_matches_exact(capsys, tmp_path, argv + ["--eps", eps], K4_TEXT)
        return
    _assert_eps_too_small(capsys, tmp_path, argv + ["--eps", eps], K4_TEXT)


@pytest.mark.parametrize("argv", [["pack"]], ids=["pack"])
def test_eps_below_float_precision_on_one_edge_exit_1(capsys, tmp_path, argv):
    # one edge stops at weight 1, which the step 1 + 1e-20 == 1.0 never passes
    _assert_eps_too_small(capsys, tmp_path, argv + ["--eps", "1e-20"], "p kcut 2 1\ne 1 2 1\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["strength"], "p kcut 2 1\ne 1 2 1e10000000\n"),
        (["strength"], "p kcut 2 1\ne 1 2 1e-10000000\n"),
        (["pack", "--eps", "1e-10000000"], "p kcut 2 1\ne 1 2 1\n"),
        (["enumerate", "--k", "2", "--alpha", "1e10000000"], "p kcut 2 1\ne 1 2 1\n"),
    ],
    ids=["capacity", "capacity-negative-exponent", "eps", "alpha"],
)
def test_huge_exponent_rejected_before_expansion_exit_1(capsys, tmp_path, argv, text):
    # Fraction would build 10**10000000 in full, which takes seconds
    path = tmp_path / "g.graph"
    path.write_text(text)
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exponent beyond 1000" in captured.err


def test_exponent_at_the_limit_parses_exactly(capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("p kcut 2 1\ne 1 2 1e1000\n")
    code, out = run(capsys, "strength", str(path))
    assert code == 0
    assert json.loads(out)["strength"] == f"{10**1000}/1"


def test_capacity_beyond_the_digit_bound_exit_1(capsys, tmp_path, monkeypatch):
    # 1<4000 zeros>e1000 is 10**5000: refused at parse time, not when printed
    import kcut.cli as cli_mod

    def never(g):
        raise AssertionError("strength ran on a refused graph")

    monkeypatch.setattr(cli_mod, "strength", never)
    path = tmp_path / "g.graph"
    path.write_text("p kcut 2 1\ne 1 2 1" + "0" * 4000 + "e1000\n")
    code = main(["strength", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: line 2: numerator or denominator beyond 2000 digits\n"


def _long_denominators(count):
    """``count`` consecutive odd numbers of 1999 digits: pairwise coprime,
    so two have an lcm of 3997 digits and three one past 4000."""
    return [10**1998 + 2 * i + 1 for i in range(count)]


def test_graph_beyond_the_digit_bound_exit_1(capsys, tmp_path, monkeypatch):
    # each capacity is within 2000 digits, but their strength would need
    # about 8000, past what Python prints: refused while parsing
    import kcut.cli as cli_mod

    def never(g):
        raise AssertionError("strength ran on a refused graph")

    monkeypatch.setattr(cli_mod, "strength", never)
    path = tmp_path / "g.graph"
    path.write_text("p kcut 2 4\n" + "".join(f"e 1 2 1/{d}\n" for d in _long_denominators(4)))
    code = main(["strength", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: line 4: capacities' common denominator or scaled sum beyond 4000 digits\n"
    )


def test_long_integer_capacities_stay_within_the_graph_bound(capsys, tmp_path):
    caps = [10**1998 + i for i in range(10)]
    path = tmp_path / "g.graph"
    path.write_text("p kcut 3 10\n" + "".join(f"e {1 + i % 2} {2 + i % 2} {c}\n" for i, c in enumerate(caps)))
    code, out = run(capsys, "psp", str(path))
    assert code == 0
    level = json.loads(out)["levels"][0]
    assert level["lambda"] == f"{min(sum(caps[0::2]), sum(caps[1::2]))}/1"


@pytest.mark.parametrize("cap", ["1e-400", "1e400"], ids=["underflow", "overflow"])
@pytest.mark.parametrize(
    "argv",
    [["pack"], ["mincut"], ["solve", "--k", "2", "--eps", "1/6"]],
    ids=["pack", "mincut", "solve-eps"],
)
def test_mwu_capacity_outside_float_range_exit_1(capsys, tmp_path, argv, cap):
    text = f"p kcut 3 3\ne 1 2 {cap}\ne 2 3 1\ne 1 3 1\n"
    if argv[0] == "solve":  # no float limit left in solve
        _assert_approx_solve_matches_exact(capsys, tmp_path, argv, text)
        return
    path = tmp_path / "tri.graph"
    path.write_text(text)
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--eps", "1/0"],
        ["solve", "--k", "2", "--eps", "1/0"],
        ["mincut", "--eps", "1/0"],
        ["enumerate", "--k", "2", "--alpha", "1/0"],
        ["solve", "--k", "2", "--eps", "0"],
    ],
    ids=["pack-eps", "solve-eps", "mincut-eps", "enumerate-alpha", "solve-eps-0"],
)
def test_bad_rational_flag_exit_1(capsys, c5_file, argv):
    code = main(argv + [c5_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, k, eps",
    [
        (C5_TEXT, "2", "0"),
        ("p kcut 3 1\ne 2 3 0\n", "2", "0"),
        ("p kcut 3 2\ne 1 2 1\ne 2 3 1\n", "3", "1"),
        ("p kcut 3 2\ne 1 2 1\ne 2 3 1\n", "3", "-1"),
    ],
    ids=["c5-0", "no-positive-capacity-0", "k=n-1", "k=n-minus-1"],
)
def test_solve_eps_outside_its_bound_exit_1(capsys, tmp_path, text, k, eps):
    path = tmp_path / "g.graph"
    path.write_text(text)
    code = main(["solve", "--k", k, "--eps", eps, str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: eps must satisfy 0 < eps < 1/(2k-1) = 1/{2 * int(k) - 1}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["solve", "--k", "2", "--eps", "-1/5"], "error: eps must satisfy 0 < eps < 1/(2k-1) = 1/3\n"),
        (["solve", "--k", "2", "--eps", "-.2"], "error: eps must satisfy 0 < eps < 1/(2k-1) = 1/3\n"),
        (["enumerate", "--k", "2", "--alpha", "-1/2"], "error: alpha must be at least 1\n"),
    ],
    ids=["solve-eps", "solve-eps-decimal", "enumerate-alpha"],
)
def test_negative_rational_flag_given_as_its_own_word(capsys, c5_file, argv, err):
    """A negative value as the word after its flag reaches the flag's range
    check, as it does written with '='."""
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    for words in (argv, joined):
        code = main(words + [c5_file])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", err)


def test_oracle_kcut_past_the_tie_budget_exit_1(capsys, tmp_path):
    """Every partition of an all-zero K11 ties: past the table's budget of
    tied minimizers the oracle exits 1 with one line, and verify skips its
    partition rows with the same reason."""
    n = 11
    path = tmp_path / "k11-zero.graph"
    path.write_text(f"p kcut {n} {n * (n - 1) // 2}\n" + "".join(
        f"e {u} {v} 0\n" for u in range(1, n + 1) for v in range(u + 1, n + 1)
    ))
    code = main(["oracle", "kcut", str(path), "--k", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: more than 131072 tied minimum partitions\n"
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    rows = {row["check"]: row for row in json.loads(out)["rows"]}
    assert rows["oracle-strength"]["status"] == "skip"
    assert rows["oracle-strength"]["detail"] == "more than 131072 tied minimum partitions"


def test_disconnected_k_up_to_components(capsys, tmp_path):
    # vertex 1 is isolated, so every k <= 2 has a cut of value 0
    path = tmp_path / "split.graph"
    path.write_text("p kcut 3 1\ne 2 3 3/2\n")
    zero = {"value": "0/1", "parts": 2, "partition": [[1], [2, 3]]}
    code, out = run(capsys, "solve", "--k", "2", "--all", str(path))
    assert code == 0
    assert json.loads(out) == {
        "k": 2, "mode": "exact", "h": 0, "cut": zero,
        "candidates_examined": 1, "distinct_cuts": 1, "minimizers": [zero],
    }
    code, out = run(capsys, "enumerate", "--k", "2", str(path))
    assert code == 0
    assert json.loads(out) == {
        "k": 2, "alpha": "1/1", "h": 0, "min_value": "0/1",
        "threshold": "0/1", "count": 1, "cuts": [zero],
    }
    # the approximate scan counts every merge of its one greedy tree, but
    # removing the tree's edge costs 3/2, above the first cut's 0, so that
    # cut is the only one kept
    code, out = run(capsys, "solve", "--k", "2", "--eps", "1/6", "--all", str(path))
    assert code == 0
    assert json.loads(out) == {
        "k": 2, "mode": "approx", "h": 2, "cut": zero,
        "candidates_examined": 5, "distinct_cuts": 1, "minimizers": [zero],
    }


def _cut(value, partition):
    return {"value": value, "parts": len(partition), "partition": partition}


def test_strength_zero_component_kcuts(capsys, tmp_path):
    # vertices 2 and 3 are joined by capacity 0 only: every grouping is free
    split = tmp_path / "split.graph"
    split.write_text("p kcut 3 1\ne 2 3 0\n")
    free = [
        _cut("0/1", [[1], [2], [3]]),
        _cut("0/1", [[1], [2, 3]]),
        _cut("0/1", [[1, 2], [3]]),
        _cut("0/1", [[1, 3], [2]]),
    ]
    for mode, extra in (("exact", []), ("approx", ["--eps", "1/6"])):
        code, out = run(capsys, "solve", "--k", "2", "--all", *extra, str(split))
        assert code == 0
        assert json.loads(out) == {
            "k": 2, "mode": mode, "h": 0, "cut": free[0],
            "candidates_examined": 4, "distinct_cuts": 4, "minimizers": free,
        }
    code, out = run(capsys, "enumerate", "--k", "2", str(split))
    assert code == 0
    assert json.loads(out) == {
        "k": 2, "alpha": "1/1", "h": 0, "min_value": "0/1",
        "threshold": "0/1", "count": 4, "cuts": free,
    }
    # a unit triangle joined to vertex 4 by a capacity-0 edge
    hang = tmp_path / "hang.graph"
    hang.write_text("p kcut 4 4\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 0\n")
    code, out = run(capsys, "oracle", "kcut", str(hang), "--k", "3")
    assert code == 0
    expected = [[[1], [2, 3], [4]], [[1, 2], [3], [4]], [[1, 3], [2], [4]]]
    assert json.loads(out) == {"k": 3, "value": "2/1", "minimizers": expected}
    for extra in ([], ["--eps", "1/6"]):
        code, out = run(capsys, "solve", "--k", "3", "--all", *extra, str(hang))
        assert code == 0
        got = json.loads(out)
        assert got["cut"] == _cut("2/1", expected[0])
        assert got["minimizers"] == [_cut("2/1", p) for p in expected]


@pytest.mark.parametrize("argv", [["treepack"], ["lp", "--k", "2"]], ids=["treepack", "lp"])
def test_oracle_forests_on_a_long_path(capsys, tmp_path, argv):
    # 1099 edges: deeper than the default recursion limit
    n = 1100
    lines = [f"p kcut {n} {n - 1}"] + [f"e {i} {i + 1} 1" for i in range(1, n)]
    path = tmp_path / "path.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "oracle", argv[0], str(path), *argv[1:])
    assert code == 0
    assert "1/1" in json.loads(out).values()


def test_solve_exact_and_eps_are_exclusive(capsys, c5_file):
    # exact is solve's only mode without --eps, so it has no flag of its own
    for argv in (["--exact", "--eps", "1/6"], ["--exact"]):
        code = main(["solve", "--k", "2", *argv, c5_file])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --exact\n"


def test_pack_exact_and_eps_are_exclusive(capsys, c5_file):
    code = main(["pack", "--exact", "--eps", "1/0", c5_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_oracle_subcommands(capsys, tt_file):
    code, out = run(capsys, "oracle", "strength", tt_file)
    assert code == 0 and json.loads(out)["strength"] == "1/1"
    code, out = run(capsys, "oracle", "kcut", tt_file, "--k", "2")
    assert code == 0 and json.loads(out)["value"] == "1/1"
    code, out = run(capsys, "oracle", "treepack", tt_file)
    assert code == 0 and json.loads(out)["treepack"] == "1/1"
    code, out = run(capsys, "oracle", "lp", tt_file, "--k", "3")
    assert code == 0 and json.loads(out)["lp_value"] == "5/2"


@pytest.mark.parametrize("which", ["strength", "treepack"])
def test_oracle_without_k_refuses_k(capsys, tt_file, which):
    code = main(["oracle", which, tt_file, "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: oracle {which} takes no --k\n"


def test_oracle_limit_exit_code(capsys, tmp_path):
    lines = ["p kcut 13 12"] + [f"e {i} {i+1} 1" for i in range(1, 13)]
    path = tmp_path / "big.graph"
    path.write_text("\n".join(lines) + "\n")
    code, _ = run(capsys, "oracle", "strength", str(path))
    assert code == 1


@pytest.mark.parametrize(
    "flag, field", [("--max-trees", "max_spanning_trees"), ("--max-partitions", "max_n_partitions")]
)
def test_oracle_rejects_negative_limits(capsys, tt_file, flag, field):
    code = main(["oracle", "treepack", tt_file, flag, "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {field} must be >= 0, got -1\n"


def test_verify_ok(capsys, tt_file):
    code, out = run(capsys, "verify", "--kmax", "3", tt_file)
    data = json.loads(out)
    assert code == 0
    assert data["ok"] and data["failed"] == 0


def test_verify_exit_2_on_certificate_failure(capsys, tt_file, monkeypatch):
    import kcut.verify as verify_mod

    # report a wrong global mincut so its certificate row fails
    real = verify_mod.global_mincut

    def lying(g):
        cut = real(g)
        return cut._replace(crossing_value=cut.crossing_value + 1)

    monkeypatch.setattr(verify_mod, "global_mincut", lying)
    code, out = run(capsys, "verify", "--kmax", "2", tt_file)
    assert code == 2
    data = json.loads(out)
    assert not data["ok"] and data["failed"] >= 1
    failed = [row for row in data["rows"] if row["status"] == "fail"]
    assert [row["check"] for row in failed] == ["global-mincut"]
    assert failed[0]["certificate"]


def test_verify_exit_2_on_ideal_packing_failure(capsys, tt_file, monkeypatch):
    import kcut.verify as verify_mod

    # raise the second critical value so its quotients no longer saturate
    real = verify_mod.principal_sequence

    def lying(g):
        psp = real(g)
        levels = list(psp.levels)
        levels[1] = levels[1]._replace(lam=levels[1].lam + 1)
        return psp._replace(levels=tuple(levels))

    monkeypatch.setattr(verify_mod, "principal_sequence", lying)
    code, out = run(capsys, "verify", "--kmax", "2", tt_file)
    assert code == 2
    failed = [r["check"] for r in json.loads(out)["rows"] if r["status"] == "fail"]
    assert failed == ["psp-ideal-packing"]


@pytest.mark.parametrize(
    "text", ["p kcut 3 1\ne 2 3 3/2\n", "p kcut 1 0\n"], ids=["disconnected", "one-vertex"]
)
def test_verify_unsupported_input_exit_1(capsys, tmp_path, text):
    path = tmp_path / "g.graph"
    path.write_text(text)
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: verify expects a connected graph with n >= 2\n"


def test_verify_kmax_0_runs_no_k(capsys, tt_file):
    code, out = run(capsys, "verify", "--kmax", "0", tt_file)
    assert code == 0
    assert not any("[k=" in r["check"] for r in json.loads(out)["rows"])
    assert run(capsys, "verify", "--kmax", "1", tt_file) == (code, out)


@pytest.mark.parametrize("kmax", [None, "1"])
def test_verify_strength_zero_keeps_oracle_rows(capsys, tmp_path, kmax):
    # connected, but the zero-capacity edge 3-4 is a cut of capacity 0
    path = tmp_path / "zero.graph"
    path.write_text("p kcut 4 4\ne 1 2 1\ne 2 3 1\ne 1 3 1\ne 3 4 0\n")
    argv = ["verify", str(path)] + (["--kmax", kmax] if kmax else [])
    code, out = run(capsys, *argv)
    data = json.loads(out)
    assert code == 0 and data["ok"] and data["failed"] == 0
    status = {r["check"]: (r["status"], r["detail"]) for r in data["rows"]}
    assert status.pop("oracle-treepack") == ("pass", "oracle 0/1")
    assert status.pop("oracle-strength") == ("pass", "oracle 0/1")
    skipped = ["treepack-minmax", "psp-ideal-packing"]
    skipped += ["k=2", "k=3", "k=4"] if kmax is None else []
    skipped += ["global-mincut", "mincut-2respect-fraction"]
    assert list(status) == skipped
    assert len({detail for s, detail in status.values() if s == "skip"}) == 1
    assert all(s == "skip" for s, _ in status.values())


def test_verify_skips_oracle_rows_beyond_limits(capsys, tmp_path):
    lines = ["p kcut 13 13"] + [f"e {i} {i+1} {1 + i % 3}" for i in range(1, 13)]
    lines.append("e 1 13 2")
    path = tmp_path / "big.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "--kmax", "2", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["skipped"] >= 1 and data["failed"] == 0
    assert any(r["status"] == "skip" for r in data["rows"])


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(K4_TEXT))
    code, out = run(capsys, "strength")
    assert code == 0 and json.loads(out)["strength"] == "2/1"


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p kcut 2 1\ne 1 5 1\n")
    code, _ = run(capsys, "strength", str(bad))
    assert code == 1


def test_missing_file_exit_1(capsys):
    code, _ = run(capsys, "strength", "/nonexistent/path.graph")
    assert code == 1


def test_unknown_flag_exit_1(capsys, tt_file):
    code, _ = run(capsys, "strength", "--bogus", tt_file)
    assert code == 1


def test_bad_k_exit_1(capsys, tt_file):
    code, _ = run(capsys, "lp", "--k", "99", tt_file)
    assert code == 1


def test_tsv_output(capsys, tt_file):
    code, out = run(capsys, "--output", "tsv", "strength", tt_file)
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["strength"] == "1/1"


def test_parser_built_once_gives_fresh_parser_bytes(capsys, monkeypatch, tt_file):
    """``main`` keeps each command's parser across calls; a failed parse,
    a TSV run and the default flags after it must print what a new parser
    prints."""
    from kcut import cli

    calls = [
        ("mincut", "--bogus", tt_file),
        ("--output", "tsv", "mincut", tt_file),
        ("mincut", tt_file),
        ("solve", "--k", "3", "--all", tt_file),
    ]

    def outcome(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSERS", {})
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0]
    monkeypatch.setattr(cli, "_PARSERS", {})
    shared = [outcome(calls[0])]
    parser = cli._PARSERS["mincut"]
    shared += [outcome(argv) for argv in calls[1:]]
    assert cli._PARSERS["mincut"] is parser
    assert shared == fresh


_PARITY_ARGV = [
    ["lp"],  # no --k
    ["solve", "--k", "two"],
    ["pack", "--eps", "1/10", "--exact"],
    ["psp", "a.txt", "b.txt"],
    ["mincut", "--output", "tsv"],
    ["enumerate", "--k", "2", "--alpha", "-1", "G"],  # refused after the parse
    ["enumerate", "--k", "2", "--alpha"],
    ["oracle"],
    ["oracle", "bogus"],
    ["oracle", "kcut", "--max-trees", "many"],
    ["verify", "--kmax"],
    ["round", "--k", "2", "--eps", "1/10"],
    ["strength", "-x"],
]


@pytest.mark.parametrize(
    "argv", [[name, "--help"] for name in cli._COMMANDS] + _PARITY_ARGV, ids=lambda argv: " ".join(argv)
)
def test_one_command_parser_answers_as_the_full_parser(argv, capsys, monkeypatch, tt_file):
    """Help and parse errors through the parser of ``argv[0]`` alone give
    the exit code, stdout and stderr that the full parser gives (G is a
    graph file)."""

    def outcome(parser):
        monkeypatch.setattr(cli, "_PARSERS", {argv[0]: parser})
        try:
            code = main([tt_file if word == "G" else word for word in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = outcome(cli.build_parser(argv[0]))
    assert alone == outcome(cli.build_parser())
    assert alone[0] == (0 if "--help" in argv else 1)


def test_strength_exit_2_on_label_sum_failure(capsys, tt_file, monkeypatch):
    # a sweep that merges nothing yields all singletons at every b, whose
    # value the greedy labels contradict
    from kcut.flow import FlowNetwork

    real = FlowNetwork.max_flow
    monkeypatch.setattr(FlowNetwork, "max_flow", lambda self, excess: real(self, excess) and frozenset())
    code = main(["strength", tt_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert lines[0].startswith("internal invariant violation: ")
    assert lines[0].endswith("label sum")


def test_lp_values_past_the_print_limit_end_in_one_line(capsys, tmp_path, monkeypatch):
    # 800-digit numerators and denominators pass the parse bounds, but z
    # gets numerators of 4,797 digits, past the limit of int-to-string
    rng = random.Random(1)
    lines = ["p kcut 3 5"]
    for u, v in [(1, 2), (2, 3), (1, 3), (1, 2), (2, 3)]:
        a = rng.randrange(10**799, 10**800)
        b = rng.randrange(10**799, 10**800)
        lines.append(f"e {u} {v} {a}/{b}")
    path = tmp_path / "long.graph"
    path.write_text("\n".join(lines) + "\n")
    import kcut.lp as lp_mod
    import kcut.packing as packing_mod

    generated = []
    real = packing_mod._column_generation
    for module in (lp_mod, packing_mod):  # lp binds the name at import
        monkeypatch.setattr(module, "_column_generation", lambda *a: generated.append(a) or real(*a))
    code = main(["lp", "--k", "3", str(path)])
    assert generated == []  # z is refused before the explicit dual's column generation
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        f"error: a result's numerator or denominator passes the {limit}-digit print limit\n"
    )
