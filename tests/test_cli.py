import json

import pytest

from kcut.cli import main

from conftest import C5_TEXT, K4_TEXT, TT_TEXT


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
    code, out = run(capsys, "solve", "--k", "2", "--exact", "--all", c5_file)
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


@pytest.mark.parametrize("cap", ["1e-400", "1e400"], ids=["underflow", "overflow"])
@pytest.mark.parametrize(
    "argv",
    [["pack"], ["mincut"], ["solve", "--k", "2", "--eps", "1/6"]],
    ids=["pack", "mincut", "solve-eps"],
)
def test_mwu_capacity_outside_float_range_exit_1(capsys, tmp_path, argv, cap):
    path = tmp_path / "tri.graph"
    path.write_text(f"p kcut 3 3\ne 1 2 {cap}\ne 2 3 1\ne 1 3 1\n")
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
    # the approximate path already handled this input; its output is kept
    code, out = run(capsys, "solve", "--k", "2", "--eps", "1/6", "--all", str(path))
    assert code == 0
    assert json.loads(out) == {
        "k": 2, "mode": "approx", "h": 2, "cut": zero,
        "candidates_examined": 5, "distinct_cuts": 4, "minimizers": [zero],
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
    code = main(["solve", "--k", "2", "--exact", "--eps", "1/6", c5_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # --exact names the default mode
    assert run(capsys, "solve", "--k", "2", "--exact", c5_file) == run(
        capsys, "solve", "--k", "2", c5_file
    )


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

    # report a wrong strength so the minmax certificate row fails
    real = verify_mod.strength

    def lying(g):
        sigma, part = real(g)
        return sigma + 1, part

    monkeypatch.setattr(verify_mod, "strength", lying)
    code, out = run(capsys, "verify", "--kmax", "2", tt_file)
    assert code == 2
    data = json.loads(out)
    assert not data["ok"] and data["failed"] >= 1


def test_verify_exit_2_on_ideal_packing_failure(capsys, tt_file, monkeypatch):
    import dataclasses

    import kcut.verify as verify_mod

    # raise the second critical value so its quotients no longer saturate
    real = verify_mod.principal_sequence

    def lying(g):
        psp = real(g)
        levels = list(psp.levels)
        levels[1] = dataclasses.replace(levels[1], lam=levels[1].lam + 1)
        return dataclasses.replace(psp, levels=tuple(levels))

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
