import json

import pytest

from alexkit.cli import main

from conftest import data_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_invariants_pencil3(capsys):
    code, report = run(capsys, "invariants", data_path("pencil3.grp"))
    assert code == 0
    assert report["b1"] == 3
    assert report["delta"] == "t1*t2*t3 - 1"
    assert report["qp"]["verdict"] == "CONSISTENT"
    assert report["torsion"] == []


def test_invariants_torusbundle(capsys):
    code, report = run(capsys, "invariants", data_path("torusbundle.grp"))
    assert code == 0
    assert report["b1"] == 1
    assert report["torsion"] == [4]
    assert report["delta"] == "t^2 + 2*t + 1"
    factors = report["factored"]["factors"]
    assert factors == [{"irreducible": True, "multiplicity": 2,
                        "poly": "t + 1"}]


def test_invariants_matrix_mode(capsys):
    code, report = run(capsys, "invariants", "--matrix",
                       data_path("ex52-g1.json"))
    assert code == 0
    assert report["b1"] == 3
    assert report["qp"]["verdict"] == "OBSTRUCTED"
    polys = sorted(f["poly"] for f in report["factored"]["factors"])
    assert polys == ["x1*x2 + 1", "x2 - 1", "x2*x3 + 1"]
    assert any("matrix-mode" in w for w in report["warnings"])


def test_invariants_with_character(capsys):
    code, report = run(capsys, "invariants", "--matrix",
                       data_path("ex66.json"),
                       "--char", "x1=1,x2=-1,x3=1")
    assert code == 0
    entry = report["characters"]["x1=1,x2=-1,x3=1"]
    assert entry["b1"] == 2
    assert entry["bound_pointwise"] == 1
    assert entry["almost_principal"] == "Unknown"


def test_betti_example_56(capsys):
    code, report = run(capsys, "betti", "--matrix",
                       data_path("ex52-g1.json"),
                       "--char", "x1=-1,x2=1,x3=-1")
    assert code == 0
    assert report["b1"] == 2


def test_betti_trivial_character(capsys):
    code, report = run(capsys, "betti", data_path("pencil3.grp"),
                       "--char", "x1=1,x2=1,x3=1", "--depth", "2")
    assert code == 0
    assert report["b1"] == 3
    assert report["member"] is True
    assert "trivial character" in report["note"]


def test_seifert_example_73(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1,2,3",
                       "--q", "3")
    assert code == 0
    table = {c["root_order"]: c["multiplicity"] for c in report["divisor"]}
    assert table == {1: 1, 2: 2, 3: 2, 6: 3}


def test_seifert_pencil(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1", "--q", "3")
    assert code == 0
    assert report["delta"] == "t1*t2*t3 - 1"


def test_seifert_with_character(capsys):
    code, report = run(capsys, "seifert", "--weights", "1,1,1,2,3",
                       "--q", "3", "--char", "t1=-1,t2=1,t3=1")
    assert code == 0
    assert report["b1"] == 2


def test_exit_code_bad_weights(capsys):
    code = main(["seifert", "--weights", "2,4,5", "--q", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "coprime" in err


def test_exit_code_missing_file(capsys):
    code = main(["invariants", "no-such-file.grp"])
    assert code == 2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("gens: a\nrel: b\n")
    code = main(["invariants", str(bad)])
    assert code == 2


def test_exit_code_cap_exceeded(tmp_path, capsys):
    grid = {"vars": ["t"], "rows": [["t"] * 9 for _ in range(9)]}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(grid))
    code = main(["invariants", "--matrix", str(big)])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_json_output_is_stable(capsys):
    _, first = run(capsys, "invariants", data_path("pencil4.grp"))
    code1 = main(["invariants", data_path("pencil4.grp")])
    raw1 = capsys.readouterr().out
    code2 = main(["invariants", data_path("pencil4.grp")])
    raw2 = capsys.readouterr().out
    assert raw1 == raw2


@pytest.fixture
def rank_calls(monkeypatch):
    """Count jumploci.twisted_betti calls, from cli and from jumploci."""
    from alexkit import cli, jumploci
    calls = []
    original = jumploci.twisted_betti

    def counted(mat, rho):
        calls.append(rho)
        return original(mat, rho)

    monkeypatch.setattr(jumploci, "twisted_betti", counted)
    monkeypatch.setattr(cli, "twisted_betti", counted)
    return calls


@pytest.mark.parametrize("char,depth,member", [
    ("x1=zeta3,x2=zeta3,x3=zeta3", "1", True),
    ("x1=zeta3,x2=zeta3,x3=zeta3", "2", False),
    ("x1=-1,x2=1,x3=1", "1", False),
])
def test_betti_depth_computes_rank_once(rank_calls, capsys, char, depth,
                                        member):
    code, report = run(capsys, "betti", data_path("pencil3.grp"),
                       "--char", char, "--depth", depth)
    assert code == 0
    assert report["member"] is member
    assert len(rank_calls) == 1


def test_betti_depth_zero_delta_computes_rank_once(rank_calls, tmp_path,
                                                   capsys):
    free = tmp_path / "free.grp"
    free.write_text("gens: a b\n")
    code, report = run(capsys, "betti", str(free), "--char", "a=-1,b=1",
                       "--depth", "1")
    assert code == 0
    assert report["b1"] == 1 and report["member"] is True
    assert len(rank_calls) == 1


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_betti_rejects_nonpositive_depth(capsys, depth):
    code = main(["betti", data_path("pencil3.grp"),
                 "--char", "x1=-1,x2=-1,x3=1", "--depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth" in captured.err


@pytest.mark.parametrize("grid", [
    {"vars": ["x"], "rows": [[1, "x"]]},
    {"vars": ["x"], "rows": [["x", None]]},
    {"vars": "xy", "rows": [["x", "y"]]},
    {"vars": ["x", "x"], "rows": [["x", "x"]]},
    {"vars": [1], "rows": [["1"]]},
    {"vars": ["t", "2"], "rows": [["t-2", "2"]]},
    {"vars": ["x"], "rows": "x"},
    {"vars": ["x"], "rows": ["x"]},
    {"vars": ["x"], "rows": [["x"], ["x", "1"]]},
])
def test_matrix_json_schema_errors(tmp_path, capsys, grid):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    for command in (["invariants"], ["betti", "--char", "x=-1"]):
        code = main(command[:1] + ["--matrix", str(bad)] + command[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("alexkit: ")
        assert "Traceback" not in captured.err
