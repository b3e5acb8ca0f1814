import json

import pytest

from kleinlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_and_dim(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _ = run(capsys, "build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", str(path))
    assert code == 0
    code, out = run(capsys, "dim", "-m", str(path))
    assert code == 0
    assert json.loads(out) == [2, 1, 1, 1, 1]


def test_cohomology_text(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "build-tube", "--tube", "hom:t^2+t+1", "--m", "1", "-o", str(path))
    code, out = run(capsys, "--format", "text", "cohomology", "-m", str(path), "-n", "2")
    assert code == 0
    assert out.strip() == "2,2"


def test_phi_lattice_roundtrip(tmp_path, capsys):
    t = tmp_path / "t.json"
    r = tmp_path / "r.json"
    t2 = tmp_path / "t2.json"
    run(capsys, "build-tube", "--tube", "special:0", "--j", "2", "--m", "1", "-o", str(t))
    assert run(capsys, "phi", "-m", str(t), "-o", str(r))[0] == 0
    assert run(capsys, "lattice-of", "-r", str(r), "-o", str(t2))[0] == 0
    a = json.loads(t.read_text())
    b = json.loads(t2.read_text())
    assert a["rank"] == b["rank"]


def test_xi_and_endring_exit_codes(capsys):
    code, out = run(capsys, "xi-verify", "--tube", "special:1", "--j", "1", "--m", "1", "--degrees", "1..2")
    assert code == 0
    assert json.loads(out)["xi_iso"] == {"1": True, "2": True}
    code, _ = run(capsys, "endring-check", "--tube", "hom:t^2+t+1", "--m", "1")
    assert code == 0


def test_s3_and_canonical(capsys):
    code, out = run(capsys, "s3", "--which", "t3", "--poly", "t^3+t+1")
    assert code == 0
    assert json.loads(out)["image"] == "t^3+t^2+1"
    code, out = run(capsys, "canonical", "--summands", "special:1:1:2", "--coords", "1")
    assert code == 0
    data = json.loads(out)
    assert data["positions"] == [1]


def test_classify_command(capsys):
    code, out = run(
        capsys,
        "classify",
        "--summands1", "special:1:1:2", "--coords1", "1",
        "--summands2", "special:1:1:2", "--coords2", "1",
    )
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_usage_errors(capsys, tmp_path):
    code, _ = run(capsys, "build-tube", "--tube", "special:1")
    assert code == 2
    code, _ = run(capsys, "dim", "-m", str(tmp_path / "missing.json"))
    assert code == 2
    code, _ = run(capsys, "canonical", "--summands", "special:1:1:2", "--coords", "1,1,1")
    assert code == 2
    code, _ = run(capsys, "classify", "--summands1", "special:1:1:1", "--coords1", "1",
                  "--summands2", "special:1:1:1", "--coords2", "1,1,1")
    assert code == 2
    # H^n(K, DM) = H^(n+1)(K, M*) holds from degree 1 on only
    code, _ = run(capsys, "co-canonical", "--summands", "special:1:1:1", "--coords", "", "-n", "0")
    assert code == 2
    # an empty degree range would pass without checking anything
    code, _ = run(capsys, "verify-all", "--fast", "--max-m", "1", "--degrees", "2..1")
    assert code == 2
    for cmd in ("eta-verify", "xi-verify"):
        code, _ = run(capsys, cmd, "--tube", "special:1", "--j", "1", "--m", "1", "--degrees", "2..1")
        assert code == 2


def test_deterministic_output(capsys, tmp_path):
    args = ["canonical", "--summands", "hom:t^2+t+1:2", "--coords", "1,0,1,1"]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_json_entries_must_be_exact(tmp_path, capsys):
    t = tmp_path / "t.json"
    r = tmp_path / "r.json"
    run(capsys, "build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", str(t))
    run(capsys, "phi", "-m", str(t), "-o", str(r))
    lattice = json.loads(t.read_text())
    rep = json.loads(r.read_text())
    for bad in (1.7, 1.0, "1", True):
        lattice["a"]["data"][0][0] = bad
        t.write_text(json.dumps(lattice))
        code, out = run(capsys, "cohomology", "-m", str(t), "-n", "2")
        assert code == 2 and out == ""
    for bad in (2, -1, 0.0, False):
        rep["f"]["pp"]["data"][0][0] = bad
        r.write_text(json.dumps(rep))
        code, out = run(capsys, "lattice-of", "-r", str(r))
        assert code == 2 and out == ""


def test_tube_argument_errors_name_the_problem(capsys):
    code = main(["build-tube", "--tube", "special:1", "--j", "1", "--m", "0"])
    assert code == 2
    assert "m = 0" in capsys.readouterr().err
    code = main(["build-tube", "--tube", "hom:t^2+t+1", "--m", "0"])
    assert code == 2
    assert "m = 0" in capsys.readouterr().err
    code = main(["build-tube", "--tube", "special:1", "--j", "3", "--m", "1"])
    assert code == 2
    assert "j = 3" in capsys.readouterr().err


def test_fast_verify_all_keeps_a_smaller_max_m(capsys):
    code, out = run(capsys, "verify-all", "--fast", "--max-m", "1", "--degrees", "1")
    assert code == 0
    assert "PASS  dimension formulas: all tubes with m <= 1" in out.splitlines()


def test_verify_all_refuses_an_empty_sweep(capsys):
    from kleinlat.verification import run_all

    assert main(["verify-all", "--fast", "--max-m", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-m" in captured.err
    with pytest.raises(ValueError):
        run_all(max_m=0)
    assert main(["verify-all", "--fast", "--max-m", "1", "--degrees", "2..1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--degrees" in captured.err
    with pytest.raises(ValueError, match="degrees"):
        run_all(max_m=1, degrees=())


def test_end_ring_detail_names_the_sizes_it_ran():
    from kleinlat.verification import check_end_rings

    ok, detail = check_end_rings(1, 1)
    assert ok
    assert detail == "homogeneous m <= 1 (two lifts) and special m <= 1"


def test_endring_check_passes_on_odd_special_members_of_length_five(capsys):
    for lam in ("0", "1", "inf"):
        for j in ("1", "2"):
            code, out = run(capsys, "endring-check", "--tube", f"special:{lam}", "--j", j, "--m", "5")
            assert code == 0, (lam, j, out)


def test_syzygy_refuses_a_decomposable_lattice(tmp_path, capsys):
    # the syzygy of T[f]_1 + T[f]_1 is again a sum of two copies; it has the
    # pencil degree of T[f]_2 but is not that member
    from kleinlat.polys import F2Poly
    from kleinlat.quiver import lattice_of, tube_rep

    V = tube_rep(F2Poly.from_string("t^2+t+1"), 1)
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(lattice_of(V.direct_sum(V)).to_json()))
    assert main(["syzygy", "-m", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not indecomposable" in captured.err


def test_s3_takes_a_bare_tube_id(capsys):
    code, bare = run(capsys, "s3", "--which", "t2", "--tube", "1")
    assert code == 0
    code, out = run(capsys, "s3", "--which", "t2", "--tube", "special:1")
    assert code == 0 and out == bare
    code, out = run(capsys, "s3", "--which", "t3", "--tube", "hom:t^2+t+1")
    assert code == 0
    assert json.loads(out)["image"] == "t^2+t+1"


def test_malformed_lattice_files_are_input_errors(tmp_path, capsys):
    good = tmp_path / "t.json"
    run(capsys, "build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", str(good))
    lattice = json.loads(good.read_text())
    cases = [([], "lattice:"), (5, "lattice:"), (None, "lattice:"),
             ({"a": 5, "b": 5}, "a:"), ({"b": lattice["b"], "rank": 2}, "a:"),
             (dict(lattice, b=[[1, 0], [0, 1]]), "b:"), (dict(lattice, b="x"), "b:"),
             (dict(lattice, a={"rows": 0, "cols": "x", "data": []}), "cols:"),
             (dict(lattice, a={"cols": 2, "data": []}), "rows:"),
             ({"a": lattice["a"], "b": lattice["b"]}, "rank:")]
    path = tmp_path / "bad.json"
    for bad, where in cases:
        path.write_text(json.dumps(bad))
        for argv in (["dim"], ["phi"], ["cohomology", "-n", "2"], ["syzygy"]):
            code = main(argv + ["-m", str(path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (bad, argv)
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"input error: {where}"), (bad, argv, lines)


def test_malformed_representation_files_are_input_errors(tmp_path, capsys):
    good = tmp_path / "t.json"
    rep_path = tmp_path / "r.json"
    run(capsys, "build-tube", "--tube", "special:1", "--j", "1", "--m", "2", "-o", str(good))
    run(capsys, "phi", "-m", str(good), "-o", str(rep_path))
    rep = json.loads(rep_path.read_text())
    arms = rep["f"]
    cases = [([], "representation:"), (None, "representation:"),
             ({"f": arms}, "dims:"), (dict(rep, dims="x"), "dims:"),
             (dict(rep, dims=rep["dims"][:4]), "dims:"), (dict(rep, dims=[2, 1, 1, 1, -1]), "dims:"),
             (dict(rep, dims=[2, 1, 1, 1, True]), "dims:"), (dict(rep, dims=[2.0, 1, 1, 1, 1]), "dims:"),
             ({"dims": rep["dims"]}, "f:"), (dict(rep, f=[]), "f:"),
             (dict(rep, f={k: v for k, v in arms.items() if k != "pm"}), "f.pm:"),
             (dict(rep, f=dict(arms, mm=5)), "f.mm:"),
             (dict(rep, f=dict(arms, mp={"rows": 1, "cols": 2})), "f.mp: data:"),
             (dict(rep, f=dict(arms, pp=dict(arms["pp"], data=[[2, 0]]))), "f.pp:"),
             (dict(rep, dims=[2, 2, 1, 1, 1]), "f.pp: shape"),
             (dict(rep, dims=[3, 1, 1, 1, 1]), "f.pp: shape")]
    path = tmp_path / "bad.json"
    for bad, where in cases:
        path.write_text(json.dumps(bad))
        code = main(["lattice-of", "-r", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", bad
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"input error: {where}"), (bad, lines)


def test_the_syzygy_of_the_zero_lattice_is_an_input_error(tmp_path, capsys):
    zero = {"rows": 0, "cols": 0, "data": []}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rank": 0, "a": zero, "b": zero}))
    assert main(["syzygy", "-m", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith("input error: rank 0")


def test_a_member_over_the_rank_limit_is_an_input_error(capsys, monkeypatch):
    import kleinlat.tubes as tubes

    def no_build(label):
        raise AssertionError("a member over the limit was built")

    monkeypatch.setattr(tubes, "label_rep", no_build)
    assert main(["build-tube", "--tube", "special:1", "--j", "1", "--m", "100000000"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == (f"input error: T[1,1]_100000000 has rank 200000000, "
                        f"over the limit of {tubes.MAX_MEMBER_RANK}")


@pytest.mark.parametrize("argv", [
    ("build-tube", "--tube", "hom:t^1000+t+1", "--m", "1"),
    ("s3", "--poly", "t^1000+t+1", "--which", "t2"),
], ids=["build-tube", "s3"])
def test_a_tube_polynomial_over_the_degree_limit_is_an_input_error(capsys, monkeypatch, argv):
    # refused before the irreducibility test, slow at this degree
    import kleinlat.quiver as quiver
    from kleinlat.polys import F2Poly

    def no_test(f):
        raise AssertionError("the irreducibility test ran")

    monkeypatch.setattr(F2Poly, "is_irreducible", no_test)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0] == (f"input error: a tube of degree 1000 has members of rank over "
                        f"the limit of {quiver.MAX_MEMBER_RANK}")
