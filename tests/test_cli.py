import json
import subprocess
import sys

from ovalbent import boolfn, cli, niho, gf


def run_cli(argv, **kw):
    return subprocess.run([sys.executable, "-m", "ovalbent.cli", *argv],
                          capture_output=True, text=True, **kw)


def test_niho_binomial3_m3(tmp_path):
    r = run_cli(["niho", "--family", "binomial_3", "--m", "3",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["verdicts"] == {"bent": True, "line_oval": True,
                                  "dual_walsh_eq_product": True}
    assert report["counts"]["e_size"] == 36
    # artifacts reload to the same objects
    f = boolfn.load_truth_table(tmp_path / "truth_table.txt")
    p = gf.field_make(3)
    g = niho.load_g_table(tmp_path / "g_table.csv", p)
    assert f == niho.bent_from_g(g, p)
    d = boolfn.load_truth_table(tmp_path / "dual.txt")
    assert d == niho.dual_walsh(g, p)


def test_niho_rejects_odd_m_for_16():
    r = run_cli(["niho", "--family", "binomial_1_6", "--m", "3"])
    assert r.returncode == 2
    assert "even" in r.stderr


def test_niho_quadratic_m2():
    r = run_cli(["niho", "--family", "quadratic", "--m", "2"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdicts"]["bent"] is True


def test_deterministic_stdout():
    a = run_cli(["niho", "--family", "leander_r", "--m", "3", "--r", "2"])
    b = run_cli(["niho", "--family", "leander_r", "--m", "3", "--r", "2"])
    assert a.stdout == b.stdout and a.returncode == 0


def test_oval_verify_catalog():
    r = run_cli(["oval", "verify", "--catalog", "fisher_schmidt", "--m", "4"])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["verdicts"]["no_three_collinear"] is True
    assert report["counts"]["points"] == 18


def test_oval_verify_failure_exit_code(tmp_path):
    from ovalbent import geometry
    p = gf.field_make(3)
    line = sorted(geometry.line_points(geometry.AffineLineK(int(p.S[1]), 3), p))
    pts = line + [x for x in range(p.K.size) if x not in line][:1]
    doc = geometry.oval_to_json(
        geometry.Oval(frozenset(pts), frozenset()), p)
    path = tmp_path / "bad.json"
    path.write_text(doc)
    r = run_cli(["oval", "verify", "--m", "3", "--json", str(path)])
    assert r.returncode == 1
    assert json.loads(r.stdout)["witnesses"]["collinear_triple"] is not None


def test_oval_convert_round_trip(tmp_path):
    from ovalbent import geometry
    p = gf.field_make(3)
    doc = geometry.oval_to_json(
        geometry.Oval(frozenset(int(u) for u in p.S), frozenset()), p)
    pts_path = tmp_path / "pts.json"
    pts_path.write_text(doc)
    r = run_cli(["oval", "convert", "--m", "3", "--points-json", str(pts_path)])
    assert r.returncode == 0
    lines_path = tmp_path / "lines.json"
    lines_path.write_text(r.stdout)
    r2 = run_cli(["oval", "convert", "--m", "3", "--lines-json", str(lines_path)])
    assert r2.returncode == 0
    assert sorted(json.loads(r2.stdout)["points"]) == sorted(int(u) for u in p.S)


def test_dual_cross_check_all_methods():
    for method, check in [("walsh", "product"), ("product", "chi-swap"),
                          ("budaghyan", "walsh")]:
        r = run_cli(["dual", "--family", "leander_r", "--m", "3", "--r", "2",
                     "--method", method, "--cross-check", check])
        assert r.returncode == 0, (method, check, r.stderr)
        verdicts = json.loads(r.stdout)["verdicts"]
        assert all(verdicts.values())


def test_ea_report():
    r = run_cli(["ea", "--family", "quadratic", "--m", "3"])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["bent"] is True and report["degree"] == 2
    assert report["quadratic_rank"] == 6
    assert report["spectrum"] == {"-8": 28, "8": 36}


def test_spread_build_validate_pipe():
    build = run_cli(["spread", "build", "--kind", "luneburg", "--m", "3"])
    assert build.returncode == 0
    assert build.stdout.startswith("q=64 shape=pair")
    validate = run_cli(["spread", "validate"], input=build.stdout)
    assert validate.returncode == 0
    rep = json.loads(validate.stdout)
    assert rep["validation"]["is_symplectic"] and rep["spread_partition_ok"]


def test_spread_bent_pipe_luneburg():
    build = run_cli(["spread", "build", "--kind", "luneburg", "--m", "3"])
    bent = run_cli(["spread", "bent", "--g", "sqrt-diag"], input=build.stdout)
    assert bent.returncode == 0, bent.stderr
    rep = json.loads(bent.stdout)["report"]
    assert rep["bent"] and rep["dual_routes_agree"] and rep["lineoval_ok"]
    assert rep["e_size"] == 2080 and rep["quadratic_rank"] == 12


def test_spread_bent_square_star_field():
    build = run_cli(["spread", "build", "--kind", "field", "--m", "3"])
    bent = run_cli(["spread", "bent", "--g", "square-star"], input=build.stdout)
    assert bent.returncode == 0
    assert json.loads(bent.stdout)["report"]["bent"]


def test_spread_bent_kind_shorthand():
    r = run_cli(["spread", "bent", "--pqf", "luneburg:3", "--g", "sqrt"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["report"]["quadratic_rank"] == 12
    r2 = run_cli(["spread", "bent", "--pqf", "kantor:3:1:1:0", "--g", "sqrt-diag"])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["report"]["bent"]


def test_spread_bent_failure_exit_code(tmp_path):
    build = run_cli(["spread", "build", "--kind", "field", "--m", "3"])
    gt = tmp_path / "g.txt"
    gt.write_text(" ".join(str(z) for z in range(8)))  # identity: not bent
    bent = run_cli(["spread", "bent", "--g", f"table:{gt}"], input=build.stdout)
    assert bent.returncode == 1
    rep = json.loads(bent.stdout)["report"]
    assert rep["bent"] is False and rep["criterion_witness"] is not None


def test_spread_build_kantor_and_knuth(tmp_path):
    out = tmp_path / "k.pqf"
    build = run_cli(["spread", "build", "--kind", "kantor", "--m", "3",
                     "--chain", "1", "--lambdas", "1", "--zetas", "0",
                     "--out", str(out)])
    assert build.returncode == 0
    rep = json.loads(build.stdout)
    assert rep["validation"]["is_symplectic"]
    knuth = run_cli(["spread", "knuth", "--pqf", str(out),
                     "--out-dir", str(tmp_path / "orbit")])
    assert knuth.returncode == 0
    rep = json.loads(knuth.stdout)
    assert rep["orbit_size"] <= 6 and rep["dtd_equals_tdt"]


def test_spread_transpose_roundtrip(tmp_path):
    build = run_cli(["spread", "build", "--kind", "field", "--m", "3"])
    t = run_cli(["spread", "transpose"], input=build.stdout)
    assert t.returncode == 0
    assert t.stdout == build.stdout  # the field is self-transpose
    report_text = "\n".join(ln for ln in t.stderr.splitlines()
                            if not ln.startswith("wall_time_s="))
    rep = json.loads(report_text)
    assert rep["symplectic_fixed_point"] and rep["involution_ok"]


def test_seed_controls_sampled_validation_only():
    # carrier size 128 is above the exhaustive cap: the report says sampled
    build = run_cli(["spread", "build", "--kind", "kantor", "--m", "7",
                     "--chain", "1", "--lambdas", "1", "--zetas", "5"])
    assert build.returncode == 0
    report_text = "\n".join(ln for ln in build.stderr.splitlines()
                            if not ln.startswith("wall_time_s="))
    rep = json.loads(report_text)["validation"]
    assert not rep["exhaustive"] and rep["samples"] == 20000
    assert rep["axioms_ok"] and rep["is_symplectic"]
    # a different seed must not change the verdicts (only the sample)
    v1 = run_cli(["--seed", "1", "spread", "validate"], input=build.stdout)
    v2 = run_cli(["--seed", "2", "spread", "validate"], input=build.stdout)
    assert v1.returncode == v2.returncode == 0
    assert json.loads(v1.stdout)["validation"]["axioms_ok"]
    assert json.loads(v2.stdout)["validation"]["axioms_ok"]


def test_broken_table_validate_exit_code(tmp_path):
    lines = ["q=4 shape=flat"]
    for x in range(4):
        lines.append(" ".join(str((x + z) % 4) for z in range(4)))
    r = run_cli(["spread", "validate"], input="\n".join(lines) + "\n")
    assert r.returncode == 1
    assert not json.loads(r.stdout)["validation"]["axioms_ok"]


def test_usage_error_exit_code():
    r = run_cli(["niho", "--family", "nope", "--m", "3"])
    assert r.returncode == 2
    r = run_cli(["spread", "bent", "--g", "bogus"], input="q=2 shape=flat\n0 0\n0 1\n")
    assert r.returncode == 2


def test_main_callable_directly(capsys):
    code = cli.main(["ea", "--family", "quadratic", "--m", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["degree"] == 2


def _assert_input_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_spread_bent_mu_out_of_range(capsys):
    for mu in ("16", "-1"):    # field:4 has 16 carrier elements
        _assert_input_error(["spread", "bent", "--pqf", "field:4", "--g", "sqrt",
                             "--mu", mu], capsys)


def test_spread_bent_g_value_out_of_range(tmp_path, capsys):
    for bad in (8, -1):
        gt = tmp_path / "g.txt"
        gt.write_text(" ".join(map(str, [bad] + list(range(1, 8)))))
        _assert_input_error(["spread", "bent", "--pqf", "field:3",
                             "--g", f"table:{gt}"], capsys)


def test_spread_bent_g_table_length(tmp_path, capsys):
    gt = tmp_path / "g.txt"
    gt.write_text(" ".join(map(str, range(7))))
    _assert_input_error(["spread", "bent", "--pqf", "field:3",
                         "--g", f"table:{gt}"], capsys)
