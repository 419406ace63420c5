import io
import json
import subprocess
import sys
import tracemalloc

from ovalbent import boolfn, cli, geometry, niho, gf, spread, spreadbent


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
    assert d == niho.dual_walsh(niho.bent_from_g(g, p), p)


def test_niho_rejects_odd_m_for_16():
    r = run_cli(["niho", "--family", "binomial_1_6", "--m", "3"])
    assert r.returncode == 2
    assert r.stderr.splitlines() == ["error: the 1/6 binomial needs m even"]


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


def test_oval_convert_round_trips_niho_line_ovals(tmp_path, capsys):
    """Lines through 0 convert to points at infinity: the niho line oval
    converts to the oval of `oval_from_g` and back to the same lines."""
    for m in (3, 5):
        d = tmp_path / f"m{m}"
        assert cli.main(["niho", "--family", "binomial_3", "--m", str(m),
                         "--out-dir", str(d)]) == 0
        capsys.readouterr()
        assert cli.main(["oval", "convert", "--m", str(m),
                         "--lines-json", str(d / "line_oval.json")]) == 0
        points_text = capsys.readouterr().out
        p = gf.field_make(m)
        want = geometry.oval_from_g(niho.load_g_table(d / "g_table.csv", p), p)
        got_m, got = geometry.oval_from_json(points_text)
        assert got_m == m and got.infinite
        assert (got.points, got.infinite) == (want.points, want.infinite)
        (d / "points.json").write_text(points_text)
        assert cli.main(["oval", "convert", "--m", str(m),
                         "--points-json", str(d / "points.json")]) == 0
        assert capsys.readouterr().out == (d / "line_oval.json").read_text()


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


def test_validation_is_exhaustive_and_seed_has_no_effect():
    # carrier size 128: the axioms are still checked on all triples
    build = run_cli(["spread", "build", "--kind", "kantor", "--m", "7",
                     "--chain", "1", "--lambdas", "1", "--zetas", "5"])
    assert build.returncode == 0
    report_text = "\n".join(ln for ln in build.stderr.splitlines()
                            if not ln.startswith("wall_time_s="))
    rep = json.loads(report_text)["validation"]
    assert rep["exhaustive"] is True and "samples" not in rep
    assert rep["axioms_ok"] and rep["is_symplectic"]
    # --seed is accepted and changes nothing
    v1 = run_cli(["--seed", "1", "spread", "validate"], input=build.stdout)
    v2 = run_cli(["--seed", "2", "spread", "validate"], input=build.stdout)
    assert v1.returncode == v2.returncode == 0
    assert v1.stdout == v2.stdout
    assert json.loads(v1.stdout)["validation"]["exhaustive"] is True


def test_spread_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma, 12 ms of every fresh process
    for argv in (["spread", "bent", "--pqf", "luneburg:3", "--g", "sqrt"],
                 ["spread", "validate", "--pqf", "kantor:3:1:1:0"],
                 ["spread", "knuth", "--pqf", "kantor:3:1:1:0"],
                 ["spread", "transpose", "--pqf", "kantor:3:1:1:0",
                  "--out", str(tmp_path / "t.pqf")]):
        code = ("import sys\nfrom ovalbent import cli\n"
                f"assert cli.main({argv!r}) == 0\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, (argv, r.stderr)


def _sum_mod4_table() -> str:
    """x o z = (x + z) mod 4: fails right_zero, zero_times and right
    distributivity."""
    lines = ["q=4 shape=flat"]
    for x in range(4):
        lines.append(" ".join(str((x + z) % 4) for z in range(4)))
    return "\n".join(lines) + "\n"


def test_broken_table_validate_exit_code(tmp_path):
    r = run_cli(["spread", "validate"], input=_sum_mod4_table())
    assert r.returncode == 1
    assert not json.loads(r.stdout)["validation"]["axioms_ok"]


def test_spread_transpose_rejects_broken_table(tmp_path, capsys):
    table = tmp_path / "sum_mod4.pqf"
    table.write_text(_sum_mod4_table())
    out = tmp_path / "t.pqf"
    _assert_input_error(["spread", "transpose", "--pqf", str(table),
                         "--out", str(out)], capsys)
    assert not out.exists()
    r = run_cli(["spread", "transpose"], input=_sum_mod4_table())
    assert r.returncode == 2 and r.stdout == ""
    err = r.stderr.splitlines()[0]
    assert err.startswith("error: prequasifield axioms fail")
    for axiom in ("right_zero", "zero_times", "right_distributive"):
        assert axiom in err


def test_spread_bent_out_dir_artifacts(tmp_path):
    r = run_cli(["spread", "bent", "--pqf", "luneburg:3", "--g", "sqrt",
                 "--out-dir", str(tmp_path)])
    assert r.returncode == 0, r.stderr
    Q = spread.luneburg(3)
    spec = spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))
    f = boolfn.load_truth_table(tmp_path / "truth_table.txt")
    assert f == spreadbent.bent_bivariate(spec)
    d = boolfn.load_truth_table(tmp_path / "dual.txt")
    assert d == spreadbent.dual_product(spreadbent.line_oval_bivariate(spec), Q)


def test_spread_bent_mu_artifacts_hold_the_requested_function(tmp_path, capsys):
    # G = sqrt + R*(5) with mu = 5 normalizes to the bent G = sqrt
    Q = spread.field_pqf(3)
    G = spread.sqrt_diag_g_table(Q) ^ spreadbent.star_table(Q)[5, :]
    gt = tmp_path / "g.txt"
    gt.write_text(" ".join(map(str, G.tolist())))
    out = tmp_path / "out"
    assert cli.main(["spread", "bent", "--pqf", "field:3", "--g", f"table:{gt}",
                     "--mu", "5", "--out-dir", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["bent"]
    spec = spreadbent.SpreadBentSpec(Q, G, 5)
    f = boolfn.load_truth_table(out / "truth_table.txt")
    assert f == spreadbent.bent_bivariate(spec)
    assert f != spreadbent.bent_bivariate(spreadbent.normalize_mu(spec))
    assert boolfn.load_truth_table(out / "dual.txt") == \
        boolfn.dual(f, spreadbent.walsh_masks(Q))


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


def test_kantor_chain_degree_out_of_range(capsys):
    # a degree must satisfy 1 <= d < its predecessor and divide it
    for argv in (["spread", "build", "--kind", "kantor", "--m", "3", "--chain", "0"],
                 ["spread", "build", "--kind", "kantor", "--m", "4",
                  "--chain", "2,0", "--lambdas", "1,1", "--zetas", "0,0"],
                 ["spread", "bent", "--pqf", "kantor:3:0:1:0", "--g", "sqrt"],
                 ["spread", "build", "--kind", "kantor", "--m", "3", "--chain", "-1"],
                 ["spread", "build", "--kind", "kantor", "--m", "3", "--chain", "3",
                  "--lambdas", "1", "--zetas", "0"]):
        _assert_input_error(argv, capsys)


def test_pqf_kind_spec_field_count(capsys):
    # field and luneburg take m; kantor takes m:chain:lambdas:zetas
    for pqf in ("field:3:9", "luneburg:3:junk", "field:", "kantor:3:1:1",
                "kantor:3:1:1:0:0", "nope:3"):
        _assert_input_error(["spread", "validate", "--pqf", pqf], capsys)


def test_spread_bent_g_value_out_of_range(tmp_path, capsys):
    for bad in (8, -1):
        gt = tmp_path / "g.txt"
        gt.write_text(" ".join(map(str, [bad] + list(range(1, 8)))))
        _assert_input_error(["spread", "bent", "--pqf", "field:3",
                             "--g", f"table:{gt}"], capsys)


def test_spread_bent_g_value_beyond_int32_and_int64(tmp_path, capsys):
    """Checked as Python ints: no overflow, and no wrap into the carrier."""
    for bad in ((1 << 31) + 3, (1 << 64) + 3):
        gt = tmp_path / "g.txt"
        gt.write_text(" ".join(map(str, [bad] + list(range(1, 8)))))
        _assert_input_error(["spread", "bent", "--pqf", "field:3",
                             "--g", f"table:{gt}"], capsys)
    gt.write_text(f"0 1 2 {(1 << 63) + 1}\n")
    assert cli.main(["spread", "bent", "--pqf", "field:2",
                     "--g", f"table:{gt}"]) == 2
    assert "G values must be carrier elements in [0, 4)" in capsys.readouterr().err


def test_spread_bent_g_table_length(tmp_path, capsys):
    gt = tmp_path / "g.txt"
    gt.write_text(" ".join(map(str, range(7))))
    _assert_input_error(["spread", "bent", "--pqf", "field:3",
                         "--g", f"table:{gt}"], capsys)


def test_niho_coefficient_index_out_of_range(capsys):
    k4 = 1 << 8                 # |K| at m = 4
    for a in ("-1", str(k4), str(2 * k4)):
        _assert_input_error(["niho", "--family", "quadratic", "--m", "4",
                             "--a-index", a], capsys)
    for alpha2 in ("-1", "300"):
        _assert_input_error(["niho", "--family", "binomial_3", "--m", "4",
                             "--alpha2-index", alpha2], capsys)


def test_m_outside_supported_range(capsys):
    for argv in (["niho", "--family", "quadratic", "--m", "10"],
                 ["dual", "--family", "quadratic", "--m", "10",
                  "--method", "walsh"],
                 ["oval", "verify", "--catalog", "conic_like_S", "--m", "10"],
                 ["niho", "--family", "quadratic"],
                 ["spread", "build", "--kind", "field", "--m", "19"],
                 ["spread", "build", "--kind", "field"]):
        _assert_input_error(argv, capsys)


def test_carrier_above_dimension_cap(monkeypatch, capsys):
    # GF(2) dimension 13 and 14: refused before any size^2 table exists
    tracemalloc.start()
    try:
        for argv in (["spread", "bent", "--pqf", "luneburg:7", "--g", "sqrt"],
                     ["spread", "bent", "--pqf", "field:13", "--g", "sqrt"],
                     ["spread", "build", "--kind", "field", "--m", "13"]):
            _assert_input_error(argv, capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO("q=8192 shape=flat\n"))
        _assert_input_error(["spread", "validate"], capsys)
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()


def _oval_doc(tmp_path, points, infinite=()):
    path = tmp_path / "oval.json"
    path.write_text(json.dumps({"kind": "oval", "m": 3, "points": list(points),
                                "infinite": list(infinite), "nucleus": None}))
    return str(path)


def test_oval_json_out_of_range(tmp_path, capsys):
    good = list(range(1, 9))     # 8 of the q + 1 = 9 points at m = 3
    for points, infinite in ((good + [-3], []), (good + [99999], []),
                             (good, [9]), (good, [-1])):
        _assert_input_error(["oval", "verify", "--m", "3", "--json",
                             _oval_doc(tmp_path, points, infinite)], capsys)


def test_line_oval_json_out_of_range(tmp_path, capsys):
    for bad in ([50, 1], [9, 1], [-1, 1], [0, 8], [0, -1]):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"kind": "line_oval", "m": 3,
                                    "lines": [bad] + [[j, 1] for j in range(1, 9)]}))
        _assert_input_error(["oval", "convert", "--m", "3", "--lines-json",
                             str(path)], capsys)


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [["niho", "--family", "binomial_3", "--m", "3"],
            ["spread", "bent", "--pqf", "field:3", "--g", "sqrt",
             "--out-dir", str(tmp_path / "d")],
            ["spread", "bent", "--pqf", "field:3", "--g", "sqrt"],
            ["ea", "--family", "quadratic", "--m", "2"]]
    outs = []
    for argv in runs:
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    for argv, out in zip(runs, outs):
        assert out == run_cli(argv).stdout, argv


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(args):
        raise KeyError("boom")
    monkeypatch.setattr(cli, "cmd_ea", boom)
    assert cli.main(["ea", "--family", "quadratic", "--m", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: KeyError" in err


def test_spec_json_malformed(tmp_path, capsys):
    for doc in ({"family": "quadratic"}, {"m": 4}, [],
                {"family": "quadratic", "m": "4"},
                {"family": "quadratic", "m": 4, "a_index": "5"}):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        _assert_input_error(["niho", "--spec-json", str(path)], capsys)


def test_spec_json_booleans_are_not_integers(tmp_path, capsys):
    # bool is an int in Python: JSON true once reached a table as index 1
    # and crashed with exit 3
    path = tmp_path / "spec.json"
    for key in ("m", "a_index", "alpha2_index", "r"):
        for value in (True, False):
            path.write_text(json.dumps({"family": "quadratic", "m": 4, key: value}))
            for cmd in (["niho"], ["dual", "--method", "walsh"], ["ea"]):
                _assert_input_error([*cmd, "--spec-json", str(path)], capsys)


def test_one_fill_cover_and_transform_per_command(monkeypatch, capsys):
    # each command builds its truth table and its line oval once and
    # hands them on; niho still runs its three transforms on that table
    calls: dict = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(niho, "bent_from_g")
    count(geometry, "line_cover_counts")
    count(boolfn, "walsh_transform")
    spec = ["--family", "quadratic", "--m", "5"]
    assert cli.main(["niho", *spec]) == 0
    assert calls == {"bent_from_g": 1, "line_cover_counts": 1, "walsh_transform": 3}
    calls.clear()
    assert cli.main(["dual", *spec, "--method", "walsh",
                     "--cross-check", "product"]) == 0
    assert calls == {"bent_from_g": 1, "line_cover_counts": 1, "walsh_transform": 1}
    capsys.readouterr()


def test_unreadable_input_path(tmp_path, capsys):
    for argv in (["oval", "verify", "--m", "3", "--json", str(tmp_path)],
                 ["ea", "--table", str(tmp_path)]):
        _assert_input_error(argv, capsys)


def test_oval_json_malformed(tmp_path, capsys):
    path = tmp_path / "oval.json"
    nine = list(range(1, 10))    # q + 1 points at m = 3, so verify would run
    for doc in ([], {"kind": "oval", "m": 3},
                {"kind": "oval", "m": 3, "points": 5, "infinite": []},
                {"kind": "oval", "m": 3, "points": nine},
                {"kind": "oval", "m": 3, "points": nine, "infinite": [],
                 "nucleus": "0"},
                {"kind": "oval", "m": 3, "points": nine, "infinite": [],
                 "nucleus": 64},
                {"kind": "oval", "m": 3, "points": [True] + nine[1:],
                 "infinite": []}):
        path.write_text(json.dumps(doc))
        _assert_input_error(["oval", "verify", "--m", "3", "--json", str(path)],
                            capsys)


def test_line_oval_json_malformed(tmp_path, capsys):
    path = tmp_path / "lines.json"
    for doc in ({"kind": "line_oval", "m": 3}, "lines",
                {"kind": "line_oval", "m": 3, "lines": {"0": 1}},
                {"kind": "line_oval", "m": 3, "lines": [[0, 1, 2]]},
                {"kind": "line_oval", "m": 3, "lines": [5]},
                {"kind": "line_oval", "m": 3, "lines": [[1.0, 1]]},
                {"kind": "line_oval", "m": 3, "lines": [[True, 1]]}):
        path.write_text(json.dumps(doc))
        _assert_input_error(["oval", "convert", "--m", "3", "--lines-json",
                             str(path)], capsys)


def test_truth_table_malformed(tmp_path, capsys):
    path = tmp_path / "t.txt"
    for text in ("k=2\nffff\n",        # 16 bits for a 4-bit table
                 "k=2\nff\n",          # padding bits set
                 "k=3\n4d00\n",        # one byte too many
                 "k=4\n4d\n",          # one byte too few
                 "k=-1\nff\n", "k=x\nff\n", "k=\nff\n",
                 "k=99999999999999999999\n00\n", "k=3\nzz\n"):
        path.write_text(text)
        _assert_input_error(["ea", "--table", str(path)], capsys)


def test_oval_convert_needs_an_oval_worth_of_points(tmp_path, capsys):
    p = gf.field_make(3)
    for points in ([int(u) for u in p.S][:3], []):
        _assert_input_error(["oval", "convert", "--m", "3", "--points-json",
                             _oval_doc(tmp_path, points)], capsys)
    # the q+1 nonzero points of a catalog hyperoval still convert
    pts = sorted(geometry.catalog_oval("fisher_schmidt", p).points - {0})
    assert cli.main(["oval", "convert", "--m", "3", "--points-json",
                     _oval_doc(tmp_path, pts)]) == 0
    assert len(json.loads(capsys.readouterr().out)["lines"]) == p.q + 1


def test_one_bit_carriers_are_bent(capsys):
    # on k = 2 variables the bent functions are xy and its affine shifts
    for pqf in ("field:1", "kantor:1:::"):
        for g in ("sqrt", "square-star"):
            assert cli.main(["spread", "bent", "--pqf", pqf, "--g", g]) == 0
            report = json.loads(capsys.readouterr().out)["report"]
            assert report["degree"] == 2
            assert all(report[k] for k in ("bent", "criterion", "verdicts_agree",
                                           "dual_routes_agree", "lineoval_ok"))
    assert cli.main(["spread", "build", "--kind", "kantor", "--m", "1"]) == 0
    assert spread.loads_pqf(capsys.readouterr().out).table.tolist() == [[0, 0], [0, 1]]
