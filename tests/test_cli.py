import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ovalbent import (boolfn, cli, geometry, gf, inputs, kernels, niho, spread,
                      spreadbent)
from oracles import b_form_masks, load_g_table, walsh_by_rows
from test_spread import (NOT_F_SYMMETRIC, _relabel_phi, _relabelled_luneburg,
                         _rule_pqf)


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
    g = load_g_table(tmp_path / "g_table.csv", p)
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
        want = geometry.oval_from_g(load_g_table(d / "g_table.csv", p), p)
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


def test_niho_leander_with_unnormalized_a_skips_the_closed_dual(capsys):
    """The closed dual form needs a + a^q = 1 besides even r: a Leander
    member with another a is bent and reported on the Walsh and product
    routes, and the default, normalized a keeps the closed-form verdict."""
    for m, a in ((7, "5"), (5, "3")):
        assert cli.main(["niho", "--family", "leander_r", "--m", str(m),
                         "--r", "2", "--a-index", a]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdicts == {"bent": True, "line_oval": True,
                            "dual_walsh_eq_product": True}
    assert cli.main(["niho", "--family", "leander_r", "--m", "5",
                     "--r", "2"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"bent": True, "line_oval": True,
                        "dual_walsh_eq_product": True,
                        "dual_walsh_eq_budaghyan": True}


def test_dual_budaghyan_outside_its_domain_is_bad_input(capsys):
    for argv, msg in [
            (["--family", "quadratic", "--m", "3"],
             "the closed dual form is for the leander_r family"),
            (["--family", "leander_r", "--m", "5", "--r", "2", "--a-index", "3"],
             "closed dual form needs the normalization a + a^q = 1"),
            (["--family", "leander_r", "--m", "4", "--r", "3"],
             "the closed dual form resolves the fractional power only for "
             "even r; use the walsh or product route")]:
        assert cli.main(["dual", *argv, "--method", "budaghyan"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {msg}"]
        assert captured.out == ""


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


def test_spread_transpose_reports_the_symplectic_fixed_point(tmp_path, capsys):
    """symplectic_fixed_point is false for a valid table that is not
    symplectic and true for field:3 and luneburg:3, and it says whether
    the transpose written is the table itself."""
    path = tmp_path / "x2z.pqf"
    with open(path, "w") as fh:
        spread.write_pqf(_rule_pqf("x^2 z"), fh)
    out = tmp_path / "t.pqf"
    for pqf, want in ((str(path), False), ("field:3", True),
                      ("luneburg:3", True)):
        assert cli.main(["spread", "transpose", "--pqf", pqf,
                         "--out", str(out)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["symplectic_fixed_point"] is want, pqf
        assert rep["involution_ok"] and rep["perpendicular_ok"]
        Q = cli._read_pqf(pqf)
        assert np.array_equal(spread.load_pqf(out).table, Q.table) is want


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


def test_spread_knuth_exit_code_follows_dtd_equals_tdt(monkeypatch, capsys):
    """A false dtd_equals_tdt, the report's verdict, exits 1 even when the
    orbit has at most six items."""
    knuth_orbit = spread.knuth_orbit
    monkeypatch.setattr(spread, "knuth_orbit",
                        lambda Q: (knuth_orbit(Q)[0], False))
    assert cli.main(["spread", "knuth", "--pqf", "kantor:3:1:1:0"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["dtd_equals_tdt"] is False and rep["orbit_size"] <= 6


def test_spread_commands_leave_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma, about 15 ms of a fresh process
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


def test_spread_bent_sqrt_on_a_pair_carrier_that_is_not_f_linear(tmp_path):
    """luneburg:3 relabelled by a B-isometry phi that is not F-linear is
    symplectic, so `--g sqrt` takes it: every verdict true, and the truth
    table is that of G' = phi^-1 G phi, G(z) = (sqrt z1, sqrt z2)."""
    Q = spread.luneburg(3)
    path = tmp_path / "relabelled.pqf"
    spread.save_pqf(_relabelled_luneburg(), path)
    out = tmp_path / "out"
    r = run_cli(["spread", "bent", "--pqf", str(path), "--g", "sqrt",
                 "--out-dir", str(out)])
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)["report"]
    verdicts = ("bent", "criterion", "lineoval_ok", "verdicts_agree",
                "dual_routes_agree")
    assert all(rep[k] is True for k in verdicts), rep
    F, phi = Q.field, _relabel_phi(Q)
    G = np.array([F.sqrt(z & 7) | F.sqrt(z >> 3) << 3 for z in range(Q.size)])
    spec = spreadbent.SpreadBentSpec(spread.load_pqf(path), phi[G[phi]])
    assert boolfn.load_truth_table(out / "truth_table.txt") == \
        spreadbent.bent_bivariate(spec)


def test_spread_bent_sqrt_rejects_tables_that_are_not_symplectic(tmp_path, capsys):
    """The pair tables without a symmetric F-matrix representation exit 2:
    two fail the axioms, and the two that pass are not symplectic."""
    for name, make in NOT_F_SYMMETRIC.items():
        path = tmp_path / "t.pqf"
        spread.save_pqf(make(), path)
        _assert_input_error(["spread", "bent", "--pqf", str(path), "--g", "sqrt"],
                            capsys)


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
    want = (walsh_by_rows(f.table) < 0)[b_form_masks(Q)]
    assert np.array_equal(boolfn.load_truth_table(out / "dual.txt").table, want)


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


@pytest.mark.parametrize("flags, unread", [
    (["--kind", "field", "--m", "3", "--chain", "1"], "--chain"),
    (["--kind", "field", "--m", "3", "--lambdas", ""], "--lambdas"),
    (["--kind", "field", "--m", "3", "--table", "nonexist"], "--table"),
    (["--kind", "luneburg", "--m", "3", "--zetas", "5"], "--zetas"),
    (["--kind", "kantor", "--m", "3", "--chain", "1", "--lambdas", "1",
      "--zetas", "0", "--table", "{pqf}"], "--table"),
    (["--kind", "table", "--table", "kantor:3:1:1:0", "--chain", "2"], "--chain"),
    (["--kind", "table", "--table", "{pqf}", "--m", "4"], "--m"),
])
def test_spread_build_rejects_flags_its_kind_does_not_read(flags, unread,
                                                           tmp_path, capsys):
    pqf = tmp_path / "f.pqf"
    spread.save_pqf(spread.field_pqf(2), pqf)
    assert cli.main(["spread", "build", *(f.format(pqf=pqf) for f in flags)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --kind {flags[1]} does not read {unread}")
    # without the unread flag the same build passes
    i = flags.index(unread)
    assert cli.main(["spread", "build", *(f.format(pqf=pqf) for f in
                                          flags[:i] + flags[i + 2:])]) == 0


def test_pqf_kind_spec_field_count(capsys):
    # field and luneburg take m; kantor takes m:chain:lambdas:zetas; table
    # is a `spread build` kind only
    for pqf in ("field:3:9", "luneburg:3:junk", "field:", "kantor:3:1:1",
                "kantor:3:1:1:0:0", "nope:3", "table:3"):
        _assert_input_error(["spread", "validate", "--pqf", pqf], capsys)


def test_spread_bent_g_value_out_of_range(tmp_path, capsys):
    for bad in (8, -1):
        gt = tmp_path / "g.txt"
        gt.write_text(" ".join(map(str, [bad] + list(range(1, 8)))))
        _assert_input_error(["spread", "bent", "--pqf", "field:3",
                             "--g", f"table:{gt}"], capsys)


def test_spread_bent_g_value_beyond_int32_and_int64(tmp_path, capsys):
    """An entry past int64 reads as the int64 maximum, so the range check
    rejects it: no overflow, and no wrap into the carrier."""
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


def test_spread_bent_g_table_takes_plain_digits_only(tmp_path, capsys):
    """A G file whose values int() reads but which are not plain ASCII
    digits and spaces (a sign, an underscore, an Arabic-Indic or
    fullwidth digit, a tab between values) exits 2 under the digit rule
    of table files; each once ran with exit 0.  So do a letter, a point,
    an exponent, a hex prefix and a comma, with the same message.  Values
    may span lines."""
    words = list(map(str, spread.sqrt_diag_g_table(spread.field_pqf(3)).tolist()))
    assert words[:2] == ["0", "1"]
    gt = tmp_path / "g.txt"
    argv = ["spread", "bent", "--pqf", "field:3", "--g", f"table:{gt}"]
    rest = " ".join(words[2:])
    for bad in ("0 0_1 " + rest, "0 +1 " + rest, "-0 1 " + rest,
                "0 \u0661 " + rest, "0 \uff11 " + rest, "\t".join(words),
                *(f"0 {w} " + rest for w in ("3x", "1.5", "1e3", "0x1f", "1,2"))):
        gt.write_text(bad + "\n", encoding="utf-8")
        _named_input_error(argv, capsys,
                           "G values must be plain decimal digits and spaces")
    for good in (" ".join(words[:4]) + "\n" + " ".join(words[4:]) + "\n",
                 " ".join(words[:4]) + "\r\n" + " ".join(words[4:]) + "\r\n",
                 "\n".join(words) + "\n\n"):
        gt.write_bytes(good.encode())
        assert cli.main(argv) == 0, good
        assert json.loads(capsys.readouterr().out)["report"]["bent"]


@pytest.mark.parametrize("argv", [
    ["niho", "--family", "quadratic", "--m", "\u0663"],          # Arabic-Indic 3
    ["niho", "--family", "quadratic", "--m", "+3"],
    ["niho", "--family", "quadratic", "--m", "4", "--a-index", "1_0"],
    ["niho", "--family", "binomial_3", "--m", "4", "--alpha2-index", " 1"],
    ["dual", "--family", "leander_r", "--m", "5", "--r", "+2",
     "--method", "walsh"],
    ["oval", "verify", "--catalog", "fisher_schmidt", "--m", "4 "],
    ["spread", "build", "--kind", "field", "--m", "\uff13"],     # fullwidth 3
    ["spread", "validate", "--pqf", "field:\u0663"],
    ["spread", "validate", "--pqf", "kantor:3:+1:1:0"],
    ["spread", "build", "--kind", "kantor", "--m", "5", "--chain", "1",
     "--lambdas", " 1", "--zetas", "11"],
    ["spread", "build", "--kind", "kantor", "--m", "5", "--chain", "1",
     "--lambdas", "1", "--zetas", "1_1"],
    ["spread", "bent", "--pqf", "luneburg:3", "--g", "sqrt", "--mu", "\u0663"],
    ["--seed", "+1", "spread", "validate", "--pqf", "field:2"],
], ids=lambda argv: " ".join(argv).encode("unicode_escape").decode())
def test_integer_flags_and_specs_take_plain_digits_only(argv, capsys):
    """Every integer of a flag or a kind spec follows the digit rule of
    the table files (`inputs.plain_int`): int() reads each of these
    values, and each exits 2 with a message that names the rule; argparse
    rejects a flag by SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "plain" in captured.err and "Traceback" not in captured.err


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


def test_carrier_size_message_names_the_carrier_cap(monkeypatch, capsys):
    """Every kind at m = -1, 0, 13 and 19 is refused by the carrier cap
    1..12, before any field is built (the field cap is 1..18)."""
    monkeypatch.setattr(spread, "binary_field",
                        lambda m: pytest.fail(f"GF(2^{m}) built"))
    for m in ("-1", "0", "13", "19"):
        for argv in (["spread", "validate", "--pqf", f"field:{m}"],
                     ["spread", "validate", "--pqf", f"luneburg:{m}"],
                     ["spread", "validate", "--pqf", f"kantor:{m}:1:1:0"],
                     ["spread", "build", "--kind", "field", "--m", m],
                     ["spread", "build", "--kind", "luneburg", "--m", m],
                     ["spread", "build", "--kind", "kantor", "--m", m,
                      "--chain", "1", "--lambdas", "1", "--zetas", "0"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "outside 1..12" in err, (argv, err)


def _pqf_layouts():
    """The field:2 table in several line layouts: (text, accepted)."""
    text = spread.dumps_pqf(spread.field_pqf(2))
    head, *rows = text.splitlines()
    return {
        "crlf": (text.replace("\n", "\r\n"), True),
        "cr": (text.replace("\n", "\r"), True),
        "blank lines": ("\n \n" + head + "\n\n" + "\n\t\n".join(rows) + "\n\n", True),
        "ff line ends": ("".join(ln + "\x0c\n" for ln in [head, *rows]), True),
        "ff in the header": (text.replace(" ", "\x0c", 1), True),
        "ff between rows": (head + "\n" + "\x0c".join(rows) + "\n", False),
        "ff after the header": (head + "\x0c" + "\n".join(rows) + "\n", False),
        "vt between rows": (head + "\n" + "\x0b".join(rows) + "\n", False)}


def _table_or_none(read, source):
    try:
        return read(source).table.tolist()
    except ValueError:
        return None


def test_string_file_and_stdin_read_the_same_lines(tmp_path, monkeypatch, capsys):
    """loads_pqf, load_pqf and `--pqf -` agree on every layout: a line ends
    at LF, CR or CR LF, and a form feed or vertical tab does not end a
    line (at the ends of a line it is stripped)."""
    table = spread.field_pqf(2).table.tolist()
    path = tmp_path / "t.pqf"
    layouts = _pqf_layouts()
    for name, (text, accepted) in layouts.items():
        want = table if accepted else None
        path.write_bytes(text.encode())
        assert _table_or_none(spread.loads_pqf, text) == want, name
        assert _table_or_none(spread.load_pqf, path) == want, name
        # POSIX stdin ends its lines at LF only
        with open(path, newline="\n") as fh:
            monkeypatch.setattr(sys, "stdin", fh)
            code = cli.main(["spread", "validate", "--pqf", "-"])
        out = capsys.readouterr().out
        assert code == (0 if accepted else 2), name
        if accepted:
            assert json.loads(out)["validation"]["axioms_ok"]
    # the real stdin of a child process, with CR line ends
    r = run_cli(["spread", "validate", "--pqf", "-"],
                input=layouts["cr"][0])
    assert r.returncode == 0, r.stderr


def test_spread_validate_takes_plain_digits_only(tmp_path, capsys):
    """A table file whose entries or q= value int() reads but which are
    not plain ASCII digits (a sign, an underscore, an Arabic-Indic
    digit) is bad input for every command that reads a file."""
    text = spread.dumps_pqf(spread.field_pqf(2))
    path = tmp_path / "t.pqf"
    for bad in (text.replace("0 1 2 3", "0 1 2 0_3"),
                text.replace("0 1 2 3", "0 1 2 +3"),
                text.replace("0 1 2 3", "0 1 2 \u0663"),
                text.replace("q=4", "q=+4")):
        path.write_text(bad, encoding="utf-8")
        for argv in (["spread", "validate", "--pqf", str(path)],
                     ["spread", "build", "--kind", "table", "--table", str(path)],
                     ["spread", "bent", "--pqf", str(path), "--g", "sqrt"]):
            _assert_input_error(argv, capsys)
    path.write_text(text.replace("0 1 2 3", "00 1  2 3"), encoding="utf-8")
    assert cli.main(["spread", "validate", "--pqf", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["axioms_ok"]


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


@pytest.mark.parametrize("kernel, argv", [
    ("row_counts", ["spread", "bent", "--pqf", "field:3", "--g", "sqrt"]),
    ("univariate_product_dual", ["niho", "--family", "quadratic", "--m", "3"]),
])
def test_numpy_value_error_is_an_internal_error(monkeypatch, capsys, kernel, argv):
    """A ValueError from inside a command, such as numpy's broadcast
    fault, is a crash (exit 3), not bad input: only `inputs.DomainError`
    is."""
    def broadcast_fault(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(kernels, kernel, broadcast_fault)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: ValueError" in err


def test_deep_json_is_bad_input(tmp_path, capsys):
    """A document nested 2,000 deep once exited 3 with RecursionError."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    for argv in (["niho", "--spec-json", str(path)],
                 ["oval", "verify", "--m", "3", "--json", str(path)],
                 ["oval", "convert", "--m", "3", "--points-json", str(path)]):
        _assert_input_error(argv, capsys)
        assert cli.main(argv) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_integers_past_the_digit_limit(tmp_path, capsys):
    """int() rejects more than 4,300 digits with a message that names
    sys.set_int_max_str_digits; the digit rule has its own."""
    big = "1" * 5000
    path = tmp_path / "spec.json"
    path.write_text('{"family": "quadratic", "m": %s}' % big)
    for argv in (["spread", "build", "--kind", "kantor", "--m", "5", "--chain",
                  "1", "--lambdas", big, "--zetas", "0"],
                 ["niho", "--spec-json", str(path)]):
        _named_input_error(argv, capsys, "an integer of 5000 digits is past "
                           "every value the input rules read")
    for read in (inputs.plain_int, inputs.loads_json):
        with pytest.raises(inputs.DomainError, match="5000 digits"):
            read(big)


def test_standard_library_errors_are_bad_input(tmp_path, capsys):
    """Undecodable bytes in each kind of input file and a NUL in a path
    exit 2 (bad hex: `test_truth_table_malformed`)."""
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"family": "quadratic", "m": 3\xff}')
    table = tmp_path / "t.pqf"
    table.write_bytes(b"q=2 shape=flat\n0 0\n0 \xff\n")
    g = tmp_path / "g.txt"
    g.write_bytes(b"0 1 6 7 2 3 4\xff5\n")
    tt = tmp_path / "tt.txt"
    tt.write_bytes(b"k=3\n4\xff\n")
    for argv in (["niho", "--spec-json", str(spec)],
                 ["spread", "validate", "--pqf", str(table)],
                 ["spread", "bent", "--pqf", "field:3", "--g", f"table:{g}"],
                 ["ea", "--table", str(tt)],
                 ["spread", "validate", "--pqf", f"{table}\0"]):
        _assert_input_error(argv, capsys)


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


def test_spec_fields_the_family_ignores(tmp_path, capsys):
    # a report once echoed alpha2_index or r that nothing had read
    path = tmp_path / "spec.json"
    for family, key, value in (("quadratic", "alpha2_index", 5),
                               ("leander_r", "alpha2_index", 0),
                               ("quadratic", "r", 2), ("binomial_3", "r", 2),
                               ("binomial_1_6", "r", 3)):
        m = 5 if family == "leander_r" else 4
        flag = "--" + key.replace("_", "-")
        path.write_text(json.dumps({"family": family, "m": m, key: value}))
        for cmd in (["niho"], ["dual", "--method", "walsh"], ["ea"]):
            _assert_input_error([*cmd, "--family", family, "--m", str(m),
                                 flag, str(value)], capsys)
            _assert_input_error([*cmd, "--spec-json", str(path)], capsys)
    for argv in (["--family", "binomial_3", "--m", "3", "--alpha2-index", "1"],
                 ["--family", "leander_r", "--m", "5", "--r", "2"]):
        assert cli.main(["niho", *argv]) == 0
    capsys.readouterr()


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
    calls.clear()
    # a g that is not bent: the same one cover gives the verdict and witness
    assert cli.main(["niho", "--family", "quadratic", "--m", "4",
                     "--a-index", "92"]) == 1
    assert calls == {"bent_from_g": 1, "line_cover_counts": 1, "walsh_transform": 1}
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["niho", "--family", "quadratic", "--m", "4"],
    ["dual", "--family", "quadratic", "--m", "4", "--method", "walsh",
     "--cross-check", "product"]])
def test_cover_against_the_walsh_verdict_is_a_verdict(argv, monkeypatch, capsys):
    """A line-oval cover that contradicts a bent Walsh spectrum is a
    library fault: a failed verdict with its witness (exit 1), not bad
    input.  One more line through the point 6, which lies on 2 lines,
    makes the cover fail there."""
    cover = geometry.line_cover_counts

    def one_more_line(lines, params):
        counts = cover(lines, params)
        counts[6] += 1
        return counts

    monkeypatch.setattr(geometry, "line_cover_counts", one_more_line)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["verdicts"] == {"bent": True, "line_oval": False}
    assert rep["witnesses"] == {"line_oval_point": 6}
    assert rep["counts"] == {"witness_cover": 3}
    assert "error:" not in err


@pytest.mark.parametrize("route", ["product", "chi_swap"])
def test_dual_routes_witness_names_the_first_difference(route, monkeypatch,
                                                         capsys):
    """A route whose dual differs from the Walsh-sign dual is a failed
    verdict (exit 1) whose report names the route and the smallest packed
    point where they differ: the entry at the point 37 of luneburg:3
    flipped, and for chi-swap also the entry at 50, so that the smaller
    is named."""
    argv = ["spread", "bent", "--pqf", "luneburg:3", "--g", "sqrt"]
    assert cli.main(argv) == 0
    assert "dual_routes_witness" not in json.loads(capsys.readouterr()[0])["report"]
    build = getattr(spreadbent, f"dual_{route}")
    points = [37] if route == "product" else [37, 50]

    def flipped(*args):
        f = build(*args)
        table = f.table.copy()
        table[points] ^= 1
        return boolfn.BooleanFunction(f.k, table)

    monkeypatch.setattr(spreadbent, f"dual_{route}", flipped)
    assert cli.main(argv) == 1
    rep = json.loads(capsys.readouterr()[0])["report"]
    assert rep["bent"] and rep["lineoval_ok"] and rep["verdicts_agree"]
    assert rep["dual_routes_agree"] is False
    assert rep["dual_routes_witness"] == [route, 37]


def test_unreadable_input_path(tmp_path, capsys):
    for argv in (["oval", "verify", "--m", "3", "--json", str(tmp_path)],
                 ["ea", "--table", str(tmp_path)]):
        _assert_input_error(argv, capsys)


def test_ea_table_stops_at_k_24(tmp_path, capsys):
    """A valid truth-table file with k = 25, one bit past the largest
    table any command writes, is bad input, named from its header."""
    path = tmp_path / "t25.txt"
    path.write_text("k=25\n" + "00" * (1 << 22) + "\n")
    _named_input_error(["ea", "--table", str(path)], capsys,
                       "k=25 is above the truth-table cap k <= 24")


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


def _named_input_error(argv, capsys, message):
    """argv exits 2 with exactly `message` as its error line."""
    _assert_input_error(argv, capsys)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oval_json_rejects_repeats_and_unknown_keys(tmp_path, capsys):
    """A repeated point or infinite tag, or a key the reader does not
    know, exits 2; each was once merged or ignored and verified (exit 0,
    with `points: 9` for ten listed points)."""
    circle = [int(u) for u in gf.field_make(3).S]
    assert cli.main(["oval", "verify", "--m", "3", "--json",
                     _oval_doc(tmp_path, circle)]) == 0
    capsys.readouterr()
    for points, infinite, message in (
            (circle + circle[4:5], (), f"point {circle[4]} appears twice"),
            (circle[:1], (0, 0), "infinite tag 0 appears twice")):
        _named_input_error(["oval", "verify", "--m", "3", "--json",
                            _oval_doc(tmp_path, points, infinite)], capsys,
                           message)
    path = tmp_path / "extra.json"
    doc = {"kind": "oval", "m": 3, "points": circle, "infinite": [],
           "nucleus": None, "note": 1}
    path.write_text(json.dumps(doc))
    _named_input_error(["oval", "verify", "--m", "3", "--json", str(path)],
                       capsys, "unknown keys in the oval document: ['note']")
    del doc["note"]
    path.write_text(json.dumps(dict(doc, m=3.0)))
    _named_input_error(["oval", "verify", "--m", "3", "--json", str(path)],
                       capsys, "m must be an integer, not 3.0")


def test_line_oval_json_rejects_non_integer_m_repeats_and_unknown_keys(
        tmp_path, capsys):
    """`"m": 3.0`, a key the reader does not know and a repeated line each
    exit 2; the first two were once converted with exit 0."""
    d = tmp_path / "b3"
    assert cli.main(["niho", "--family", "binomial_3", "--m", "3",
                     "--out-dir", str(d)]) == 0
    capsys.readouterr()
    doc = json.loads((d / "line_oval.json").read_text())
    path = tmp_path / "lines.json"
    argv = ["oval", "convert", "--m", "3", "--lines-json", str(path)]
    line = doc["lines"][3]
    for bad, message in (
            (dict(doc, m=3.0), "m must be an integer, not 3.0"),
            (dict(doc, m=True), "m must be an integer, not True"),
            (dict(doc, note="x"), "unknown keys in the line_oval document: ['note']"),
            (dict(doc, lines=doc["lines"] + [line]),
             f"line {tuple(line)} appears twice")):
        path.write_text(json.dumps(bad))
        _named_input_error(argv, capsys, message)
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 0


def test_spec_json_rejects_unknown_keys(tmp_path, capsys):
    """A misspelled key once ran the default member with exit 0."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "quadratic", "m": 4, "a_idx": 5}))
    for cmd in (["niho"], ["dual", "--method", "walsh"], ["ea"]):
        _named_input_error([*cmd, "--spec-json", str(path)], capsys,
                           "unknown keys in a spec: ['a_idx']")


def test_json_readers_reject_repeated_keys(tmp_path, capsys):
    """A repeated key exits 2: a spec with `"m": 4, "m": 5` once ran m = 5,
    and an oval document whose second point list was an oval once
    verified with exit 0, though its first list is not one."""
    path = tmp_path / "spec.json"
    path.write_text('{"family": "quadratic", "m": 4, "m": 5}')
    for cmd in (["niho"], ["dual", "--method", "walsh"], ["ea"]):
        _named_input_error([*cmd, "--spec-json", str(path)], capsys,
                           "key m appears twice")
    circle = [int(u) for u in gf.field_make(3).S]
    doc = _oval_doc(tmp_path, circle[1:])
    assert cli.main(["oval", "verify", "--m", "3", "--json", doc]) == 2
    capsys.readouterr()
    path = tmp_path / "oval.json"
    path.write_text(path.read_text()[:-1]
                    + ', "points": %s}' % json.dumps(circle))
    _named_input_error(["oval", "verify", "--m", "3", "--json", doc], capsys,
                       "key points appears twice")
    with pytest.raises(ValueError, match="key m appears twice"):
        inputs.loads_json('[{"m": 1, "m": 1}]')        # nested objects too


def test_truth_table_malformed(tmp_path, capsys):
    path = tmp_path / "t.txt"
    for text in ("k=2\nffff\n",        # 16 bits for a 4-bit table
                 "k=2\nff\n",          # padding bits set
                 "k=3\n4d00\n",        # one byte too many
                 "k=4\n4d\n",          # one byte too few
                 "k=-1\nff\n", "k=x\nff\n", "k=\nff\n",
                 "k=99999999999999999999\n00\n", "k=%s\n00\n" % ("9" * 5000),
                 "k=3\nzz\n", "k=3\n4d0\n",
                 "k=\u0663\n4d\n", "k=4\nff ff\n"):     # once exit 0
        path.write_text(text, encoding="utf-8")
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


def test_oval_convert_names_lines_in_a_lines_file(tmp_path, capsys):
    """A line-oval file with too few or too many lines exits 2 and counts
    lines, not points."""
    path = tmp_path / "lines.json"
    for lines in ([[0, 1], [1, 1]], [[j, 1] for j in range(9)] + [[0, 2], [1, 2]]):
        path.write_text(json.dumps({"kind": "line_oval", "m": 3, "lines": lines}))
        assert cli.main(["oval", "convert", "--m", "3", "--lines-json",
                         str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            f"error: expected q+1 or q+2 lines, got {len(lines)}\n", captured.err
        assert captured.out == ""


def test_oval_convert_names_points_in_a_points_file(tmp_path, capsys):
    """An oval file whose affine points and points at infinity are too few
    or too many exits 2 and counts points, not lines."""
    p = gf.field_make(3)
    circle = [int(u) for u in p.S]
    for points, infinite in ((circle[:2], ()), (circle[:1], (0, 1)),
                             (circle, (0, 1))):
        assert cli.main(["oval", "convert", "--m", "3", "--points-json",
                         _oval_doc(tmp_path, points, infinite)]) == 2
        captured = capsys.readouterr()
        total = len(points) + len(infinite)
        assert captured.err == \
            f"error: expected q+1 or q+2 points, got {total}\n", captured.err
        assert captured.out == ""


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
