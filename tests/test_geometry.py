import math

import numpy as np
import pytest

from ovalbent import boolfn, geometry, gf, niho
from oracles import (bent_from_oval_pointwise, collinear_triples_naive,
                     direction_tag_naive, family_members, fisher_schmidt_naive,
                     line_contains, line_cover_naive, nucleus_witness_naive,
                     oval_from_g_naive, rho_adelaide_naive, rho_subiaco_naive,
                     tag_witness_naive)


def _g(family, m, **kw):
    params = gf.field_make(m)
    return niho.g_of_spec(niho.NihoSpec(family, m, **kw), params), params


def test_circle_is_oval_with_nucleus_zero():
    p = gf.field_make(3)
    pts = [int(u) for u in p.S]
    ok, wit = geometry.verify_oval(pts, p)
    assert ok and wit is None
    ok, wit = geometry.verify_nucleus_zero(pts, p)
    assert ok


def test_line_points_closed_form():
    p = gf.field_make(3)
    for u in p.S:
        for mu in range(p.q):
            ln = geometry.AffineLineK(int(u), mu)
            pts = geometry.line_points(ln, p)
            assert len(pts) == p.q
            assert all(line_contains(ln, x, p) for x in pts)


def _points_by_definition(ln, p):
    return [x for x in range(p.K.size) if line_contains(ln, x, p)]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_coset_log_table_holds_the_lines_through_the_trace(m):
    """Row mu holds the logs of L(1, mu) = {x : T(x) = mu}; only the point
    0 has the sentinel log.  Built once, read-only."""
    p = gf.field_make(m)
    t = p.coset_log_table()
    assert t.shape == (p.q, p.q) and t.dtype == np.int32
    assert p.coset_log_table() is t and not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0] = 0
    assert t[0, 0] == p.K.log[0] and int((t >= p.K.order).sum()) == 1
    pts = np.take(p.K.exp2, t, mode="clip")
    for mu in range(p.q):
        assert sorted(pts[mu].tolist()) == _points_by_definition(
            geometry.AffineLineK(1, mu), p)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_line_point_rows_match_the_definition(m):
    """Random lines plus lines through 0, a repeated line and parallel
    lines (one u, several mu): each row is its line, and the rows count
    the cover of `line_cover_naive`."""
    p = gf.field_make(m)
    rng = np.random.default_rng(50 + m)
    js = rng.integers(0, p.q + 1, size=p.q)
    mus = rng.integers(0, p.q, size=p.q)
    u = int(p.S[js[0]])
    lines = [geometry.AffineLineK(int(p.S[j]), int(mu)) for j, mu in zip(js, mus)]
    lines += [geometry.AffineLineK(u, 0), geometry.AffineLineK(u, 0),
              geometry.AffineLineK(int(p.S[-1]), 0)]
    lines += [geometry.AffineLineK(u, mu) for mu in range(1, min(p.q, 4))]
    rows = geometry.line_point_rows(lines, p)
    assert rows.shape == (len(lines), p.q)
    for ln, row in zip(lines, rows):
        assert sorted(row.tolist()) == _points_by_definition(ln, p), ln
    assert np.array_equal(geometry.line_cover_counts(lines, p),
                          line_cover_naive(lines, p))


def test_dual_lines_to_oval_puts_lines_through_0_at_infinity():
    p = gf.field_make(3)
    lines = [geometry.AffineLineK(int(u), int(j >= 2)) for j, u in enumerate(p.S)]
    oval = geometry.dual_lines_to_oval(lines, p)
    assert oval.infinite == {0, 1}
    assert oval.points == set(geometry.dual_lines_to_points(lines[2:], p))
    with pytest.raises(ValueError):
        geometry.dual_lines_to_oval(lines + lines[:1], p)


def test_collinear_points_rejected_with_witness():
    p = gf.field_make(3)
    line = sorted(geometry.line_points(geometry.AffineLineK(int(p.S[1]), 3), p))
    pts = line + [x for x in range(p.K.size) if x not in line][:1]
    ok, wit = geometry.verify_oval(pts, p)
    assert not ok
    assert wit == tuple(sorted(wit))  # lexicographically smallest triple
    assert set(wit) <= set(line)
    # agree with the naive oracle's smallest triple
    naive = collinear_triples_naive(pts, p)
    assert wit == min(naive)


def test_verify_oval_cardinality_and_distinctness():
    p = gf.field_make(3)
    with pytest.raises(ValueError):
        geometry.verify_oval([1, 2, 3], p)
    with pytest.raises(ValueError):
        geometry.verify_oval([1] * (p.q + 1), p)


def test_infinite_point_rules():
    p = gf.field_make(3)
    # the circle S is an oval; appending the parallel-class tag of one of
    # its secants must break it through the two-affine-one-infinite rule
    pts = sorted(int(u) for u in p.S)[:-1]   # q affine points, still no 3 collinear
    t = geometry.direction_tag(pts[0] ^ pts[1], p)
    ok, wit = geometry.verify_oval(pts, p, infinite=[t])
    assert not ok
    a, b, tag = wit
    assert tag == ("inf", t)
    assert geometry.direction_tag(a ^ b, p) == t
    # a tag hit by no secant direction keeps the configuration an oval
    used = {geometry.direction_tag(x ^ y, p)
            for i, x in enumerate(pts) for y in pts[i + 1:]}
    free = sorted(set(range(p.q + 1)) - used)
    if free:
        ok2, _ = geometry.verify_oval(pts, p, infinite=[free[0]])
        assert ok2


def test_direction_tag_matches_polar_definition():
    for m in (2, 3, 4):
        p = gf.field_make(m)
        for d in range(1, p.K.size):
            assert geometry.direction_tag(d, p) == direction_tag_naive(d, p)
        with pytest.raises(ValueError):
            geometry.direction_tag(0, p)


def _verify_oval_naive(pts, inf, p):
    """Verdict and witness in verify_oval's order, from the oracles."""
    triples = collinear_triples_naive(pts, p)
    if triples:
        return False, min(triples)
    witness = tag_witness_naive(pts, inf, p)
    if witness is not None:
        return False, witness
    if len(inf) >= 3:
        return False, tuple(("inf", t) for t in sorted(inf)[:3])
    return True, None


def test_verify_oval_with_tags_matches_loops():
    # affine parts drawn from a hyperoval (so the tags decide) or from all
    # of K, with 0..3 tags; verdict and witness as the scalar loops give
    rng = np.random.default_rng(9)
    for m, rounds in ((2, 60), (3, 60), (4, 30)):
        p = gf.field_make(m)
        hyperoval = sorted(int(u) for u in p.S) + [0]
        for _ in range(rounds):
            k = int(rng.integers(0, 4))
            n = p.q + int(rng.integers(1, 3)) - k
            pool = hyperoval if rng.random() < 0.7 else range(p.K.size)
            pts = [int(v) for v in rng.choice(pool, size=n, replace=False)]
            inf = [int(t) for t in rng.choice(p.q + 1, size=k, replace=False)]
            assert geometry.verify_oval(pts, p, inf) == \
                _verify_oval_naive(pts, inf, p), (m, pts, inf)


def test_verify_nucleus_zero_matches_scan():
    rng = np.random.default_rng(5)
    for m in (2, 3, 4):
        p = gf.field_make(m)
        circle = [int(u) for u in p.S]
        cases = [circle, circle[::-1], circle[:-1], [0] + circle[1:]]
        for _ in range(30):
            n = p.q + int(rng.integers(0, 3))
            cases.append([int(v) for v in
                          rng.choice(np.arange(1, p.K.size), size=n, replace=False)])
        for pts in cases:
            assert geometry.verify_nucleus_zero(pts, p) == \
                nucleus_witness_naive(pts, p), (m, pts)


def test_three_infinite_points_collinear():
    p = gf.field_make(2)
    ok, wit = geometry.verify_oval([1, 2], p, infinite=[0, 1, 4])
    assert not ok
    assert wit == (("inf", 0), ("inf", 1), ("inf", 4))


def test_dual_points_to_lines_of_circle():
    p = gf.field_make(3)
    lines = geometry.dual_points_to_lines([int(u) for u in p.S], p)
    assert all(ln.mu == 1 for ln in lines)
    assert set(geometry.line_cover_counts(lines, p).tolist()) <= {0, 2}
    ok2, _ = geometry.verify_no_three_concurrent(lines, p)
    assert ok2
    with pytest.raises(ValueError):
        geometry.dual_points_to_lines([0, 1, 2], p)


def test_duality_equivalence_lemma():
    # oval <=> no-three-concurrent of the image lines (both directions)
    rng = np.random.default_rng(17)
    for m, rounds in ((3, 40), (4, 15), (5, 8)):
        p = gf.field_make(m)
        for _ in range(rounds):
            pts = rng.choice(np.arange(1, p.K.size), size=p.q + 1, replace=False)
            pts = [int(v) for v in pts]
            ok_pts, _ = geometry.verify_oval(pts, p)
            lines = geometry.dual_points_to_lines(pts, p)
            ok_lines, _ = geometry.verify_no_three_concurrent(lines, p)
            assert ok_pts == ok_lines, (m, pts)


def test_duality_on_collinear_triple():
    p = gf.field_make(3)
    # three points on one line through a generic point
    ln = geometry.line_points(geometry.AffineLineK(int(p.S[2]), 5), p)
    three = sorted(ln)[:3]
    rest = [x for x in range(1, p.K.size) if x not in three][: p.q - 2]
    pts = three + rest
    ok_pts, _ = geometry.verify_oval(pts, p)
    assert not ok_pts
    lines = geometry.dual_points_to_lines(pts, p)
    ok_lines, wit = geometry.verify_no_three_concurrent(lines, p)
    assert not ok_lines and wit is not None


def test_duality_round_trip_subiaco():
    p = gf.field_make(5)
    oval = geometry.catalog_oval("subiaco", p)
    pts = sorted(oval.points - {0})
    lines = geometry.dual_points_to_lines(pts, p)
    ok, _ = geometry.verify_no_three_concurrent(lines, p)
    assert ok
    back = geometry.dual_lines_to_points(lines, p)
    assert sorted(back) == pts
    ok2, _ = geometry.verify_oval(pts, p)
    assert ok2


def test_oval_from_g_conic():
    g, p = _g("quadratic", 3)
    oval = geometry.oval_from_g(g, p)
    assert oval.points == frozenset(int(u) for u in p.S)
    assert not oval.infinite and oval.nucleus == 0


def test_oval_from_g_zero_count_and_infinite_tags():
    g, p = _g("binomial_3", 3)
    zeros = int((g.values == 0).sum())
    assert zeros == 2
    oval = geometry.oval_from_g(g, p)
    assert len(oval.infinite) == zeros
    assert len(oval.points) == p.q + 1 - zeros
    ok, _ = geometry.verify_oval(oval.points, p, oval.infinite)
    assert ok


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_oval_from_g_matches_formula(m):
    # every family, and a translate by a covered point, which has zeros
    p = gf.field_make(m)
    specs = [niho.NihoSpec("quadratic", m), niho.NihoSpec("binomial_3", m)]
    if m % 2 == 0:
        specs.append(niho.NihoSpec("binomial_1_6", m))
    specs += [niho.NihoSpec("leander_r", m, r=r) for r in range(2, m)
              if math.gcd(r, m) == 1]
    for spec in specs:
        g = niho.g_of_spec(spec, p)
        c = int(np.argmax(niho.line_oval_from_g(g, p).e_table))
        gc = niho.shift_by_linear(g, c, p)
        assert np.any(gc.values == 0)
        for h in (g, gc):
            oval = geometry.oval_from_g(h, p)
            assert (oval.points, oval.infinite) == oval_from_g_naive(h, p), spec
            assert oval.nucleus == 0


def test_oval_from_g_rejects_non_bent():
    p = gf.field_make(3)
    g = niho.UnitCircleMap(3, np.zeros(p.q + 1, dtype=np.int64))
    with pytest.raises(ValueError):
        geometry.oval_from_g(g, p)


def test_affine_translate_count():
    # exactly q(q-1)/2 shifts c make g_c nowhere-zero (affine oval)
    g, p = _g("binomial_3", 3)
    e_table = niho.line_oval_from_g(g, p).e_table
    good = []
    for c in range(p.K.size):
        gc = niho.shift_by_linear(g, c, p)
        if not np.any(gc.values == 0):
            good.append(c)
    assert len(good) == p.q * (p.q - 1) // 2
    assert good == np.flatnonzero(e_table == 0).tolist()
    for c in good[:5]:
        gc = niho.shift_by_linear(g, c, p)
        oval = geometry.oval_from_g(gc, p)
        assert not oval.infinite
        ok, _ = geometry.verify_oval(oval.points, p)
        assert ok


def test_hyperoval_closure_for_bent_g():
    for family, m in [("quadratic", 3), ("binomial_3", 3), ("binomial_3", 4),
                      ("binomial_1_6", 4), ("leander_r", 3)]:
        kw = {"r": 2} if family == "leander_r" else {}
        g, p = _g(family, m, **kw)
        oval = geometry.oval_from_g(g, p)
        ok, wit = geometry.verify_oval(set(oval.points) | {0}, p, oval.infinite)
        assert ok, (family, m, wit)


def test_rho_g_mutual_inverse():
    g, p = _g("quadratic", 3)
    rho = geometry.rho_from_g(g, p)
    assert np.all(rho == 1)
    assert geometry.g_from_rho(rho, p) == g
    gz, _ = _g("binomial_3", 3)
    with pytest.raises(ValueError):
        geometry.rho_from_g(gz, p)


def test_subiaco_identity():
    # 1/rho(u) = 1 + u^5 + conj(u)^5 + u + conj(u) on the whole circle
    for m in (4, 5):
        p = gf.field_make(m)
        rho = geometry.rho_subiaco(p)
        q1 = p.q + 1
        for j in range(q1):
            y5 = int(p.S[(5 * j) % q1])
            y1 = int(p.S[j])
            want = 1 ^ p.trace_rel(y5) ^ p.trace_rel(y1)
            assert p.F.inv(int(rho[j])) == want


def test_subiaco_is_shift_of_binomial3():
    # the Subiaco g' equals the binomial_3 g shifted by c = 1
    g, p = _g("binomial_3", 5)
    gp = geometry.g_from_rho(geometry.rho_subiaco(p), p)
    assert gp == niho.shift_by_linear(g, 1, p)


def test_adelaide_identity():
    p = gf.field_make(4)
    rho = geometry.rho_adelaide(p)
    q1 = p.q + 1
    e = (2 * pow(3, -1, q1)) % q1
    for j in range(q1):
        ye = int(p.S[(e * j) % q1])
        y1 = int(p.S[j])
        want = 1 ^ p.trace_rel(ye) ^ p.trace_rel(y1)
        assert p.F.inv(int(rho[j])) == want
    assert rho[0] == 1
    with pytest.raises(ValueError):
        geometry.rho_adelaide(gf.field_make(3))


@pytest.mark.parametrize("m", range(2, 10))
def test_catalogs_match_scalar_oracles(m):
    """The circle-power catalogs equal their scalar loops, and each
    catalog hyperoval is its point set u * rho(u) (or u + u^3 + u^-3)
    with 0 added."""
    p = gf.field_make(m)
    K, embed, S = p.K, p.embed, p.S.tolist()
    rhos = {"subiaco": rho_subiaco_naive(p)}
    if m % 2 == 0:
        rhos["adelaide"] = rho_adelaide_naive(p)
        assert geometry.rho_adelaide(p).tolist() == rhos["adelaide"]
    assert geometry.rho_subiaco(p).tolist() == rhos["subiaco"]
    for name, rho in rhos.items():
        want = {K.mul(u, int(embed[r])) for u, r in zip(S, rho)} | {0}
        assert geometry.catalog_oval(name, p).points == want, name
    fs = fisher_schmidt_naive(p)
    assert geometry.fisher_schmidt_points(p) == fs
    assert geometry.catalog_oval("fisher_schmidt", p).points == fs | {0}


def test_catalog_hyperovals():
    cases = [("conic_like_S", 3), ("subiaco", 5), ("adelaide", 4),
             ("fisher_schmidt", 3), ("fisher_schmidt", 4), ("fisher_schmidt", 5)]
    for name, m in cases:
        p = gf.field_make(m)
        oval = geometry.catalog_oval(name, p)
        assert len(oval.points) == p.q + 2 and 0 in oval.points
        ok, wit = geometry.verify_oval(oval.points, p, oval.infinite)
        assert ok, (name, m, wit)
    with pytest.raises(ValueError):
        geometry.catalog_oval("nope", gf.field_make(3))


def test_bent_from_oval_recovers_quadratic_family():
    p = gf.field_make(3)
    oval = geometry.Oval(frozenset(int(u) for u in p.S), frozenset(), nucleus=0)
    f = geometry.bent_from_oval(oval, p)
    g, _ = _g("quadratic", 3)
    assert f == niho.bent_from_g(g, p)


def test_bent_from_fisher_schmidt():
    for m in (3, 4):
        p = gf.field_make(m)
        pts = geometry.fisher_schmidt_points(p)
        f = geometry.bent_from_oval(
            geometry.Oval(frozenset(pts), frozenset(), nucleus=0), p)
        assert boolfn.is_bent(f)


@pytest.mark.parametrize("m", range(2, 8))
def test_bent_from_oval_matches_pointwise_fill(m):
    # every family's oval (shifted off the zeros of g when it has any)
    p = gf.field_make(m)
    for spec in family_members(m):
        g = niho.g_of_spec(spec, p)
        if np.any(g.values == 0):
            c = int(np.argmin(niho.line_oval_from_g(g, p).e_table))
            g = niho.shift_by_linear(g, c, p)
        oval = geometry.oval_from_g(g, p)
        f = geometry.bent_from_oval(oval, p)
        assert np.array_equal(f.table,
                              bent_from_oval_pointwise(sorted(oval.points), p))


def test_bent_from_oval_preconditions():
    p = gf.field_make(3)
    pts = frozenset(int(u) for u in p.S)
    with pytest.raises(ValueError):
        geometry.bent_from_oval(geometry.Oval(pts, frozenset(), nucleus=None), p)
    with pytest.raises(ValueError):
        geometry.bent_from_oval(geometry.Oval(pts, frozenset({1}), nucleus=0), p)
    # oval without the tangent property at 0: translate S off the origin
    moved = frozenset(x ^ 3 for x in pts)
    with pytest.raises(ValueError):
        geometry.bent_from_oval(geometry.Oval(moved, frozenset(), nucleus=0), p)


def test_round_trip_oval_bent():
    # for nowhere-zero bent g: bent_from_oval(oval_from_g(g)) = original f
    for family, m in [("quadratic", 3), ("binomial_1_6", 4)]:
        g, p = _g(family, m)
        oval = geometry.oval_from_g(g, p)
        f = geometry.bent_from_oval(oval, p)
        assert f == niho.bent_from_g(g, p)
    # with zeros: shift by c outside E(O) first; recovers f + Tr(cx)
    g, p = _g("binomial_3", 3)
    c = int(np.argmin(niho.line_oval_from_g(g, p).e_table))
    gc = niho.shift_by_linear(g, c, p)
    f2 = geometry.bent_from_oval(geometry.oval_from_g(gc, p), p)
    assert f2 == niho.bent_from_g(gc, p)


def test_tangency_at_zero_for_affine_ovals():
    g, p = _g("binomial_1_6", 4)
    oval = geometry.oval_from_g(g, p)
    ok, _ = geometry.verify_nucleus_zero(oval.points, p)
    assert ok


def test_oval_json_roundtrip():
    p = gf.field_make(3)
    oval = geometry.Oval(frozenset({1, 2, 3}), frozenset({0}), nucleus=0)
    m, back = geometry.oval_from_json(geometry.oval_to_json(oval, p))
    assert m == 3 and back == oval


def test_line_oval_json_roundtrip():
    g, p = _g("binomial_3", 3)
    lines = niho.lines_of_g(g, p)
    text = geometry.line_oval_to_json(lines, p)
    back = geometry.line_oval_from_json(text, p)
    assert sorted(back) == sorted(lines)
