import numpy as np
import pytest

from ovalbent import boolfn, geometry, gf, niho
from oracles import (family_members, g_of_spec_naive, line_cover_naive,
                     niho_fill_naive, trace_poly_table)

ALL_SPECS = [
    niho.NihoSpec("quadratic", 2),
    niho.NihoSpec("quadratic", 3),
    niho.NihoSpec("quadratic", 4),
    niho.NihoSpec("binomial_3", 3),
    niho.NihoSpec("binomial_3", 4),
    niho.NihoSpec("binomial_1_6", 4),
    niho.NihoSpec("leander_r", 3, r=2),
    niho.NihoSpec("leander_r", 5, r=2),
]


def _g(spec):
    params = gf.field_make(spec.m)
    return niho.g_of_spec(spec, params), params


def test_spec_validation():
    with pytest.raises(ValueError):
        niho.NihoSpec("binomial_1_6", 3).resolve(gf.field_make(3))
    with pytest.raises(ValueError):
        niho.NihoSpec("leander_r", 4, r=2).resolve(gf.field_make(4))  # gcd
    with pytest.raises(ValueError):
        niho.NihoSpec("leander_r", 5, r=1).resolve(gf.field_make(5))
    with pytest.raises(ValueError):
        niho.NihoSpec("quadratic", 3, a_index=0).resolve(gf.field_make(3))
    with pytest.raises(ValueError):
        niho.NihoSpec("nope", 3).resolve(gf.field_make(3))


def test_default_coefficient_is_smallest_half_trace():
    p = gf.field_make(3)
    a = niho.smallest_half_trace(p)
    assert p.trace_rel(a) == 1
    assert all(p.trace_rel(b) != 1 for b in range(a))


@pytest.mark.parametrize("m", range(2, 10))
def test_smallest_half_trace_matches_scalar_scan(m):
    """The whole-array search equals the scalar scan of trace_rel."""
    p = gf.field_make(m)
    scan = next(a for a in range(p.K.size) if p.trace_rel(a) == 1)
    assert niho.smallest_half_trace(p) == scan


def test_smallest_half_trace_scans_k_once_per_field(monkeypatch):
    p = gf.FieldParams(4)          # a field object no other test has seen
    a = niho.smallest_half_trace(p)
    monkeypatch.setattr(p, "conj_table", lambda: pytest.fail("K scanned again"))
    assert niho.smallest_half_trace(p) == a
    assert niho.NihoSpec("quadratic", 4).resolve(p).a == a


def test_quadratic_g_is_constant_one():
    # a + a^q = 1 makes g identically 1
    g, p = _g(niho.NihoSpec("quadratic", 3))
    assert np.all(g.values == 1)


def test_binomial3_g_formula():
    # g(u) = 1 + u^5 + conj(u)^5, checked against direct K arithmetic
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    for j, u in enumerate(p.S):
        u5 = p.K.pow(int(u), 5)
        want = 1 ^ p.trace_rel(u5)
        assert g.values[j] == want


def test_binomial16_g_formula():
    # g(u) = 1 + u^(2/3) + conj(u)^(2/3) with the exponent mod q+1
    g, p = _g(niho.NihoSpec("binomial_1_6", 4))
    e = (2 * pow(3, -1, p.q + 1)) % (p.q + 1)
    for j, u in enumerate(p.S):
        ue = p.K.pow(int(u), e)
        assert g.values[j] == 1 ^ p.trace_rel(ue)


def test_leander_r2_g_formula():
    # r=2, m odd: g(u) = 1 + u^(1/2) + conj(u)^(1/2)
    g, p = _g(niho.NihoSpec("leander_r", 5, r=2))
    half = pow(2, -1, p.q + 1)
    for j, u in enumerate(p.S):
        uh = p.K.pow(int(u), half)
        assert g.values[j] == 1 ^ p.trace_rel(uh)


def test_leander_closed_form_equals_sum_form():
    for m, r in [(3, 2), (5, 2), (4, 3), (5, 3), (5, 4)]:
        g, p = _g(niho.NihoSpec("leander_r", m, r=r))
        q1 = p.q + 1
        for j in range(q1):
            acc = 1
            for i in range(1, 1 << (r - 1)):
                e_i = (1 - i * pow(1 << (r - 1), -1, q1)) % q1
                y = int(p.S[(j * e_i) % q1])
                acc ^= p.trace_rel(y)
            assert g.values[j] == acc, (m, r, j)


@pytest.mark.parametrize("m", range(2, 8))
def test_g_of_spec_matches_per_point_loop(m):
    p = gf.field_make(m)
    for spec in family_members(m):
        g = niho.g_of_spec(spec, p)
        assert np.array_equal(g.values, g_of_spec_naive(spec.resolve(p), p)), spec


def test_shift_by_linear_matches_scalar_trace():
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    for c in range(p.K.size):
        want = [int(v) ^ p.trace_rel(p.K.mul(c, int(u)))
                for u, v in zip(p.S, g.values)]
        assert niho.shift_by_linear(g, c, p).values.tolist() == want


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_truth_table_matches_trace_polynomial(spec):
    g, p = _g(spec)
    f = niho.bent_from_g(g, p)
    want = trace_poly_table(p, niho.exponents(spec, p))
    assert np.array_equal(f.table, want)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_fill_matches_pointwise_polar_oracle(m):
    # every family, seeded maps with zeros forced in, and the all-zero map
    p = gf.field_make(m)
    rng = np.random.default_rng(m)
    maps = [niho.g_of_spec(spec, p).values for spec in family_members(m)]
    for _ in range(2):
        vals = rng.integers(0, p.q, size=p.q + 1)
        vals[rng.choice(p.q + 1, size=2, replace=False)] = 0
        maps.append(vals)
    maps.append(np.zeros(p.q + 1, dtype=np.int64))
    for vals in maps:
        f = niho.bent_from_g(niho.UnitCircleMap(m, vals), p)
        assert np.array_equal(f.table, niho_fill_naive(vals, p))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_families_are_bent(spec):
    g, p = _g(spec)
    assert boolfn.is_bent(niho.bent_from_g(g, p))


def test_zero_g_gives_zero_function():
    p = gf.field_make(3)
    g = niho.UnitCircleMap(3, np.zeros(p.q + 1, dtype=np.int64))
    f = niho.bent_from_g(g, p)
    assert f.weight() == 0
    with pytest.raises(ValueError):
        niho.line_oval_from_g(g, p)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_e_table_is_the_covered_set(m):
    p = gf.field_make(m)
    for family in ("quadratic", "binomial_3"):
        oval = niho.line_oval_from_g(niho.g_of_spec(niho.NihoSpec(family, m), p), p)
        e = oval.e_table
        assert e.dtype == np.uint8 and e.shape == (p.K.size,)
        assert not e.flags.writeable
        assert oval.e_size() == p.q * (p.q + 1) // 2
        assert np.array_equal(e, line_cover_naive(oval.lines, p) > 0)


def test_one_bentness_guard():
    # every circle-map route that needs bentness raises the guard's error;
    # the product route starts from the LineOval, so the guard is its input
    def product_route(g, p):
        return niho.dual_product_formula(niho.line_oval_from_g(g, p), p)

    p = gf.field_make(4)
    rng = np.random.default_rng(8)
    for vals in (np.zeros(p.q + 1, dtype=np.int64),
                 rng.integers(0, p.q, size=p.q + 1)):
        g = niho.UnitCircleMap(4, vals)
        with pytest.raises(ValueError, match="g is not bent") as want:
            niho.line_oval_from_g(g, p)
        for route in (product_route, geometry.oval_from_g):
            with pytest.raises(ValueError) as got:
                route(g, p)
            assert str(got.value) == str(want.value)


def test_restriction_linearity():
    # lam -> f(lam u) is GF(2)-linear on each ray
    for spec in (niho.NihoSpec("binomial_3", 3), niho.NihoSpec("binomial_3", 4)):
        g, p = _g(spec)
        f = niho.bent_from_g(g, p)
        for u in p.S:
            for l1 in range(p.q):
                for l2 in range(p.q):
                    x1 = p.K.mul(int(p.embed[l1]), int(u))
                    x2 = p.K.mul(int(p.embed[l2]), int(u))
                    x3 = p.K.mul(int(p.embed[l1 ^ l2]), int(u))
                    assert f(x1) ^ f(x2) == f(x3)


def test_line_oval_law_and_witness():
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    oval = niho.line_oval_from_g(g, p)
    assert oval.e_size() == p.q * (p.q + 1) // 2 == 36
    counts = geometry.line_cover_counts(oval.lines, p)
    assert set(np.unique(counts).tolist()) == {0, 2}
    # parallel lines share no point
    l1 = geometry.AffineLineK(int(p.S[2]), 3)
    l2 = geometry.AffineLineK(int(p.S[2]), 5)
    assert not (geometry.line_points(l1, p) & geometry.line_points(l2, p))


def test_n_b_structure():
    # |{u : g(u) + T(ub) = 0}| in {0, 2} for every b  (the proof's count)
    for spec in ALL_SPECS[:4]:
        g, p = _g(spec)
        counts = geometry.line_cover_counts(niho.lines_of_g(g, p), p)
        assert set(np.unique(counts).tolist()) <= {0, 2}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_dual_routes_agree(spec):
    g, p = _g(spec)
    f = niho.bent_from_g(g, p)
    dw = niho.dual_walsh(f, p)
    dp = niho.dual_product_formula(niho.line_oval_from_g(g, p), p)
    assert dw == dp
    # the dual is bent with dual(dual) = f
    masks = p.tr_mask_table()
    assert boolfn.is_bent(dw)
    assert boolfn.dual(dw, masks) == f


def test_dual_zero_set_size():
    g, p = _g(niho.NihoSpec("quadratic", 4))
    d = niho.dual_product_formula(niho.line_oval_from_g(g, p), p)
    assert int((d.table == 0).sum()) == p.q * (p.q + 1) // 2


def test_dual_is_complement_characteristic_of_covered_set():
    # the product dual equals 1 + chi_E(O) pointwise
    for spec in (niho.NihoSpec("binomial_3", 3), niho.NihoSpec("binomial_1_6", 4)):
        g, p = _g(spec)
        d = niho.dual_product_formula(niho.line_oval_from_g(g, p), p)
        e_table = niho.line_oval_from_g(g, p).e_table
        assert np.array_equal(d.table, 1 ^ e_table)


def test_dual_at_zero_iff_g_vanishes():
    g, p = _g(niho.NihoSpec("binomial_3", 3))  # odd m: g has two zeros
    assert int((g.values == 0).sum()) == 2
    d = niho.dual_product_formula(niho.line_oval_from_g(g, p), p)
    assert d(0) == 0
    g2, p2 = _g(niho.NihoSpec("quadratic", 4))  # g = 1, never zero
    assert niho.dual_product_formula(niho.line_oval_from_g(g2, p2), p2)(0) == 1


def test_budaghyan_equals_other_routes():
    for m in (3, 5):
        spec = niho.NihoSpec("leander_r", m, r=2)
        g, p = _g(spec)
        db = niho.dual_budaghyan(spec, p)
        assert db == niho.dual_walsh(niho.bent_from_g(g, p), p)
        assert db == niho.dual_product_formula(niho.line_oval_from_g(g, p), p)


def test_budaghyan_independent_of_e():
    spec = niho.NihoSpec("leander_r", 3, r=2)
    p = gf.field_make(3)
    ref = niho.dual_budaghyan(spec, p)
    es = [e for e in range(p.K.size) if p.trace_rel(e) == 1]
    assert len(es) == p.q
    for e in es:
        assert niho.dual_budaghyan(spec, p, e_index=e) == ref


def test_budaghyan_rejects_odd_r():
    spec = niho.NihoSpec("leander_r", 4, r=3)
    with pytest.raises(ValueError):
        niho.dual_budaghyan(spec, gf.field_make(4))


def test_shift_by_linear_zero_is_identity():
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    assert niho.shift_by_linear(g, 0, p) == g


def test_shift_translates_line_oval():
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    e0 = niho.line_oval_from_g(g, p).e_table
    xs = np.arange(p.K.size)
    for c in (1, 9, 42):
        gc = niho.shift_by_linear(g, c, p)
        ec = niho.line_oval_from_g(gc, p).e_table
        assert np.array_equal(ec[xs ^ c], e0)


def test_shift_adds_linear_term_and_dual_translates():
    g, p = _g(niho.NihoSpec("binomial_3", 4))
    f = niho.bent_from_g(g, p)
    masks = p.tr_mask_table()
    rng = np.random.default_rng(12)
    e0 = niho.line_oval_from_g(g, p).e_table
    xs = np.arange(p.K.size)
    for c in rng.integers(0, p.K.size, size=6):
        c = int(c)
        gc = niho.shift_by_linear(g, c, p)
        fc = niho.bent_from_g(gc, p)
        # f_c = f + Tr(cx)
        lin = [p.K.trace(p.K.mul(c, x)) for x in range(p.K.size)]
        assert np.array_equal(fc.table, f.table ^ np.array(lin, dtype=np.uint8))
        # dual of the shift = complement characteristic of translated E
        dc = boolfn.dual(fc, masks)
        assert np.array_equal(dc.table, 1 ^ e0[xs ^ c])


def test_general_binomial_coefficients():
    # (a + a^q)^2 = alpha2^(q+1) admits alpha2 != 1; Walsh and product
    # routes still agree
    p = gf.field_make(3)
    a = niho.smallest_half_trace(p)  # T(a) = 1, so need N(alpha2) = 1
    alpha2 = int(p.S[2])
    spec = niho.NihoSpec("binomial_3", 3, a_index=a, alpha2_index=alpha2)
    g = niho.g_of_spec(spec, p)
    f = niho.bent_from_g(g, p)
    assert np.array_equal(f.table, trace_poly_table(p, niho.exponents(spec, p)))
    assert boolfn.is_bent(f)
    assert niho.dual_walsh(f, p) == \
        niho.dual_product_formula(niho.line_oval_from_g(g, p), p)
    with pytest.raises(ValueError):
        niho.NihoSpec("binomial_3", 3, a_index=a, alpha2_index=3).resolve(p)


def test_g_table_roundtrip(tmp_path):
    g, p = _g(niho.NihoSpec("binomial_3", 3))
    path = tmp_path / "g.csv"
    niho.save_g_table(g, path)
    assert niho.load_g_table(path, p) == g
    text = path.read_text().splitlines()
    assert text[0] == "u_index,g_index"
    assert len(text) == p.q + 2


def test_g_table_rejects_bad_indices(tmp_path):
    p = gf.field_make(2)            # q = 4: u_index in [0, 4], g_index in [0, 4)
    good = [(j, 1) for j in range(p.q + 1)]
    bad_tables = [good[:-1] + [(-1, 0)],
                  good[:-1] + [(5, 0)],
                  good[:-1] + [(4, 9)],
                  good[:-1] + [(4, 4)],
                  good[:-1] + [(4, -1)],
                  good + [(0, 1)],                # u_index 0 twice
                  good[:-1]]                      # u_index 4 missing
    for rows in bad_tables:
        path = tmp_path / "g.csv"
        path.write_text("u_index,g_index\n"
                        + "".join(f"{j},{v}\n" for j, v in rows))
        with pytest.raises(ValueError):
            niho.load_g_table(path, p)


def test_spec_json_roundtrip():
    spec = niho.NihoSpec("leander_r", 5, r=2)
    assert niho.NihoSpec.from_json(spec.to_json()) == spec
