"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion here is an exact identity (tolerance zero); run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from ovalbent import boolfn, geometry, gf, niho, spread, spreadbent
from ovalbent.gf import BinaryField
from oracles import scalar_table

_T0 = time.perf_counter()

# family/m grid of criterion 1 (and reused by 2-4)
FAMILY_GRID = (
    [("quadratic", m, {}) for m in (2, 3, 4, 5, 6)]
    + [("binomial_3", m, {}) for m in (3, 4, 5, 6)]
    + [("binomial_1_6", m, {}) for m in (4, 6)]
    + [("leander_r", m, {"r": 2}) for m in (3, 5)]
)


def _spec(family, m, kw):
    return niho.NihoSpec(family, m, **kw)


def _g_and_params(family, m, kw):
    p = gf.field_make(m)
    return niho.g_of_spec(_spec(family, m, kw), p), p


def _bivariate_cases():
    Qf3 = spread.field_pqf(3)
    Qf4 = spread.field_pqf(4)
    Qk = spread.kantor_chain(3, [1], [1], [0])
    Qct = spread.transpose_pqf(spread.commutative_from_symplectic(Qk))
    Ql = spread.luneburg(3)
    return [
        ("field m=3, G=sqrt", spreadbent.SpreadBentSpec(
            Qf3, spread.sqrt_diag_g_table(Qf3))),
        ("field m=4, G=sqrt", spreadbent.SpreadBentSpec(
            Qf4, spread.sqrt_diag_g_table(Qf4))),
        ("kantor q=8 commutative-transpose, G=z*z", spreadbent.SpreadBentSpec(
            Qct, spreadbent.g_square_star(Qct))),
        ("luneburg m=3, G=d(M_z)", spreadbent.SpreadBentSpec(
            Ql, spread.sqrt_diag_g_table(Ql))),
    ]


def _report(n, text):
    print(f"[acceptance] criterion {n:>2}: PASS - {text}")


def test_criterion_01_family_bentness():
    for family, m, kw in FAMILY_GRID:
        g, p = _g_and_params(family, m, kw)
        f = niho.bent_from_g(g, p)
        w = boolfn.walsh_transform(f, p.tr_mask_table())
        assert np.all(np.abs(w.values) == 1 << m), (family, m)
    _report(1, f"all {len(FAMILY_GRID)} family instances bent "
               "(|W| = 2^m exactly)")


def test_criterion_02_dual_route_agreement():
    budaghyan_checked = 0
    for family, m, kw in FAMILY_GRID:
        g, p = _g_and_params(family, m, kw)
        dw = niho.dual_walsh(niho.bent_from_g(g, p), p)
        oval = niho.line_oval_from_g(g, p)
        assert dw == niho.dual_product_formula(oval, p), (family, m)
        if family == "leander_r":
            assert dw == niho.dual_budaghyan(_spec(family, m, kw), p), m
            budaghyan_checked += 1
    assert budaghyan_checked == 2
    _report(2, "Walsh dual = product formula on every instance; "
               "= Budaghyan closed form for leander r=2, m=3,5 (exact)")


def test_criterion_03_line_oval_law():
    e_sizes = {}
    for family, m, kw in FAMILY_GRID:
        g, p = _g_and_params(family, m, kw)
        lines = niho.lines_of_g(g, p)
        counts = geometry.line_cover_counts(lines, p)
        assert set(np.unique(counts).tolist()) <= {0, 2}, (family, m)
        e = int((counts > 0).sum())
        assert e == p.q * (p.q + 1) // 2, (family, m)
        e_sizes[m] = e
    assert e_sizes[3] == 36 and e_sizes[4] == 136
    _report(3, "every point on 0 or 2 lines; |E(O)| = q(q+1)/2 "
               "(36 at m=3, 136 at m=4)")


def test_criterion_04_hyperovals_and_translate_count():
    small = [(f, m, kw) for f, m, kw in FAMILY_GRID if m <= 5]
    for family, m, kw in small:
        g, p = _g_and_params(family, m, kw)
        oval = geometry.oval_from_g(g, p)
        ok, wit = geometry.verify_oval(set(oval.points) | {0}, p, oval.infinite)
        assert ok, (family, m, wit)
        # translates giving affine ovals = complement of E(O)
        e_table = niho.line_oval_from_g(g, p).e_table
        good = 0
        for c in range(p.K.size):
            gc = niho.shift_by_linear(g, c, p)
            affine = not np.any(gc.values == 0)
            assert affine == (not e_table[c]), (family, m, c)
            good += affine
        assert good == p.q * (p.q - 1) // 2, (family, m)
    _report(4, f"{len(small)} projective closures pass the exhaustive "
               "hyperoval check; affine translates = q(q-1)/2 exactly")


def test_criterion_05_catalog_identities():
    # Subiaco: 1/rho(u) = 1 + u^5 + conj(u)^5 + u + conj(u) at m=5
    p5 = gf.field_make(5)
    rho = geometry.rho_subiaco(p5)
    for j in range(p5.q + 1):
        y5 = int(p5.S[(5 * j) % (p5.q + 1)])
        y1 = int(p5.S[j])
        want = 1 ^ p5.trace_rel(y5) ^ p5.trace_rel(y1)
        assert p5.F.inv(int(rho[j])) == want
    # Adelaide at m=4
    p4 = gf.field_make(4)
    rho = geometry.rho_adelaide(p4)
    e = (2 * pow(3, -1, p4.q + 1)) % (p4.q + 1)
    for j in range(p4.q + 1):
        ye = int(p4.S[(e * j) % (p4.q + 1)])
        y1 = int(p4.S[j])
        want = 1 ^ p4.trace_rel(ye) ^ p4.trace_rel(y1)
        assert p4.F.inv(int(rho[j])) == want
    # Fisher-Schmidt hyperoval at m=3,4,5; its bent function passes is_bent
    # (bent_from_oval internally asserts the polynomial form table-exactly)
    for m in (3, 4, 5):
        p = gf.field_make(m)
        oval = geometry.catalog_oval("fisher_schmidt", p)
        ok, wit = geometry.verify_oval(oval.points, p, oval.infinite)
        assert ok, (m, wit)
        f = geometry.bent_from_oval(
            geometry.Oval(frozenset(oval.points - {0}), frozenset(), 0), p)
        assert boolfn.is_bent(f), m
    _report(5, "Subiaco (m=5) and Adelaide (m=4) identities; "
               "Fisher-Schmidt hyperoval + bent + polynomial form (m=3,4,5)")


def test_criterion_06_random_shifts():
    rng = np.random.default_rng(2026)
    # univariate: dual of f + Tr(cx) = complement characteristic of E + c
    for family, m in [("binomial_3", 3), ("binomial_3", 4), ("binomial_3", 5)]:
        g, p = _g_and_params(family, m, {})
        e0 = niho.line_oval_from_g(g, p).e_table
        masks = p.tr_mask_table()
        xs = np.arange(p.K.size)
        for c in rng.integers(0, p.K.size, size=20):
            c = int(c)
            gc = niho.shift_by_linear(g, c, p)
            dc = boolfn.dual(niho.bent_from_g(gc, p), masks)
            assert np.array_equal(dc.table, 1 ^ e0[xs ^ c]), (m, c)
    # bivariate: dual of f + tr(ux+vy) = swapped complement of E + (v,u)
    for name, spec in _bivariate_cases()[:2] + _bivariate_cases()[3:]:
        Q = spec.Q
        size = Q.size
        e0 = spreadbent.line_oval_bivariate(spec).e_table.reshape(size, size)
        masks = spreadbent.walsh_masks(Q)
        xs = np.arange(size)
        for _ in range(20):
            u, v = int(rng.integers(size)), int(rng.integers(size))
            f_uv, oval_uv = spreadbent.action_linear_shift(spec, u, v)
            d = boolfn.dual(f_uv, masks)
            shifted = np.zeros_like(e0)
            shifted[np.ix_(xs ^ u, xs ^ v)] = e0
            want = (1 ^ shifted.T).ravel()
            assert np.array_equal(d.table, want), (name, u, v)
    _report(6, "20 seeded shifts per field: shifted duals equal the "
               "translated complement characteristics exactly")


def test_criterion_07_bivariate_chain():
    for name, spec in _bivariate_cases():
        f = spreadbent.bent_bivariate(spec)
        bent = boolfn.is_bent(f)
        crit, wit = spreadbent.bent_criterion(spec)
        oval_ok = True
        try:
            spreadbent.line_oval_bivariate(spec)
        except ValueError:
            oval_ok = False
        assert bent == crit == oval_ok == True, (name, wit)  # noqa: E712
        routes = spreadbent.dual_routes(spec)
        assert routes["walsh_eq_product"] and routes["walsh_eq_chi_swap"], name
    _report(7, "three verdicts and three dual routes agree on field "
               "(m=3,4), Kantor q=8 and Lueneburg m=3 (2^12 points)")


def test_criterion_08_examples_reproduction():
    # the Desarguesian example: f(x,y) = tr(xy) = its own dual
    Qf = spread.field_pqf(3)
    spec = spreadbent.SpreadBentSpec(Qf, spread.sqrt_diag_g_table(Qf))
    f = spreadbent.bent_bivariate(spec)
    F = Qf.field
    txy = np.array([F.trace(F.mul(x, y)) for y in range(8) for x in range(8)],
                   dtype=np.uint8)
    assert np.array_equal(f.table, txy)
    assert spreadbent.dual_walsh(spec) == f
    # Lueneburg m=3: E(O) = zero set of tr(x1 y1 + x2 y2); degree 2; rank 12
    Ql = spread.luneburg(3)
    spec_l = spreadbent.SpreadBentSpec(Ql, spread.sqrt_diag_g_table(Ql))
    oval = spreadbent.line_oval_bivariate(spec_l)
    bb = Ql.b_bit_table()
    quadric = np.array([1 ^ bb[x, y] for y in range(64) for x in range(64)],
                       dtype=np.uint8)
    assert np.array_equal(oval.e_table, quadric)
    f_l = spreadbent.bent_bivariate(spec_l)
    assert boolfn.degree(f_l) == 2
    assert boolfn.quadratic_rank(f_l) == 12
    # certifies EA-equivalence with the Desarguesian function on 12 bits,
    # where the rank is a complete invariant for quadratics
    F6 = BinaryField(6)
    f_d = boolfn.BooleanFunction(
        12, [F6.trace(F6.mul(x, y)) for y in range(64) for x in range(64)])
    assert boolfn.degree(f_d) == 2 and boolfn.quadratic_rank(f_d) == 12
    _report(8, "field gives f = tr(xy) = dual; Lueneburg E(O) = S(q), "
               "degree 2, quadratic rank 12 (EA-equivalent to tr(xy))")


def test_criterion_09_spread_algebra_q8():
    F = BinaryField(3)
    Qf = spread.field_pqf(3)
    Qk = spread.kantor_chain(3, [1], [1], [0])
    Qz = spread.kantor_chain(3, [1], [1], [5])
    Qn = spread.Prequasifield.from_evaluator(
        3, "flat", lambda xs, zs: F.mul_arr(zs, F.mul_arr(xs, xs)), kind="table",
        name="x^2 z")
    assert np.array_equal(Qn.table, scalar_table(lambda x, z: F.mul(z, F.sqr(x)), 8))
    # transpose involution
    for Q in (Qf, Qk, Qz, Qn):
        assert np.array_equal(spread.transpose_pqf(spread.transpose_pqf(Q)).table,
                              Q.table)
    # symplectic <=> Q = Q^t
    for Q, want in [(Qf, True), (Qk, True), (Qz, True), (Qn, False)]:
        self_t = bool(np.array_equal(spread.transpose_pqf(Q).table, Q.table))
        assert spread.is_symplectic(Q) == self_t == want
    # Knuth orbit closure
    items, dtd_eq = spread.knuth_orbit(Qk)
    assert len(items) <= 6 and dtd_eq
    tables = {pq.table.tobytes() for _, pq in items}
    for _, pq in items:
        assert spread.dual_pqf(pq).table.tobytes() in tables
        assert spread.transpose_pqf(pq).table.tobytes() in tables
    # commutative <-> symplectic round trip
    C = spread.commutative_from_symplectic(Qk)
    assert spread.validate_prequasifield(C).is_commutative
    assert np.array_equal(spread.symplectic_from_commutative(C).table, Qk.table)
    _report(9, "transpose involution, symplectic <=> self-transpose, "
               "Knuth closure, commutative<->symplectic round trip at q=8")


def test_criterion_10_invariants_and_runtime():
    # Parseval is asserted inside every transform; exercise on random tables
    rng = np.random.default_rng(0)
    for k in (4, 8, 10):
        boolfn.walsh_transform(
            boolfn.BooleanFunction(k, rng.integers(0, 2, size=1 << k)))
    # sqrt round trip on all of K up to m=5
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        xs = np.arange(p.K.size, dtype=np.int64)
        roots = p.K.pow_table(1 << (p.n - 1))[xs]
        assert np.array_equal(p.K.mul_arr(roots, roots), xs)
    # dual involution on every bent function in the family grid
    for family, m, kw in FAMILY_GRID:
        if m > 5:
            continue
        g, p = _g_and_params(family, m, kw)
        f = niho.bent_from_g(g, p)
        masks = p.tr_mask_table()
        d = boolfn.dual(f, masks)
        assert boolfn.is_bent(d)
        assert boolfn.dual(d, masks) == f
        assert boolfn.degree(f) <= p.n // 2  # classical bound
    elapsed = time.perf_counter() - _T0
    assert elapsed < 120, f"acceptance suite took {elapsed:.1f}s"
    _report(10, f"Parseval/sqrt/dual-involution invariants; criteria 1-10 "
                f"in {elapsed:.1f}s < 120s")
