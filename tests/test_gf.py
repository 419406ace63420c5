import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalbent import gf, spread
from oracles import (exp_log_naive, field_pair_naive, irreducible_bruteforce,
                     polar_naive, trace_rel_naive)


def test_field_make_range():
    for m in (1, 10, 17, None):
        with pytest.raises(ValueError):
            gf.field_make(m)
    for deg in (0, 19):
        with pytest.raises(ValueError):
            gf.BinaryField(deg)


def test_smallest_irreducible_m2():
    # x^2 + x + 1 is the unique irreducible of degree 2
    assert gf.field_make(2).F.poly == 0b111


def test_smallest_irreducible_m3_matches_bruteforce():
    # lexicographic scan with an independent divisibility test
    expect = next(m for m in range(8, 16) if irreducible_bruteforce(m))
    assert expect == 0b1011
    assert gf.field_make(3).F.poly == expect


def test_poly_k_degree_and_irreducibility():
    p = gf.field_make(3)
    assert p.K.poly.bit_length() - 1 == 6
    assert irreducible_bruteforce(p.K.poly)
    smaller = [m for m in range(1 << 6, p.K.poly) if irreducible_bruteforce(m)]
    assert smaller == []


def test_gamma_is_primitive():
    p = gf.field_make(4)
    order = p.K.order
    seen = set()
    x = 1
    for _ in range(order):
        x = p.K.mul(x, p.gamma)
        seen.add(x)
    assert len(seen) == order


def test_sqrt_roundtrip_exhaustive():
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        for x in range(p.K.size):
            s = p.K.sqrt(x)
            assert p.K.mul(s, s) == x


def test_sqrt_one():
    assert gf.field_make(3).K.sqrt(1) == 1


def test_conjugate_fixed_points_count():
    for m in (2, 3, 4):
        p = gf.field_make(m)
        fixed = sum(1 for x in range(p.K.size) if p.conjugate(x) == x)
        assert fixed == p.q


def test_inv_zero_rejected():
    p = gf.field_make(3)
    with pytest.raises(ZeroDivisionError):
        p.K.inv(0)


def test_field_axioms_exhaustive_small():
    F = gf.field_make(3).F
    for a in range(8):
        for b in range(8):
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(8):
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
    for a in range(1, 8):
        assert F.mul(a, F.inv(a)) == 1


@settings(max_examples=200)
@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_mul_matches_raw(a, b):
    K = gf.field_make(5).K
    assert K.mul(a, b) == K._raw_mul(a, b)


def test_trace_rel_kernel_size():
    p = gf.field_make(3)
    ker = [x for x in range(p.K.size) if p.trace_rel(x) == 0]
    assert len(ker) == p.q


def test_trace_rel_lands_in_subfield():
    p = gf.field_make(4)
    for x in range(p.K.size):
        t = x ^ p.conjugate(x)
        assert p.in_subfield(t)
        assert int(p.embed[p.trace_rel(x)]) == t


def test_trace_abs_balanced():
    for m in (2, 3, 4, 5):
        F = gf.field_make(m).F
        ones = sum(F.trace(x) for x in range(F.size))
        assert ones == 1 << (m - 1)


def test_norm_rel_on_circle():
    p = gf.field_make(3)
    for u in p.S:
        assert p.norm_rel(int(u)) == 1


def test_unit_circle_size():
    assert len(gf.field_make(2).S) == 5
    assert len(gf.field_make(3).S) == 9


def test_unit_circle_meets_subfield_in_one():
    for m in (2, 3, 4):
        p = gf.field_make(m)
        inside = [int(u) for u in p.S if p.in_subfield(int(u))]
        assert inside == [1]


def test_unit_circle_ordering():
    p = gf.field_make(3)
    step = p.K.pow(p.gamma, p.q - 1)
    for j, u in enumerate(p.S):
        assert int(u) == p.K.pow(step, j)


def _polar(p, x):
    """(lam, u) with x = lam * u, lam an F-index and u on the circle."""
    lam, j = p.polar([x])
    return int(lam[0]), int(p.S[j[0]])


def test_polar_identity_cases():
    p = gf.field_make(3)
    assert _polar(p, 1) == (1, 1)
    for a in range(1, p.q):
        lam, u = _polar(p, int(p.embed[a]))
        assert (lam, u) == (a, 1)


def test_polar_roundtrip_exhaustive():
    p = gf.field_make(3)
    for x in range(1, p.K.size):
        lam, u = _polar(p, x)
        assert p.K.mul(int(p.embed[lam]), u) == x
    with pytest.raises(ValueError):
        p.polar([0])


def test_polar_uniqueness():
    # every nonzero x arises from exactly one (lam, u) pair
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        seen = {}
        for lam in range(1, p.q):
            for u in p.S:
                x = p.K.mul(int(p.embed[lam]), int(u))
                assert x not in seen
                seen[x] = (lam, int(u))
        assert len(seen) == p.K.size - 1
        for x, (lam, u) in seen.items():
            assert _polar(p, x) == (lam, u)


def test_embedded_subfield_closed():
    for m in (2, 3, 4):
        p = gf.field_make(m)
        sub = set(int(v) for v in p.embed)
        for a in range(p.q):
            for b in range(p.q):
                ea, eb = int(p.embed[a]), int(p.embed[b])
                assert (ea ^ eb) in sub
                assert p.K.mul(ea, eb) == int(p.embed[p.F.mul(a, b)])


def test_project_inverts_embed():
    p = gf.field_make(5)
    for a in range(p.q):
        assert p.project_table()[int(p.embed[a])] == a


def test_unit_class_table():
    p = gf.field_make(3)
    ucls = p.unit_class_table()
    assert ucls[0] == -1
    for x in range(1, p.K.size):
        assert int(p.S[ucls[x]]) == _polar(p, x)[1]


def test_polar_log_table_recomposes_every_nonzero_x():
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        t = p.polar_log_table()
        assert t.dtype == np.int16 and not t.flags.writeable and t[0] == 0
        xs = np.arange(1, p.K.size)
        lam = p.embed[p.F.exp[t[xs]]]
        assert np.array_equal(p.K.mul_arr(lam, p.S[p.unit_class_table()[xs]]), xs)


def test_polar_matches_norm_square_root():
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        xs = np.arange(1, p.K.size)
        lam, j = p.polar(xs)
        want = [polar_naive(int(x), p) for x in xs]
        assert lam.tolist() == [w[0] for w in want]
        assert p.S[j].tolist() == [w[1] for w in want]
        with pytest.raises(ValueError):
            p.polar([1, 0, 2])


def test_line_trace_basis_matches_scalar_trace():
    for m in (2, 3, 4):
        p = gf.field_make(m)
        want = [[trace_rel_naive(p.K.mul(int(u), 1 << i), p) for i in range(p.n)]
                for u in p.S]
        assert p.line_trace_basis().tolist() == want


@pytest.mark.parametrize("m", range(2, 6))
def test_trace_rel_arr_matches_scalar_trace(m):
    p = gf.field_make(m)
    want = [trace_rel_naive(x, p) for x in range(p.K.size)]
    assert p.trace_rel_arr(np.arange(p.K.size)).tolist() == want
    assert p.trace_rel_arr(np.arange(p.K.size).reshape(-1, 4)).ravel().tolist() == want
    assert [p.trace_rel(x) for x in range(p.K.size)] == want


@pytest.mark.parametrize("m", range(2, 8))
def test_circle_pow_matches_scalar_pow(m):
    p = gf.field_make(m)
    q1 = p.q + 1
    for e in (0, 1, 3, -3, 5, q1, q1 + 2, pow(2, -1, q1), 7 * q1 - 1):
        want = [p.K.pow(int(u), e) for u in p.S]
        assert p.circle_pow(e).tolist() == want, e


def test_div_arr_matches_scalar_div():
    for deg in (1, 2, 3, 6):
        B = gf.binary_field(deg)
        a = np.repeat(np.arange(B.size), B.order)
        b = np.tile(np.arange(1, B.size), B.size)
        want = [B.div(int(x), int(y)) for x, y in zip(a, b)]
        assert B.div_arr(a, b).tolist() == want
        with pytest.raises(ZeroDivisionError):
            B.div_arr(np.array([1, 1]), np.array([1, 0]))
        with pytest.raises(ZeroDivisionError):
            B.div_arr(np.array([0]), np.array([0]))


def test_pow_table_matches_scalar_pow():
    # 0^e is 1 only for e = 0, also where the group order divides e
    for deg in (1, 2, 3, 4):
        B = gf.binary_field(deg)
        for e in range(-2, 3 * B.order + 1):
            t = B.pow_table(e)
            start = 1 if e < 0 else 0
            assert t[start:].tolist() == [B.pow(x, e) for x in range(start, B.size)]


def test_tr_mask_table_realizes_trace():
    p = gf.field_make(3)
    masks = p.tr_mask_table()
    for b in range(p.K.size):
        for x in range(p.K.size):
            assert ((int(masks[b]) & x).bit_count() & 1) == \
                p.K.trace(p.K.mul(b, x))


def test_exp_log_tables_match_stepped_powers():
    for deg in range(1, 19):
        B = gf.binary_field(deg)
        exp, log = exp_log_naive(B.poly, B.generator)
        assert np.array_equal(B.exp, exp) and np.array_equal(B.log, log)
        assert B.log[0] == 0
        assert not B.exp.flags.writeable and not B.log.flags.writeable


def test_index_tables_are_int32():
    """One dtype for every index table, field and carrier alike: int32
    (every index is below 2^24), with today's read-only flags kept."""
    p = gf.field_make(9)
    tables = {"K.exp": p.K.exp, "K.log": p.K.log, "conj": p.conj_table(),
              "unit class": p.unit_class_table(), "project": p.project_table(),
              "dot mask": p.K.dot_mask_table()}
    read_only = [p.K.exp, p.K.log]
    for Q in (spread.field_pqf(3), spread.luneburg(3)):
        F = Q.field
        tables.update({f"{Q.kind} {name}": t for name, t in (
            ("F.exp", F.exp), ("F.log", F.log), ("dot mask", F.dot_mask_table()),
            ("table", Q.table), ("transpose", Q.transposed().table),
            ("B masks", Q.b_mask_table()), ("B mask inverse", Q.b_mask_inverse()))})
        read_only += [F.exp, F.log, Q.table, Q.transposed().table]
    for name, t in tables.items():
        assert t.dtype == np.int32, name
    assert not any(t.flags.writeable for t in read_only)


def _field_pair_matches(m):
    p = gf.field_make(m)
    sub, embed, circle, ucls = field_pair_naive(p)
    assert sorted(p.embed.tolist()) == sub
    assert np.array_equal(p.embed, embed)
    assert np.array_equal(p.S, circle)
    assert np.array_equal(p.unit_class_table(), ucls)


def test_field_pair_matches_element_by_element_construction():
    for m in range(2, 9):
        _field_pair_matches(m)


# ---------------------------------------------------------------------------
# the top of the domain, where int32 log products would wrap: the oracles
# step through the powers and never read the tables they check
# ---------------------------------------------------------------------------

def test_unit_classes_at_m9_match_element_by_element_construction():
    """m = 9, where log * (q-1)^-1 mod q+1 is reduced before it multiplies."""
    _field_pair_matches(9)


def test_powers_at_degree_18_match_stepped_powers():
    """log * e passes 2^31 at degree 18 for these e: pow_table widens to
    int64 and scalar pow works on Python ints."""
    B = gf.binary_field(18)
    exp, log = exp_log_naive(B.poly, B.generator)
    xs = np.random.default_rng(18).integers(1, B.size, size=300)
    for e in (B.order - 1, -1, (1 << 17) + 3):
        want = np.zeros(B.size, dtype=np.int64)
        want[1:] = exp[log[1:] * e % B.order]
        got = B.pow_table(e)
        assert got.dtype == np.int32 and np.array_equal(got, want), e
        assert [B.pow(int(x), e) for x in xs] == want[xs].tolist(), e


def test_non_primitive_generator_rejected(monkeypatch):
    # deg 4: 8 of the 16 elements generate GF(16)*; the rest must fail the
    # order and distinctness checks of the table build
    built = []
    for c in range(16):
        monkeypatch.setattr(gf.BinaryField, "_find_generator", lambda self: c)
        try:
            B = gf.BinaryField(4)
        except AssertionError:
            continue
        assert len(set(exp_log_naive(B.poly, c)[0].tolist())) == 15
        built.append(c)
    assert len(built) == 8
