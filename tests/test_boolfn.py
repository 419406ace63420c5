import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalbent import boolfn, gf
from oracles import (anf_degree_naive, compose_linear, naive_mobius, naive_walsh,
                     dot_parity, quadratic_rank_naive, rank, walsh_radix2_int64)


def test_walsh_constant_zero():
    f = boolfn.BooleanFunction(2, [0, 0, 0, 0])
    w = boolfn.walsh_transform(f)
    assert w.values.tolist() == [4, 0, 0, 0]


def test_walsh_of_field_linear_function():
    p = gf.field_make(3)
    masks = p.tr_mask_table()
    for a in (1, 13, 37):
        tab = [p.K.trace(p.K.mul(a, x)) for x in range(p.K.size)]
        w = boolfn.walsh_transform(boolfn.BooleanFunction(6, tab)).values[masks]
        assert w[a] == 64
        assert int(np.abs(w).sum()) == 64


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_walsh_matches_naive(bits):
    table = [(bits >> i) & 1 for i in range(16)]
    f = boolfn.BooleanFunction(4, table)
    w = boolfn.walsh_transform(f)
    got = w.values
    assert np.array_equal(got, naive_walsh(table, dot_parity))
    assert w.is_bent() == bool(np.all(np.abs(got) == 4))


def test_walsh_masked_matches_naive_field_inner():
    rng = np.random.default_rng(3)
    p = gf.field_make(2)
    table = rng.integers(0, 2, size=16).tolist()
    f = boolfn.BooleanFunction(4, table)
    got = boolfn.walsh_transform(f).values[p.tr_mask_table()]
    want = naive_walsh(table, lambda b, x: p.K.trace(p.K.mul(b, x)))
    assert np.array_equal(got, want)


def test_walsh_matches_naive_k12():
    # the defining double sum, vectorized, on one random 2^12-point table
    rng = np.random.default_rng(6)
    k = 12
    table = rng.integers(0, 2, size=1 << k, dtype=np.uint8)
    f = boolfn.BooleanFunction(k, table)
    got = boolfn.walsh_transform(f).values
    xs = np.arange(1 << k, dtype=np.uint64)
    signs = 1 - 2 * table.astype(np.int64)
    for b in rng.integers(0, 1 << k, size=8):
        par = (np.bitwise_count(np.uint64(b) & xs) & 1).astype(np.int64)
        assert got[b] == int(((1 - 2 * par) * signs).sum())


def test_walsh_2_20_matches_int64_radix2_reference():
    """One 2^20-point table (the size of `spread bent` on luneburg:5):
    the int32 radix-4 spectrum equals the int64 radix-2 one."""
    table = np.random.default_rng(20).integers(0, 2, size=1 << 20,
                                               dtype=np.uint8)
    w = boolfn.walsh_transform(boolfn.BooleanFunction(20, table))
    assert w.values.dtype == np.int32
    assert np.array_equal(w.values, walsh_radix2_int64(table))


def test_parseval_accumulates_in_int64_at_k16():
    """The k = 16 inner-product bent function: its sum of squares, 2^32,
    wraps to 0 in an int32 dot product; the construction-time Parseval
    check must hold anyway."""
    xs = np.arange(1 << 16, dtype=np.uint64)
    table = (np.bitwise_count((xs & 0xFF) & (xs >> np.uint64(8))) & 1)
    w = boolfn.walsh_transform(boolfn.BooleanFunction(16, table))
    assert w.values.dtype == np.int32 and w.is_bent()
    assert int(np.dot(w.values, w.values)) != 1 << 32      # the wrap
    assert w.dual() == boolfn.BooleanFunction(16, table)    # self-dual


def test_parseval_check_survives_python_O():
    """`is_bent` reads only the extremes and rests on Parseval, so the
    construction check must raise under -O, which strips `assert`."""
    code = ("import sys, numpy as np\n"
            "from ovalbent import boolfn\n"
            "assert False, 'not run under -O'\n"
            "try:\n"
            "    boolfn.WalshSpectrum(2, np.array([2, 2, 2, 0], dtype=np.int32))\n"
            "except AssertionError as e:\n"
            "    sys.exit(0 if 'Parseval' in str(e) else 1)\n"
            "sys.exit(1)\n")
    src = str(Path(boolfn.__file__).parents[1])
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr


def _tr_xy(m):
    F = gf.field_make(m).F
    q = F.size
    return boolfn.BooleanFunction(
        2 * m, [F.trace(F.mul(x, y)) for y in range(q) for x in range(q)])


def _maiorana_mcfarland(m, rng):
    """x . pi(y) + h(y) on 2m bits (x the low m bits): bent for every
    permutation pi and every h."""
    x, y = np.arange(1 << m), rng.permutation(1 << m)
    dot = np.bitwise_count(x[None, :] & y[:, None]) & 1       # [y, x]
    h = rng.integers(0, 2, size=(1 << m, 1))
    return boolfn.BooleanFunction(2 * m, (dot ^ h).ravel())


@pytest.mark.parametrize("k", range(2, 13))
def test_histogram_matches_unique(k):
    """The bent histogram from one count of negative entries against
    `np.unique` of the spectrum: Maiorana-McFarland functions at even k
    and tr(xy) from k = 4, seeded random tables (not bent) at every k,
    and the
    constant function, whose spectrum takes 0 and 2^k."""
    rng = np.random.default_rng(500 + k)
    fns = [boolfn.BooleanFunction(k, rng.integers(0, 2, size=1 << k)),
           boolfn.BooleanFunction(k, np.ones(1 << k, dtype=np.uint8))]
    if k % 2 == 0:
        fns.append(_maiorana_mcfarland(k // 2, rng))
        assert boolfn.is_bent(fns[-1])
    if k % 2 == 0 and k >= 4:
        fns.append(_tr_xy(k // 2))
    for f in fns:
        spectrum = boolfn.walsh_transform(f)
        vals, counts = np.unique(spectrum.values, return_counts=True)
        want = {int(v): int(c) for v, c in zip(vals, counts)}
        got = spectrum.histogram()
        assert got == want and list(got) == sorted(want)


def test_is_bent_tr_xy():
    assert boolfn.is_bent(_tr_xy(3))


def test_is_bent_rejects_odd_k():
    with pytest.raises(ValueError):
        boolfn.is_bent(boolfn.BooleanFunction(3, [0] * 8))


def test_constant_not_bent():
    assert not boolfn.is_bent(boolfn.BooleanFunction(4, [0] * 16))


def test_dual_tr_xy_is_itself():
    from ovalbent import spread, spreadbent
    f = _tr_xy(3)
    Q = spread.field_pqf(3)
    assert spreadbent.dual_walsh(f, Q) == f


def test_dual_involution_and_rejects_non_bent():
    f = _tr_xy(2)
    assert boolfn.dual(boolfn.dual(f)) == f
    with pytest.raises(ValueError):
        boolfn.dual(boolfn.BooleanFunction(2, [0, 0, 0, 0]))


def test_spectrum_keeps_its_verdict_and_duals_are_read_only():
    """A spectrum is read-only and decides bentness once; its sign duals,
    plain and B-form, are read-only tables of their own.  The constructor
    takes ownership of a uint8 table (kept and made read-only), copies
    any other input and rejects non-bits."""
    from ovalbent import spread, spreadbent
    f = _tr_xy(3)
    s = boolfn.walsh_transform(f)
    assert not s.values.flags.writeable and s._bent is None
    assert s.is_bent() and s._bent is True
    plain = s.dual()
    b_form = spreadbent._b_form_dual(plain, spread.field_pqf(3))
    for d in (plain, b_form):
        assert not d.table.flags.writeable and d.table.dtype == np.uint8
        assert not np.shares_memory(d.table, s.values)
    assert b_form == f
    bits = np.zeros(4, dtype=np.uint8)
    g = boolfn.BooleanFunction(2, bits)
    assert g.table is bits and not bits.flags.writeable
    for other in (np.zeros(4, dtype=np.int32), np.zeros(4, dtype=bool)):
        h = boolfn.BooleanFunction(2, other)
        assert not np.shares_memory(h.table, other) and other.flags.writeable
        assert h.table.dtype == np.uint8 and not h.table.flags.writeable
    # a cast to uint8 once wrapped 256 to 0 and -255 to 1, and cut 0.5 to 0
    for bad in ([2, 0, 0, 0], np.array([0, 0, 0, 255], dtype=np.uint8),
                np.array([256, 0, 0, 1]), np.array([-255, 0, 0, 0]),
                [0.5, 0, 0, 1]):
        with pytest.raises(ValueError):
            boolfn.BooleanFunction(2, bad)
    not_bent = boolfn.walsh_transform(boolfn.BooleanFunction(2, [0, 0, 0, 0]))
    assert not not_bent.is_bent() and not_bent._bent is False
    with pytest.raises(ValueError):
        not_bent.dual()


def test_anf_degree_examples():
    assert boolfn.degree(boolfn.BooleanFunction(3, [1] * 8)) == 0
    assert boolfn.degree(_tr_xy(2)) == 2
    lin = boolfn.BooleanFunction(3, [x & 1 for x in range(8)])
    assert boolfn.degree(lin) == 1


@pytest.mark.parametrize("k", range(17))
def test_anf_degree_matches_popcount_scan(k):
    """The per-byte row/column degree of the packed coefficients against
    the popcount of every nonzero coefficient index: sparse and dense
    random polynomials, the zero polynomial and the single top
    monomial."""
    n = 1 << k
    rng = np.random.default_rng(300 + k)
    top = np.zeros(n, dtype=np.uint8)
    top[-1] = 1
    cases = [np.zeros(n, dtype=np.uint8), top,
             rng.integers(0, 2, size=n, dtype=np.uint8)]
    for density in (1 / n, 4 / n, 0.5 / k if k else 1.0):
        cases.append((rng.random(n) < density).astype(np.uint8))
    for coeffs in cases:
        words = boolfn.packed_words(coeffs)
        assert boolfn.AnfPolynomial(k, words).degree() == \
            anf_degree_naive(coeffs)


@settings(max_examples=50)
@given(st.integers(0, 2**16 - 1))
def test_double_mobius_identity(bits):
    table = [(bits >> i) & 1 for i in range(16)]
    f = boolfn.BooleanFunction(4, table)
    # the Moebius transform is an involution: the ANF's table is f
    assert np.array_equal(naive_mobius(boolfn.anf(f).coeffs), f.table)


def test_add_affine_identity():
    f = _tr_xy(2)
    assert boolfn.add_affine(f, 0, 0) == f
    g = boolfn.add_affine(f, 0b0101, 1)
    assert g != f
    assert boolfn.add_affine(g, 0b0101, 1) == f


def test_compose_linear_identity_and_rejects_singular():
    f = _tr_xy(2)
    assert np.array_equal(compose_linear(f.table, [1, 2, 4, 8]), f.table)
    with pytest.raises(ValueError):
        compose_linear(f.table, [1, 2, 4, 3])  # rank 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 63), min_size=6, max_size=6),
       st.integers(0, 63), st.integers(0, 1))
def test_ea_operations_preserve_bentness(images, mask, const):
    f = _tr_xy(3)
    if rank(images) < 6:
        images = [1, 2, 4, 8, 16, 32]
    g = boolfn.add_affine(
        boolfn.BooleanFunction(f.k, compose_linear(f.table, images)), mask, const)
    assert boolfn.is_bent(g)


def test_quadratic_rank():
    assert boolfn.quadratic_rank(_tr_xy(2)) == 4
    assert boolfn.quadratic_rank(_tr_xy(3)) == 6
    assert boolfn.quadratic_rank(boolfn.BooleanFunction(4, [0] * 16)) == 0
    cubic = boolfn.BooleanFunction(3, [x == 7 for x in range(8)])
    assert boolfn.degree(cubic) == 3
    with pytest.raises(ValueError):
        boolfn.quadratic_rank(cubic)


@pytest.mark.parametrize("k", range(0, 13))
def test_quadratic_rank_matches_scalar_form(k):
    """Random functions of degree <= 2: the k x k gather against the
    entry-by-entry form and its row elimination."""
    rng = np.random.default_rng(k)
    xs = np.arange(1 << k)
    bits = [(xs >> i) & 1 for i in range(k)]
    for _ in range(4):
        t = np.full(1 << k, rng.integers(2), dtype=np.uint8)
        for i in range(k):
            t ^= (rng.integers(2) * bits[i]).astype(np.uint8)
            for j in range(i + 1, k):
                t ^= (rng.integers(2) * bits[i] * bits[j]).astype(np.uint8)
        f = boolfn.BooleanFunction(k, t)
        assert boolfn.quadratic_rank(f) == quadratic_rank_naive(t, k)


def test_quadratic_bent_iff_full_rank():
    # rank is a complete EA-invariant for quadratics; bent <=> rank = k
    f = _tr_xy(2)
    assert boolfn.is_bent(f) and boolfn.quadratic_rank(f) == 4
    g = boolfn.BooleanFunction(4, [(x & 1) & ((x >> 1) & 1) for x in range(16)])
    assert boolfn.degree(g) == 2
    assert boolfn.quadratic_rank(g) == 2
    assert not boolfn.is_bent(g)


def test_truth_table_file_golden():
    # bits 1,0,1,1,0,0,1,0 -> byte 0x4d, little-endian within the byte
    f = boolfn.BooleanFunction(3, [1, 0, 1, 1, 0, 0, 1, 0])
    assert boolfn.dumps_truth_table(f) == "k=3\n4d\n"
    assert boolfn.loads_truth_table("k=3\n4d\n") == f


def test_truth_table_payload_is_exact():
    for k in range(6):
        f = boolfn.BooleanFunction(k, [1] * (1 << k))
        text = boolfn.dumps_truth_table(f)
        assert len(text.split()[1]) == 2 * ((2**k + 7) // 8)
        assert boolfn.loads_truth_table(text) == f
    assert boolfn.loads_truth_table("k=2\n0f\n").table.tolist() == [1] * 4
    for text in ("k=2\nffff\n", "k=2\n1f\n", "k=3\n4d00\n", "k=4\n4d\n",
                 "k=-1\nff\n", "k=+3\n4d\n", "k=3.0\n4d\n",
                 "k=99999999999999999999\n00\n",
                 # a non-ASCII digit in k, whitespace inside the hex
                 "k=\u0663\n4d\n", "k=\uff13\n4d\n", "k=4\nff ff\n",
                 "k=4\nf f\n", "k=4\nff\tff\n"):
        with pytest.raises(ValueError):
            boolfn.loads_truth_table(text)


def test_truth_table_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    f = boolfn.BooleanFunction(5, rng.integers(0, 2, size=32))
    path = tmp_path / "t.txt"
    boolfn.save_truth_table(f, path)
    assert boolfn.load_truth_table(path) == f


def test_immutability():
    f = boolfn.BooleanFunction(2, [0, 1, 0, 1])
    with pytest.raises(ValueError):
        f.table[0] = 1
    with pytest.raises(AttributeError):
        f.k = 3
