import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovalbent import boolfn, gf
from oracles import (naive_walsh, dot_parity, quadratic_rank_naive, rank,
                     walsh_radix2_int64)


def test_walsh_constant_zero():
    f = boolfn.BooleanFunction(2, [0, 0, 0, 0])
    w = boolfn.walsh_transform(f)
    assert w.values.tolist() == [4, 0, 0, 0]


def test_walsh_of_field_linear_function():
    p = gf.field_make(3)
    masks = p.tr_mask_table()
    for a in (1, 13, 37):
        tab = [p.K.trace(p.K.mul(a, x)) for x in range(p.K.size)]
        w = boolfn.walsh_transform(boolfn.BooleanFunction(6, tab), masks)
        assert w.values[a] == 64
        assert int(np.abs(w.values).sum()) == 64


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_walsh_matches_naive(bits):
    table = [(bits >> i) & 1 for i in range(16)]
    f = boolfn.BooleanFunction(4, table)
    got = boolfn.walsh_transform(f).values
    assert np.array_equal(got, naive_walsh(table, dot_parity))


def test_walsh_masked_matches_naive_field_inner():
    rng = np.random.default_rng(3)
    p = gf.field_make(2)
    table = rng.integers(0, 2, size=16).tolist()
    f = boolfn.BooleanFunction(4, table)
    got = boolfn.walsh_transform(f, p.tr_mask_table()).values
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


def _tr_xy(m):
    F = gf.field_make(m).F
    q = F.size
    return boolfn.BooleanFunction(
        2 * m, [F.trace(F.mul(x, y)) for y in range(q) for x in range(q)])


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
    d = boolfn.dual(f, spreadbent.walsh_masks(Q))
    assert d == f


def test_dual_involution_and_rejects_non_bent():
    f = _tr_xy(2)
    assert boolfn.dual(boolfn.dual(f)) == f
    with pytest.raises(ValueError):
        boolfn.dual(boolfn.BooleanFunction(2, [0, 0, 0, 0]))


def test_anf_degree_examples():
    assert boolfn.degree(boolfn.BooleanFunction(3, [1] * 8)) == 0
    assert boolfn.degree(_tr_xy(2)) == 2
    lin = boolfn.BooleanFunction(3, [x & 1 for x in range(8)])
    assert boolfn.degree(lin) == 1


@settings(max_examples=50)
@given(st.integers(0, 2**16 - 1))
def test_double_mobius_identity(bits):
    table = [(bits >> i) & 1 for i in range(16)]
    f = boolfn.BooleanFunction(4, table)
    assert boolfn.from_anf(boolfn.anf(f)) == f


def test_add_affine_identity():
    f = _tr_xy(2)
    assert boolfn.add_affine(f, 0, 0) == f
    g = boolfn.add_affine(f, 0b0101, 1)
    assert g != f
    assert boolfn.add_affine(g, 0b0101, 1) == f


def test_compose_linear_identity_and_rejects_singular():
    f = _tr_xy(2)
    assert boolfn.compose_linear(f, [1, 2, 4, 8]) == f
    with pytest.raises(ValueError):
        boolfn.compose_linear(f, [1, 2, 4, 3])  # rank 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 63), min_size=6, max_size=6),
       st.integers(0, 63), st.integers(0, 1))
def test_ea_operations_preserve_bentness(images, mask, const):
    f = _tr_xy(3)
    if rank(images) < 6:
        images = [1, 2, 4, 8, 16, 32]
    g = boolfn.add_affine(boolfn.compose_linear(f, images), mask, const)
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
                 "k=99999999999999999999\n00\n"):
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
