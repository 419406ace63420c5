import numpy as np
import pytest

from ovalbent import geometry, gf, kernels, niho, spread, spreadbent
from ovalbent.geometry import AffineLineK
from oracles import (bivariate_fill_naive, bivariate_product_dual_naive,
                     collinear_triples_naive, dot_parity, line_cover_naive,
                     naive_mobius, naive_walsh, niho_fill_naive, walsh_by_rows)

SPECS = [niho.NihoSpec("quadratic", 2), niho.NihoSpec("binomial_1_6", 2),
         niho.NihoSpec("quadratic", 3), niho.NihoSpec("binomial_3", 3),
         niho.NihoSpec("leander_r", 3, r=2), niho.NihoSpec("quadratic", 4),
         niho.NihoSpec("binomial_3", 4), niho.NihoSpec("binomial_1_6", 4),
         niho.NihoSpec("binomial_3", 5), niho.NihoSpec("leander_r", 5, r=2)]


def _circle_maps(m, seed):
    """Family circle maps at m plus two random (mostly non-bent) ones."""
    p = gf.field_make(m)
    rng = np.random.default_rng(seed)
    maps = [niho.g_of_spec(s, p).values for s in SPECS if s.m == m]
    maps += [rng.integers(0, p.q, size=p.q + 1) for _ in range(2)]
    return p, maps


def _incidence_maps(m):
    """Circle maps for the incidence kernels: `_circle_maps` plus the
    all-zero map (every line through 0, mu = 0); at odd m the binomial_3
    map has zeros of its own."""
    p, maps = _circle_maps(m, seed=10 + m)
    if m % 2:
        assert not niho.g_of_spec(niho.NihoSpec("binomial_3", m), p).values.all()
    return p, maps + [np.zeros(p.q + 1, dtype=np.int64)]


def _carriers():
    return [spread.field_pqf(m) for m in (2, 3, 4)] + [spread.luneburg(3)]


@pytest.mark.parametrize("k", [1, 4, 8])
def test_walsh_inplace(k):
    table = np.random.default_rng(k).integers(0, 2, size=1 << k, dtype=np.uint8)
    w = 1 - 2 * table.astype(np.int64)
    kernels.walsh_inplace(w)
    assert np.array_equal(w, naive_walsh(table, dot_parity))


@pytest.mark.parametrize("k", range(13))
def test_walsh_inplace_int32_and_int64(k):
    """Radix-4 passes plus the radix-2 tail at odd k, in both dtypes."""
    table = np.random.default_rng(100 + k).integers(0, 2, size=1 << k,
                                                    dtype=np.uint8)
    want = naive_walsh(table, dot_parity) if k <= 8 else walsh_by_rows(table)
    for dtype in (np.int32, np.int64):
        w = 1 - 2 * table.astype(dtype)
        kernels.walsh_inplace(w)
        assert w.dtype == dtype
        assert np.array_equal(w, want), dtype


@pytest.mark.parametrize("k", [1, 4, 8])
def test_mobius_inplace(k):
    table = np.random.default_rng(k).integers(0, 2, size=1 << k, dtype=np.uint8)
    t = table.copy()
    kernels.mobius_inplace(t)
    assert np.array_equal(t, naive_mobius(table))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_niho_table_fill(m):
    p, maps = _circle_maps(m, seed=m)
    for gvals in maps:
        out = np.full(p.K.size, 7, dtype=np.uint8)
        kernels.niho_table_fill(p.S, gvals, p.embed, p.K.log, p.K.exp, p.K.order,
                                p.F.log, p.F.exp, p.F.order, p.F.trace_table(),
                                out)
        assert np.array_equal(out, niho_fill_naive(gvals, p))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_line_cover_counts_and_univariate_product_dual(m):
    p, maps = _incidence_maps(m)
    for gvals in maps:
        lines = [AffineLineK(int(u), int(g)) for u, g in zip(p.S, gvals)]
        want = line_cover_naive(lines, p)
        counts = kernels.line_cover_counts(geometry.line_point_rows(lines, p), p.n)
        assert np.array_equal(counts, want)
        out = np.full(p.K.size, 7, dtype=np.uint8)
        kernels.univariate_product_dual(p.S, p.embed[gvals], p.conj_table(),
                                        p.K.log, p.K.exp, p.K.order, out)
        assert np.array_equal(out, (want == 0).astype(np.uint8))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_univariate_product_dual_in_blocks_of_u_rows(monkeypatch, m):
    """One and three u rows per block, the last block ragged at m = 4, 5;
    the maps include zeros of g."""
    p, maps = _incidence_maps(m)
    for gvals in maps:
        lines = [AffineLineK(int(u), int(g)) for u, g in zip(p.S, gvals)]
        want = (line_cover_naive(lines, p) == 0).astype(np.uint8)
        for rows in (1, 3):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * (p.q + 1))
            assert len(list(kernels.row_blocks(p.q + 1))) == -(-(p.q + 1) // rows)
            out = np.full(p.K.size, 7, dtype=np.uint8)
            kernels.univariate_product_dual(p.S, p.embed[gvals], p.conj_table(),
                                            p.K.log, p.K.exp, p.K.order, out)
            assert np.array_equal(out, want), rows


def test_line_cover_counts_repeated_directions():
    for m in (2, 3, 4, 5):
        p = gf.field_make(m)
        rng = np.random.default_rng(m)
        js = rng.integers(0, p.q + 1, size=2 * p.q)
        mus = rng.integers(0, p.q, size=2 * p.q)
        mus[:3] = 0                                  # lines through 0
        lines = [AffineLineK(int(p.S[j]), int(mu)) for j, mu in zip(js, mus)]
        counts = kernels.line_cover_counts(geometry.line_point_rows(lines, p), p.n)
        assert np.array_equal(counts, line_cover_naive(lines, p))


@pytest.mark.parametrize("Q", _carriers(), ids=lambda Q: f"{Q.name}:{Q.m}")
def test_bivariate_kernels(Q):
    rng = np.random.default_rng(Q.size)
    for G in (spread.sqrt_diag_g_table(Q), rng.permutation(Q.size),
              rng.integers(0, Q.size, size=Q.size)):
        out = np.full(Q.size * Q.size, 7, dtype=np.uint8)
        kernels.bivariate_table_fill(Q.table, G, Q.b_bit_table(), out)
        assert np.array_equal(out, bivariate_fill_naive(Q, G))
        star = spreadbent.star_table(Q)
        out = np.full(Q.size * Q.size, 7, dtype=np.uint8)
        kernels.bivariate_product_dual(star, G, out)
        assert np.array_equal(out, bivariate_product_dual_naive(star, G))


def test_bivariate_kernels_in_small_blocks(monkeypatch):
    """Blocks of five rows with a ragged last block give the same tables."""
    Q = spread.luneburg(3)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 5 * Q.size)
    assert [xs.shape[0] for _, xs in kernels.row_blocks(Q.size)] == [5] * 12 + [4]
    G = np.random.default_rng(1).permutation(Q.size)
    out = np.full(Q.size * Q.size, 7, dtype=np.uint8)
    kernels.bivariate_table_fill(Q.table, G, Q.b_bit_table(), out)
    assert np.array_equal(out, bivariate_fill_naive(Q, G))
    star = spreadbent.star_table(Q)
    out = np.full(Q.size * Q.size, 7, dtype=np.uint8)
    kernels.bivariate_product_dual(star, G, out)
    assert np.array_equal(out, bivariate_product_dual_naive(star, G))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_collinear_scan(m):
    p = gf.field_make(m)
    rng = np.random.default_rng(20 + m)
    sets = [sorted(int(u) for u in p.S)]        # an oval: no triple
    sets += [sorted(rng.choice(p.K.size, size=min(12, p.K.size // 2),
                               replace=False).tolist()) for _ in range(5)]
    for pts in sets:
        i, j, k = kernels.collinear_scan(np.array(pts, dtype=np.int64),
                                         p.conj_table(), p.K.log, p.K.exp,
                                         p.K.order)
        bad = collinear_triples_naive(pts, p)
        got = None if i < 0 else (pts[i], pts[j], pts[k])
        assert got == (bad[0] if bad else None)


def test_linear_map_table():
    images = [3, 5, 9]
    t = kernels.linear_map_table(images, 3)
    for x in range(8):
        want = 0
        for i in range(3):
            if (x >> i) & 1:
                want ^= images[i]
        assert t[x] == want
    # images with a trailing axis: the tables of several maps in one call
    batch = np.array([[3, 1, 0], [5, 2, 7], [9, 4, 7]])
    tables = kernels.linear_map_table(batch, 3)
    assert tables.shape == (8, 3)
    for c in range(3):
        assert np.array_equal(tables[:, c], kernels.linear_map_table(batch[:, c], 3))
