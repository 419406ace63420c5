import tracemalloc

import numpy as np
import pytest

from ovalbent import geometry, gf, kernels, niho, spread, spreadbent
from ovalbent.geometry import AffineLineK
from oracles import (bivariate_fill_naive, bivariate_product_dual_naive,
                     collinear_triples_naive, dot_parity, line_cover_naive,
                     mobius_rows, naive_mobius, naive_walsh, niho_fill_naive,
                     walsh_by_rows, walsh_radix4_rows)

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


@pytest.mark.parametrize("k", range(15))
def test_walsh_inplace_int32_and_int64(k):
    """Every remainder k mod 6 of the digit products, and k < 6 (one
    digit), in both dtypes, against the defining sum and the butterfly."""
    table = np.random.default_rng(100 + k).integers(0, 2, size=1 << k,
                                                    dtype=np.uint8)
    want = naive_walsh(table, dot_parity) if k <= 8 else walsh_by_rows(table)
    butterfly = 1 - 2 * table.astype(np.int64)
    walsh_radix4_rows(butterfly)
    assert np.array_equal(butterfly, want)
    for dtype in (np.int32, np.int64):
        w = 1 - 2 * table.astype(dtype)
        kernels.walsh_inplace(w)
        assert w.dtype == dtype
        assert np.array_equal(w, want), dtype


def _parity(x):
    return (np.bitwise_count(x) & 1).astype(np.int32)


@pytest.mark.parametrize("k", [20, 22, 24])
def test_walsh_inplace_extreme_spectra(k):
    """Closed-form spectra that reach the extreme values, up to the top of
    the float32 range (k = 24): the constants (W = +-2^k at 0), a single
    point a (W(b) = 2^k [b = 0] - 2 (-1)^(a.b)) and the inner-product bent
    function x_lo . x_hi (W(b) = 2^(k/2) (-1)^(b_lo . b_hi)).  The expected
    values are built a chunk of indices at a time."""
    n, h = 1 << k, k // 2
    a = (n - 1) // 3                            # the bits 0101..01
    idx = np.arange(n, dtype=np.int32)
    cases = [
        (np.zeros(n, dtype=np.uint8), lambda b: n * (b == 0)),
        (np.ones(n, dtype=np.uint8), lambda b: -n * (b == 0)),
        ((idx == a).view(np.uint8),
         lambda b: n * (b == 0) - 2 * (1 - 2 * _parity(b & a))),
        (np.bitwise_count(idx & (idx >> h)) & 1,
         lambda b: (1 << h) * (1 - 2 * _parity(b & (b >> h)))),
    ]
    del idx
    for table, spectrum in cases:
        w = 1 - 2 * table.astype(np.int32)
        kernels.walsh_inplace(w)
        for b0 in range(0, n, 1 << 20):
            b = np.arange(b0, b0 + (1 << 20), dtype=np.int32)
            assert np.array_equal(w[b0:b0 + (1 << 20)], spectrum(b)), b0


@pytest.mark.parametrize("k", range(15))
def test_hadamard_digits_in_float64(k):
    """The digit products take the float dtype of their buffers: here
    float64, at small k, all k bits at once, and split into low bits s
    and high bits k - s (the column-chunk call, inner = 2^s)."""
    table = np.random.default_rng(300 + k).integers(0, 2, size=1 << k,
                                                    dtype=np.uint8)
    want = 1 - 2 * table.astype(np.int64)
    walsh_radix4_rows(want)
    signs = 1.0 - 2 * table
    for s in sorted({0, k // 2, k}):
        x, y = signs.copy(), np.empty_like(signs)
        low = kernels._hadamard_digits(x, y, s, 1)
        other = y if low is x else x
        got = kernels._hadamard_digits(low, other, k - s, 1 << s)
        assert got.dtype == np.float64
        assert np.array_equal(got, want), s


def test_walsh_inplace_stops_at_k_24():
    """Above k = 24 float32 is no longer exact, and the transform raises
    before it writes: a writable 2^25-entry view of one int32, with no
    2^25-entry buffer behind it."""
    w = np.lib.stride_tricks.as_strided(np.ones(1, dtype=np.int32),
                                        shape=(1 << 25,), strides=(0,))
    with pytest.raises(ValueError, match="exact up to k = 24"):
        kernels.walsh_inplace(w)


@pytest.mark.parametrize("k", [1, 4, 8])
def test_mobius_inplace(k):
    table = np.random.default_rng(k).integers(0, 2, size=1 << k, dtype=np.uint8)
    t = table.copy()
    kernels.mobius_inplace(t)
    assert np.array_equal(t, naive_mobius(table))


@pytest.mark.parametrize("k", [*range(18), 20])
def test_butterflies_match_row_references(k):
    """Both transforms against the stage-by-stage butterflies: one block
    below k = 17 and several above; for Moebius, no transposed block below
    k = 4, c = 2 to 5 low bits below k = 12 and 6 above."""
    table = np.random.default_rng(200 + k).integers(0, 2, size=1 << k,
                                                    dtype=np.uint8)
    for dtype in (np.int32, np.int64):
        w = 1 - 2 * table.astype(dtype)
        want = w.copy()
        walsh_radix4_rows(want)
        kernels.walsh_inplace(w)
        assert w.dtype == dtype
        assert np.array_equal(w, want), dtype
    t, want = table.copy(), table.copy()
    mobius_rows(want)
    kernels.mobius_inplace(t)
    assert np.array_equal(t, want)


def test_walsh_inplace_holds_no_full_size_copy():
    """At k = 20 the transform holds its two float32 block buffers (2 *
    256 KiB), nothing of the size of the input: far below the bound of a
    quarter-size temporary, one block and 256 KiB of slack."""
    w = np.ones(1 << 20, dtype=np.int32)
    tracemalloc.start()
    try:
        kernels.walsh_inplace(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes // 4 + 4 * kernels.BLOCK_ENTRIES + (256 << 10), peak
    assert w[0] == 1 << 20 and not w[1:].any()


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
                                        p.K.log, p.K.exp2, p.K.order, out)
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
                                            p.K.log, p.K.exp2, p.K.order, out)
            assert np.array_equal(out, want), rows


def _product_dual_maps(m):
    """Bent maps of every family that resolves at m, the first one
    translated to vanish at S[1] (bent, with a zero of g), and seeded
    maps (mostly not bent): one with zeros, one with none, and the
    all-zero map, whose lines all pass through 0."""
    p = gf.field_make(m)
    specs = [niho.NihoSpec(f, m) for f in niho.FAMILIES if f != "leander_r"]
    specs += [niho.NihoSpec("leander_r", m, r=r) for r in range(2, m)
              if np.gcd(r, m) == 1]
    bent = []
    for spec in specs:
        try:
            bent.append(niho.g_of_spec(spec, p).values)
        except ValueError:                      # binomial_1_6 at odd m
            pass
    u1 = int(p.S[1])
    c = p.F.div(int(bent[0][1]), p.trace_rel(u1))         # T(c u1) = g(u1)
    shifted = niho.shift_by_linear(niho.UnitCircleMap(m, bent[0].copy()),
                                   int(p.embed[c]), p).values
    assert shifted[1] == 0
    rng = np.random.default_rng(30 + m)
    zeros = rng.integers(1, p.q, size=p.q + 1)
    zeros[rng.choice(p.q + 1, size=3, replace=False)] = 0
    return p, bent + [shifted], [zeros, rng.integers(1, p.q, size=p.q + 1),
                                 np.zeros(p.q + 1, dtype=np.int64)]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_univariate_product_dual_is_the_uncovered_set(m):
    """The kernel's zeros are the points that no line L(u, g(u)) covers,
    for the lines in circle order and in a seeded shuffled order."""
    p, bent, other = _product_dual_maps(m)
    rng = np.random.default_rng(m)
    for i, gvals in enumerate(bent + other):
        lines = [AffineLineK(int(u), int(g)) for u, g in zip(p.S, gvals)]
        cover = line_cover_naive(lines, p)
        assert set(np.unique(cover)) <= {0, 2} or i >= len(bent)
        want = (cover == 0).astype(np.uint8)
        for order in (np.arange(p.q + 1), rng.permutation(p.q + 1)):
            out = np.full(p.K.size, 7, dtype=np.uint8)
            kernels.univariate_product_dual(
                p.S[order], p.embed[gvals[order]], p.conj_table(), p.K.log,
                p.K.exp2, p.K.order, out)
            assert np.array_equal(out, want), (i, order[:4])


def test_univariate_product_dual_rejects_lines_off_the_circle():
    p = gf.field_make(3)
    g = niho.g_of_spec(niho.NihoSpec("quadratic", 3), p).values
    for off in (p.gamma, 0, int(p.embed[2])):   # log 1, no log, in F - {1}
        s = p.S.copy()
        s[4] = off
        out = np.full(p.K.size, 7, dtype=np.uint8)
        with pytest.raises(ValueError, match="unit circle"):
            kernels.univariate_product_dual(s, p.embed[g], p.conj_table(),
                                            p.K.log, p.K.exp2, p.K.order, out)
        assert (out == 7).all()


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
        kernels.bivariate_table_fill(Q.table, G, Q.b_mask_table(), out)
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
    kernels.bivariate_table_fill(Q.table, G, Q.b_mask_table(), out)
    assert np.array_equal(out, bivariate_fill_naive(Q, G))
    star = spreadbent.star_table(Q)
    out = np.full(Q.size * Q.size, 7, dtype=np.uint8)
    kernels.bivariate_product_dual(star, G, out)
    assert np.array_equal(out, bivariate_product_dual_naive(star, G))


@pytest.mark.parametrize("rows_per_block", [1, 3, 5, 64])
def test_row_counts_match_per_row_bincount(monkeypatch, rows_per_block):
    """Per-block counts of a (size, n) table with n != size, against one
    bincount per row: every block, its first row and a ragged last block."""
    size, n = 23, 37
    data = np.random.default_rng(rows_per_block).integers(
        0, size, size=(size, n)).astype(np.int32)
    data[4] = size - 1                           # one value n times
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows_per_block * size)
    seen = []
    for x0, counts in kernels.row_counts(size, lambda x0, b: data[x0:x0 + b]):
        assert x0 == len(seen) and counts.shape[1] == size
        seen.extend(counts)
    assert len(seen) == size
    for row, counts in zip(data, seen):
        assert np.array_equal(counts, np.bincount(row, minlength=size))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_collinear_scan(m):
    p = gf.field_make(m)
    rng = np.random.default_rng(20 + m)
    sets = [sorted(int(u) for u in p.S)]        # an oval: no triple
    sets += [sorted(rng.choice(p.K.size, size=min(12, p.K.size // 2),
                               replace=False).tolist()) for _ in range(5)]
    for pts in sets:
        i, j, k = kernels.collinear_scan(np.array(pts, dtype=np.int64),
                                         p.conj_table(), p.K.log, p.K.exp2,
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
