"""Hot numeric kernels on plain numpy arrays.

Each kernel has one numpy implementation.  All field multiplications
inside kernels go through log/exp tables, so kernels only ever see plain
numpy arrays and ints.  The kernels that do their own log arithmetic
take the doubled antilog table `BinaryField.exp2` in their `exp_k`
position (the product rule of `gf`): the product sums log u + log v of
`univariate_product_dual` and the quotient sums log d1 + ord - log d2
of `collinear_scan` stay below 2 ord and index it with no modulo.  Index
tables and index arithmetic are int32 (every index is below 2^24, and
every log sum below 2^31), except the product sums log u + log v, which
are intp, the index dtype of numpy's fast gather path.  The univariate
incidence kernels use closed forms: the line cover counts the
rows of `geometry.line_point_rows`, each the log of u^q plus a row of
the per-field coset log table (`FieldParams.coset_log_table`) read
through one clipped gather, and the product dual works ray by ray.
The Walsh and Moebius butterflies never run a numpy operation
over short rows: the stages of the low index bits, whose rows would be
2 to 32 entries long, run on a transposed copy of each block of
`BLOCK_ENTRIES` entries, where they are stages over rows of at least
2^(k/2) entries (1024 from k = 16 on), and the other stages run in
place.  Every per-row value histogram of a square table is counted by
`row_counts`, one bincount per block of rows (`row_blocks`): the spread
cover, the spread-bent criterion and the line-oval cover, so none of
them holds a count array over the whole plane.  Per-kernel time and
work on real workloads come from
`python3 perfbench/run.py --workload W --trace 1`.
"""

from __future__ import annotations

import numpy as np

# entries per block of rows in whole-array table code: large enough that
# the per-block Python cost vanishes, small enough that the temporaries of
# a dim-12 carrier stay far below its 64 MB int32 table
BLOCK_ENTRIES = 1 << 16


def row_blocks(size: int):
    """(x0, xs) over 0..size-1 in blocks of consecutive rows of a
    (size, size) table: xs is the int32 column (b, 1) of x0..x0+b-1, with
    b * size about BLOCK_ENTRIES."""
    rows = max(1, BLOCK_ENTRIES // size)
    for x0 in range(0, size, rows):
        yield x0, np.arange(x0, min(x0 + rows, size), dtype=np.int32)[:, None]


def row_counts(size: int, rows):
    """(x0, counts) per block of `row_blocks(size)`: counts[i, v] is the
    number of entries v (0 <= v < size) in row i of the (b, n) block
    rows(x0, b).  The block is packed at local index i*size + v and
    counted by one bincount, so no count array outlives its block.  The
    block is packed straight into intp, the dtype bincount casts its
    input to, which skips an int32 temporary."""
    for x0, xs in row_blocks(size):
        b = xs.shape[0]
        local = np.add(rows(x0, b), size * (xs - x0), dtype=np.intp)
        yield x0, np.bincount(local.ravel(), minlength=b * size).reshape(b, size)


def _low_bits_transposed(w: np.ndarray, stages) -> int:
    """Run the butterfly stages of the low c index bits of w block by block
    on a transposed copy, where they are stages over long rows; returns
    C = 2^c, the row length of the first stage left to run in place.

    Index bit i < c of a block of B = min(BLOCK_ENTRIES, n) entries viewed
    as (R, C) is bit i of the column; in the (C, R) transpose it is the
    stage h = R * 2^i.  c is min(6, k // 2) rounded down to even: c <= k/2
    keeps R >= C, and an even c leaves the Walsh stages of the block all
    radix 4.  Besides the stages' own temporaries, the only memory is one
    block-sized buffer."""
    n = w.shape[0]
    cols = 1 << (min(6, (n.bit_length() - 1) // 2) & ~1)
    if cols == 1:
        return 1
    block = min(BLOCK_ENTRIES, n)
    rows = block // cols
    buf = np.empty((cols, rows), dtype=w.dtype)
    flat = buf.reshape(-1)
    for b0 in range(0, n, block):
        v = w[b0:b0 + block].reshape(rows, cols)
        buf[...] = v.T
        stages(flat, rows)
        v[...] = buf.T
    return cols


def _walsh_stages(w: np.ndarray, h: int) -> None:
    """Walsh stages h, 2h, .., n/2 of w in place: radix-4 passes over the
    quarter blocks a0..a3, then one radix-2 stage if an odd count is left."""
    n = w.shape[0]
    t = np.empty(n // 4, dtype=w.dtype)     # one temporary quarter, reused
    while 4 * h <= n:
        v = w.reshape(-1, 4, h)
        a0, a1, a2, a3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        d = t.reshape(-1, h)
        np.subtract(a0, a1, out=d)          # d  = a0 - a1
        a0 += a1                            # a0 = a0 + a1
        np.subtract(a2, a3, out=a1)         # a1 = a2 - a3
        a2 += a3                            # a2 = a2 + a3
        np.subtract(d, a1, out=a3)          # a0 - a1 - a2 + a3
        np.add(d, a1, out=a1)               # a0 - a1 + a2 - a3
        np.subtract(a0, a2, out=d)          # a0 + a1 - a2 - a3
        a0 += a2                            # a0 + a1 + a2 + a3
        a2[...] = d
        h *= 4
    if h < n:
        a, b = w.reshape(2, h)
        np.subtract(a, b, out=b)      # b <- a - b
        a *= 2
        a -= b                        # a <- 2a - (a - b) = a + b, no temporary


def walsh_inplace(w: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly on a length-2^k signed vector.

    The low index bits run on transposed blocks (`_low_bits_transposed`),
    the rest in place, in radix-4 passes plus one radix-2 stage at odd k.
    The stages commute, and every intermediate,
    including the 2a of a radix-2 stage, is bounded by the final
    |entry| <= n, so any signed dtype that holds n is exact.
    """
    _walsh_stages(w, _low_bits_transposed(w, _walsh_stages))


def _mobius_stages(t: np.ndarray, h: int) -> None:
    """Moebius stages h, 2h, .., n/2 of t in place: the upper half of each
    2h row gets the XOR of its lower half."""
    n = t.shape[0]
    while h < n:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


def mobius_inplace(t: np.ndarray) -> None:
    """In-place Moebius (XOR) butterfly on a length-2^k uint8 vector: the
    low index bits on transposed blocks, the rest in place."""
    _mobius_stages(t, _low_bits_transposed(t, _mobius_stages))


# no library caller since `niho.bent_from_g` became one gather; kept for
# perfbench/tracing.py, which wraps it by name
def niho_table_fill(s, gvals, embed, log_k, exp_k, ord_k,
                    log_f, exp_f, ord_f, tr_f, out) -> None:
    """Truth table of f(lam*u) = tr(lam*g(u)) over all of K, f(0)=0."""
    lams = np.arange(1, embed.shape[0], dtype=np.int32)
    log_lam_k = log_k[embed[lams]]
    log_lam_f = log_f[lams]
    for j in range(s.shape[0]):
        xs = exp_k[(log_lam_k + log_k[s[j]]) % ord_k]
        g = gvals[j]
        if g == 0:
            out[xs] = 0
        else:
            out[xs] = tr_f[exp_f[(log_lam_f + log_f[g]) % ord_f]]
    out[0] = 0


def univariate_product_dual(s, g_embedded, conj, log_k, exp_k, ord_k,
                            out) -> None:
    """Dual via the product formula: 0 iff some T(u x) + g(u) vanishes.

    For x = lam v (lam in F*, v on the circle) the factor at u is
    lam T(uv) + g(u), and T(uv) = 0 only for uv = 1.  So each pair with
    uv != 1 and g(u) != 0 zeroes the one point g(u) / T(uv) v, and each u
    with g(u) = 0 zeroes x = 0 and the whole ray through 1/u.  The pairs
    run in blocks of u rows (`row_blocks`).  exp_k is the doubled antilog
    table (`BinaryField.exp2`): the sums log u + log v and the ray sums
    are below 2 ord_k and index it directly.
    """
    log_s = log_k[s]
    log_g = log_k[g_embedded]
    out[:] = 1
    for u0, us in row_blocks(s.shape[0]):
        u = slice(u0, u0 + us.shape[0])
        uv = exp_k[np.add(log_s[u, None], log_s, dtype=np.intp)]    # [u, v] = u v
        t = uv ^ conj[uv]                                    # T(uv)
        hit = (t != 0) & (g_embedded[u, None] != 0)
        # log g - log T + log v lies in (-ord_k, 2 ord_k), so it keeps its
        # modulo; the sentinel log 0 of a zero g or T only reaches the
        # entries that `hit` drops
        log_pts = log_g[u, None] - log_k[t] + log_s
        out[exp_k[log_pts[hit] % ord_k]] = 0
    zero_u = g_embedded == 0
    if zero_u.any():
        out[0] = 0
        rays = log_k[conj[s[zero_u]]][:, None] + np.arange(
            0, ord_k, s.shape[0], dtype=np.int32)
        out[exp_k[rays]] = 0


def line_cover_counts(rows, nbits) -> np.ndarray:
    """Counts, per point of K, of the lines whose points fill each row."""
    return np.bincount(rows.ravel(), minlength=1 << nbits)


def bivariate_table_fill(mul_table, gvals, bmask, out) -> None:
    """Truth table of f(x, x o z) = B(G(z), x) = parity(bmask[G(z)] & x);
    f(0, y) = 0.  The bits of each row block are counted from the 1-D
    B-mask table.  Packed indices x + size*y stay below 2^24
    (size <= 2^12)."""
    size = mul_table.shape[0]
    gmasks = bmask[gvals]
    for x0, xs in row_blocks(size):
        rows = mul_table[x0:x0 + xs.shape[0]]
        out[xs + size * rows] = np.bitwise_count(gmasks & xs) & 1
    out[0::size] = 0


def bivariate_product_dual(star_table, gvals, out) -> None:
    """Dual via the product formula: 0 iff y = 0 or x = G(z) + y*z.
    Packed indices x + size*y stay below 2^24 (size <= 2^12)."""
    size = star_table.shape[0]
    out[:] = 1
    for y0, ys in row_blocks(size):
        out[(gvals ^ star_table[y0:y0 + ys.shape[0]]) + size * ys] = 0
    out[0:size] = 0


def collinear_scan(pts, conj, log_k, exp_k, ord_k):
    """First (lex) triple of F-collinear affine points, or (-1,-1,-1).

    The points are distinct, so each ratio d1 / d2 reads the doubled
    antilog table exp_k (`BinaryField.exp2`) at log d1 + ord_k - log d2,
    in [1, 2 ord_k - 1]."""
    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d1 = pts[i] ^ pts[j]
            for k in range(j + 1, n):
                d2 = pts[j] ^ pts[k]
                r = exp_k[log_k[d1] + ord_k - log_k[d2]]
                if conj[r] == r:
                    return i, j, k
    return -1, -1, -1


def linear_map_table(basis_images, nbits, dtype=np.int32):
    """Table of a GF(2)-linear map from its basis images, by doubling.

    Entry x is the XOR of basis_images[i] over the set bits i of x.  The
    images may carry trailing axes, one per batch of maps: images of shape
    (nbits, k) give the (2^nbits, k) tables of k maps in one pass.
    """
    images = np.asarray(basis_images, dtype=dtype)
    out = np.zeros((1 << nbits, *images.shape[1:]), dtype=dtype)
    h = 1
    for i in range(nbits):
        # written in place: no half-table temporary
        np.bitwise_xor(out[:h], images[i], out=out[h:2 * h])
        h *= 2
    return out
