"""Hot numeric kernels on plain numpy arrays.

Each kernel has one numpy implementation.  All field multiplications
inside kernels go through log/exp tables, so kernels only ever see plain
numpy arrays and ints.  Index tables and index arithmetic are int32:
every index is below 2^24, and every log sum below 2^31.  The
univariate incidence kernels use closed forms: the line cover counts the
coset rows of `geometry.line_point_rows` and the product dual works ray
by ray.  Per-kernel time and work on real workloads come from
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


def walsh_inplace(w: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly on a length-2^k signed vector.

    Radix 4: each pass over the array applies the two stages h and 2h to
    the quarter blocks a0..a3, then one radix-2 stage finishes an odd k.
    Every intermediate, including the 2a of the last stage, is bounded
    by the final |entry| <= n, so any signed dtype that holds n is exact.
    """
    n = w.shape[0]
    t = np.empty(n // 4, dtype=w.dtype)     # one temporary quarter, reused
    h = 1
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


def mobius_inplace(t: np.ndarray) -> None:
    """In-place Moebius (XOR) butterfly on a length-2^k uint8 vector."""
    n = t.shape[0]
    h = 1
    while h < n:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


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
    run in blocks of u rows (`row_blocks`); every log sum is below 2 ord_k.
    """
    log_s = log_k[s]
    log_g = log_k[g_embedded]
    out[:] = 1
    for u0, us in row_blocks(s.shape[0]):
        u = slice(u0, u0 + us.shape[0])
        uv = exp_k[(log_s[u, None] + log_s) % ord_k]         # [u, v] = u v
        t = uv ^ conj[uv]                                    # T(uv)
        hit = (t != 0) & (g_embedded[u, None] != 0)
        log_pts = log_g[u, None] - log_k[t] + log_s
        out[exp_k[log_pts[hit] % ord_k]] = 0
    zero_u = g_embedded == 0
    if zero_u.any():
        out[0] = 0
        rays = log_k[conj[s[zero_u]]][:, None] + np.arange(
            0, ord_k, s.shape[0], dtype=np.int32)
        out[exp_k[rays % ord_k]] = 0


def line_cover_counts(rows, nbits) -> np.ndarray:
    """Counts, per point of K, of the lines whose points fill each row."""
    return np.bincount(rows.ravel(), minlength=1 << nbits)


def bivariate_table_fill(mul_table, gvals, bbit, out) -> None:
    """Truth table of f(x, x o z) = B(G(z), x); f(0, y) = 0.  Packed
    indices x + size*y stay below 2^24 (size <= 2^12)."""
    size = mul_table.shape[0]
    for x0, xs in row_blocks(size):
        rows = mul_table[x0:x0 + xs.shape[0]]
        out[xs + size * rows] = bbit[gvals[None, :], xs]
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
    """First (lex) triple of F-collinear affine points, or (-1,-1,-1)."""
    n = pts.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d1 = pts[i] ^ pts[j]
            for k in range(j + 1, n):
                d2 = pts[j] ^ pts[k]
                r = exp_k[(log_k[d1] + ord_k - log_k[d2]) % ord_k]
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
