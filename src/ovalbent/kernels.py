"""Hot numeric kernels on plain numpy arrays.

Each kernel has one numpy implementation.  All field multiplications
inside kernels go through log/exp tables, so kernels only ever see plain
numpy arrays and ints.  The univariate incidence kernels use closed
forms: the line cover counts the coset rows of `geometry.line_point_rows`
and the product dual works ray by ray.  Per-kernel time and work on real
workloads come from `python3 perfbench/run.py --workload W --trace 1`.
"""

from __future__ import annotations

import numpy as np

# entries per block of rows in whole-array table code: large enough that
# the per-block Python cost vanishes, small enough that the temporaries of
# a dim-12 carrier stay far below its 128 MB table
BLOCK_ENTRIES = 1 << 16


def row_blocks(size: int):
    """(x0, xs) over 0..size-1 in blocks of consecutive rows of a
    (size, size) table: xs is the int64 column (b, 1) of x0..x0+b-1, with
    b * size about BLOCK_ENTRIES."""
    rows = max(1, BLOCK_ENTRIES // size)
    for x0 in range(0, size, rows):
        yield x0, np.arange(x0, min(x0 + rows, size), dtype=np.int64)[:, None]


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


def niho_table_fill(s, gvals, embed, log_k, exp_k, ord_k,
                    log_f, exp_f, ord_f, tr_f, out) -> None:
    """Truth table of f(lam*u) = tr(lam*g(u)) over all of K, f(0)=0."""
    lams = np.arange(1, embed.shape[0], dtype=np.int64)
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
    with g(u) = 0 zeroes x = 0 and the whole ray through 1/u.
    """
    log_s = log_k[s]
    uv = exp_k[(log_s[:, None] + log_s[None, :]) % ord_k]
    t = uv ^ conj[uv]
    hit = (t != 0) & (g_embedded != 0)[:, None]
    log_pts = log_k[g_embedded][:, None] - log_k[t] + log_s[None, :]
    out[:] = 1
    out[exp_k[log_pts[hit] % ord_k]] = 0
    zero_u = g_embedded == 0
    if zero_u.any():
        out[0] = 0
        rays = log_k[conj[s[zero_u]]][:, None] + np.arange(0, ord_k, s.shape[0])
        out[exp_k[rays % ord_k]] = 0


def line_cover_counts(rows, nbits) -> np.ndarray:
    """Counts, per point of K, of the lines whose points fill each row."""
    return np.bincount(rows.ravel(), minlength=1 << nbits)


def bivariate_table_fill(mul_table, gvals, bbit, out) -> None:
    """Truth table of f(x, x o z) = B(G(z), x); f(0, y) = 0."""
    size = mul_table.shape[0]
    for x0, xs in row_blocks(size):
        rows = mul_table[x0:x0 + xs.shape[0]]
        out[xs + size * rows] = bbit[gvals[None, :], xs]
    out[0::size] = 0


def bivariate_product_dual(star_table, gvals, out) -> None:
    """Dual via the product formula: 0 iff y = 0 or x = G(z) + y*z."""
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


def linear_map_table(basis_images, nbits, dtype=np.int64):
    """Table of a GF(2)-linear map from its basis images, by doubling.

    Entry x is the XOR of basis_images[i] over the set bits i of x.
    """
    out = np.zeros(1 << nbits, dtype=dtype)
    h = 1
    for i in range(nbits):
        out[h:2 * h] = out[:h] ^ dtype(basis_images[i])
        h *= 2
    return out
