"""Hot numeric kernels on plain numpy arrays.

Each kernel has one numpy implementation.  All field multiplications
inside kernels go through log/exp tables, so kernels only ever see plain
numpy arrays and ints.  The kernels that do their own log arithmetic
take the doubled antilog table `BinaryField.exp2` in their `exp_k`
position (the product rule of `gf`): the quotient sums log d1 + ord -
log d2 of `collinear_scan` stay below 2 ord and index it with no
modulo.  Index tables and index arithmetic are int32 (every index is
below 2^24, and every log sum below 2^31), except the log sums of
`univariate_product_dual` and the packed points of the two bivariate
scatters, which are intp, the index dtype of numpy's fast gather and
scatter paths.  The carrier tables of `spread` are int16 (every entry is
below 2^12), so the bivariate kernels form each packed point in intp
before a table value is multiplied or added: size * entry wraps in
int16 from size 2^8 on.  The univariate incidence kernels use closed
forms: the line cover counts the rows of `geometry.line_point_rows`,
each the log of u^q plus a row of the per-field coset log table
(`FieldParams.coset_log_table`) read through one clipped gather, and
the product dual is one outer sum of a log per line and a log per
circle index, scattered into a table over the logs of K.
The Walsh transform is one float matrix product per digit of at most
5 index bits (the bits split evenly over the fewest digits), since the
Walsh matrix is the Kronecker product of one Hadamard matrix per
digit: blocks of `BLOCK_ENTRIES` entries are cast to float32 and
transformed along their low bits, then column chunks of the same size
along the high bits.  Every value stays an integer of magnitude at most
2^24, so the products are exact under any BLAS; above k = MAX_K = 24
the transform raises.  The Moebius transform stays a uint8 XOR
butterfly (blocked subset-sum products with a mod-2 reduction per digit
took 2.08 ms against its 0.86 ms at k = 18 in a prototype): the stages
of its low index bits, whose rows would be 2 to 32 entries long, run on
a transposed copy of each block, where they are stages over rows of at
least 2^(k/2) entries (1024 from k = 16 on), and the other stages run
in place.  Every per-row value histogram of a square table is counted
by `row_counts`, one bincount per block of rows (`row_blocks`): the
spread cover, the spread-bent criterion and the line-oval cover, so
none of them holds a count array over the whole plane.  Per-kernel time
and work on real workloads come from
`python3 perfbench/run.py --workload W --trace 1`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# entries per block of rows in whole-array table code: large enough that
# the per-block Python cost vanishes, small enough that the temporaries of
# a dim-12 carrier stay far below its 32 MB int16 table
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


# most bits per digit of the Walsh transform: one Hadamard matrix product of
# at most (32, 32) per digit, the bits split evenly over the fewest digits
DIGIT_BITS = 5
MAX_K = 24      # largest Walsh k: float32 is exact to 2^24, the dim-12 plane


@functools.lru_cache(maxsize=None)
def _hadamard(bits: int, dtype) -> np.ndarray:
    """The read-only (2^bits, 2^bits) Sylvester-Hadamard matrix,
    H[i, j] = (-1)^parity(i & j), as floats of the given dtype."""
    i = np.arange(1 << bits)
    h = 1.0 - 2 * (np.bitwise_count(i[:, None] & i) & 1)
    h = h.astype(dtype)
    h.flags.writeable = False
    return h


def _hadamard_digits(x: np.ndarray, y: np.ndarray, bits: int,
                     inner: int) -> np.ndarray:
    """Walsh transform along index bits s0 .. s0 + bits - 1 of the flat
    float buffer x, inner = 2^s0, as one matrix product per digit: the
    bits are split evenly over the fewest digits of at most DIGIT_BITS
    bits (16 bits as 4 + 4 + 4 + 4).  With x viewed as (A, 2^d, 2^s) for
    a digit of d bits at bit s, the digit is H_{2^d} applied along the
    middle axis (for s = 0, x @ H on the rows of the (A, 2^d) view).  The
    products alternate between x and y, which have one size; returns the
    one holding the result."""
    s = inner.bit_length() - 1
    n = -(-bits // DIGIT_BITS)
    for i in range(n):
        d = (bits + i) // n                     # the n digits sum to bits
        h = _hadamard(d, x.dtype)
        if s == 0:
            np.matmul(x.reshape(-1, 1 << d), h, out=y.reshape(-1, 1 << d))
        else:
            shape = (-1, 1 << d, 1 << s)
            np.matmul(h, x.reshape(shape), out=y.reshape(shape))
        x, y = y, x
        s += d
    return x


def walsh_inplace(w: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of a length-2^k int32 or int64
    vector of signs +-1 (the table (-1)^f), as float matrix products.

    The Walsh matrix on 2^k points is the Kronecker product of one
    Hadamard matrix per digit of the index bits, so each digit is one
    matrix product (`_hadamard_digits`).  Each block of B = min(n,
    BLOCK_ENTRIES) consecutive entries is cast into a block-sized float
    buffer, its low log2(B) bits are transformed there and it is written
    back; then the remaining high bits run the same way over column
    chunks of B entries of the (n / B, B) view.  No float copy of the
    whole vector is made.

    Exactness does not depend on the BLAS: after b transformed bits every
    entry is a sum of 2^b signs, and every partial sum inside a product is
    a sum of at most 2^k of them, so all are integers of magnitude at most
    2^k.  float32 holds every integer up to 2^24 exactly, so for k <= 24
    the result is exact under any summation order, with or without FMA.
    Above k = MAX_K = 24 it raises ValueError.
    """
    n = w.shape[0]
    k = n.bit_length() - 1
    if k > MAX_K:
        raise ValueError(f"the Walsh transform is exact up to k = {MAX_K}, not {k}")
    block = min(n, BLOCK_ENTRIES)
    rows = n // block
    x = np.empty(max(block, rows), dtype=np.float32)
    y = np.empty_like(x)
    lo = block.bit_length() - 1
    for b0 in range(0, n, block):
        x[:block] = w[b0:b0 + block]
        w[b0:b0 + block] = _hadamard_digits(x[:block], y[:block], lo, 1)
    if rows > 1:
        cols = x.shape[0] // rows
        v = w.reshape(rows, -1)
        for c0 in range(0, v.shape[1], cols):
            x.reshape(rows, cols)[...] = v[:, c0:c0 + cols]
            high = _hadamard_digits(x, y, k - lo, cols)
            v[:, c0:c0 + cols] = high.reshape(rows, cols)


def _mobius_stages(t: np.ndarray, h: int) -> None:
    """Moebius stages h, 2h, .., n/2 of t in place: the upper half of each
    2h row gets the XOR of its lower half."""
    n = t.shape[0]
    while h < n:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


def _low_bits_transposed(t: np.ndarray) -> int:
    """Run the Moebius stages of the low c index bits of t block by block
    on a transposed copy, where they are stages over long rows; returns
    C = 2^c, the row length of the first stage left to run in place.

    Index bit i < c of a block of B = min(BLOCK_ENTRIES, n) entries viewed
    as (R, C) is bit i of the column; in the (C, R) transpose it is the
    stage h = R * 2^i.  c = min(6, k // 2) keeps R >= C.  Besides the
    stages' own temporaries, the only memory is one block-sized buffer."""
    n = t.shape[0]
    cols = 1 << min(6, (n.bit_length() - 1) // 2)
    if cols == 1:
        return 1
    block = min(BLOCK_ENTRIES, n)
    rows = block // cols
    buf = np.empty((cols, rows), dtype=t.dtype)
    flat = buf.reshape(-1)
    for b0 in range(0, n, block):
        v = t[b0:b0 + block].reshape(rows, cols)
        buf[...] = v.T
        _mobius_stages(flat, rows)
        v[...] = buf.T
    return cols


def mobius_inplace(t: np.ndarray) -> None:
    """In-place Moebius (XOR) butterfly on a length-2^k uint8 vector: the
    low index bits on transposed blocks, the rest in place."""
    _mobius_stages(t, _low_bits_transposed(t))


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

    Every u must lie on the unit circle, u = S[a] with log u = (q-1) a
    (a ValueError otherwise); the lines may come in any order.  For
    x = lam v with lam in F*, v = S[b] and w = a + b mod q+1, uv = S[w]
    and the factor at u is lam T(S[w]) + g(u), where T(S[w]) = 0 only
    for w = 0.  Since (q-1)(q+1) = ord_k, the zero lam = g(u) / T(S[w])
    of a line with g(u) != 0 is the point of log

        log x = R[u] + C[w] mod ord_k,
        R[u] = log g(u) - log u,   C[w] = (q-1) w - log T(S[w]),

    one term per line and one per circle index w = 1..q.  So the zeros
    are one outer sum: with both terms reduced to [0, ord_k), each block
    of lines (`row_blocks`) scatters its intp sums into a uint8 table
    over the logs [0, 2 ord_k), whose upper half is then folded onto the
    lower.  Each u with g(u) = 0 zeroes x = 0 and the ray through 1/u,
    the logs of residue -log u mod q+1.  The table is read over K once
    through log_k, whose sentinel log 0 = 2 ord_k indexes the entry of
    x = 0, the last.  exp_k is an antilog table of K read below ord_k.
    """
    q = math.isqrt(ord_k + 1)
    log_u = log_k[s]
    if (log_u % (q - 1)).any() or not s.all():
        raise ValueError("every u of the product dual must lie on the unit circle")
    circle = (q - 1) * np.arange(1, q + 1, dtype=np.intp)  # log S[w], w = 1..q
    sw = exp_k[circle]
    c = (circle - log_k[sw ^ conj[sw]]) % ord_k
    on = g_embedded != 0
    r = ((log_k[g_embedded] - log_u) % ord_k)[on]
    table = np.ones(2 * ord_k + 1, dtype=np.uint8)
    for u0, us in row_blocks(s.shape[0]):      # r holds at most s.shape[0] lines
        table[r[u0:u0 + us.shape[0], None] + c] = 0
    table[:ord_k] &= table[ord_k:2 * ord_k]
    if not on.all():
        table[2 * ord_k] = 0
        table[:ord_k].reshape(q - 1, q + 1)[:, -log_u[~on] % (q + 1)] = 0
    # in blocks, since take casts its int32 index to intp; clip: every log
    # is a valid index, and out is written unbuffered
    for x0 in range(0, out.shape[0], BLOCK_ENTRIES):
        x = slice(x0, x0 + BLOCK_ENTRIES)
        np.take(table, log_k[x], out=out[x], mode="clip")


def line_cover_counts(rows, nbits) -> np.ndarray:
    """Counts, per point of K, of the lines whose points fill each row.
    The int32 rows are cast to intp, the dtype bincount counts in, before
    the call rather than inside it."""
    return np.bincount(rows.ravel().astype(np.intp), minlength=1 << nbits)


def bivariate_table_fill(mul_table, gvals, bmask, out) -> None:
    """Truth table of f(x, x o z) = B(G(z), x) = parity(bmask[G(z)] & x);
    f(0, y) = 0.  Every entry of out, the [y, x] plane packed as
    x + size*y, is written: a point that no (x, z) reaches is 0.

    The bits of each row block x0..x0+b-1 are counted from the 1-D B-mask
    table and scattered along their own rows into one reused (b, size)
    buffer [x, y], at the local indices i*size + (x0+i) o z: the table
    values are added to the intp offsets i*size in intp, never
    multiplied (size * entry wraps in int16).  The buffer's transpose is
    then copied into columns x0..x0+b of the plane, so no scatter
    strides a whole row of the plane per entry."""
    size = mul_table.shape[0]
    gmasks = bmask[gvals]
    plane = out.reshape(size, size)
    rows = min(size, max(1, BLOCK_ENTRIES // size))
    buf = np.empty((rows, size), dtype=np.uint8)
    local = np.arange(0, rows * size, size, dtype=np.intp)[:, None]
    for x0, xs in row_blocks(size):
        b = xs.shape[0]
        block = buf[:b]
        block.fill(0)
        at = np.add(mul_table[x0:x0 + b], local[:b], dtype=np.intp)
        block.reshape(-1)[at] = np.bitwise_count(gmasks & xs) & 1
        plane[:, x0:x0 + b] = block.T


def bivariate_product_dual(star_table, gvals, out) -> None:
    """Dual via the product formula: 0 iff y = 0 or x = G(z) + y*z.
    Packed indices x + size*y stay below 2^24 (size <= 2^12) and are
    formed as intp, the fast path of a scatter."""
    size = star_table.shape[0]
    out[:] = 1
    for y0, ys in row_blocks(size):
        out[np.add(gvals ^ star_table[y0:y0 + ys.shape[0]], size * ys,
                   dtype=np.intp)] = 0
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
