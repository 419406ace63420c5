"""Hot numeric kernels, JIT-compiled with numba when available.

Every kernel has a pure-numpy implementation with the same signature.
The active backend is chosen at import time: numba if importable, unless
the environment variable OVALBENT_NUMBA is set to 0/off/false/no, in
which case the numpy path is forced.  OVALBENT_THREADS caps the numba
thread pool.  `set_backend` switches at runtime (used by the benchmark
and by tests that cross-check the two paths).

All field multiplications inside kernels go through log/exp tables, so
kernels only ever see plain numpy arrays and ints.
"""

from __future__ import annotations

import os

import numpy as np


def _env_wants_numba() -> bool:
    flag = os.environ.get("OVALBENT_NUMBA", "").strip().lower()
    return flag not in {"0", "off", "false", "no"}


HAS_NUMBA = False
if _env_wants_numba():
    try:
        import numba

        HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        HAS_NUMBA = False

if HAS_NUMBA:
    _threads = os.environ.get("OVALBENT_THREADS", "").strip()
    if _threads.isdigit() and int(_threads) > 0:
        numba.set_num_threads(min(int(_threads), numba.config.NUMBA_NUM_THREADS))


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------

def _walsh_inplace_np(w: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly on a length-2^k int64 vector."""
    n = w.shape[0]
    h = 1
    while h < n:
        v = w.reshape(-1, 2 * h)
        a = v[:, :h]
        b = v[:, h:]
        np.subtract(a, b, out=b)      # b <- a - b
        a *= 2
        a -= b                        # a <- 2a - (a - b) = a + b, no temporary
        h *= 2


def _mobius_inplace_np(t: np.ndarray) -> None:
    """In-place Moebius (XOR) butterfly on a length-2^k uint8 vector."""
    n = t.shape[0]
    h = 1
    while h < n:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


def _niho_table_fill_np(s, gvals, embed, log_k, exp_k, ord_k,
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


def _univariate_product_dual_np(s, g_embedded, conj, log_k, exp_k, ord_k,
                                out) -> None:
    """Dual via the product formula: 0 iff some T(u x) + g(u) vanishes."""
    size = out.shape[0]
    xs = np.arange(1, size, dtype=np.int64)
    log_x = log_k[xs]
    covered = np.zeros(size, dtype=bool)
    covered[0] = bool(np.any(g_embedded == 0))
    for j in range(s.shape[0]):
        y = exp_k[(log_x + log_k[s[j]]) % ord_k]
        covered[1:] |= (y ^ conj[y]) == g_embedded[j]
    out[:] = 1
    out[covered] = 0


def _line_cover_counts_np(basis_vals, nbits, gvals) -> np.ndarray:
    """Counts, per point of K, of lines L(u, g(u)) through it.

    basis_vals[j, i] is the F-index of T(u_j * e_i) for basis bit i.
    """
    size = 1 << nbits
    counts = np.zeros(size, dtype=np.int64)
    tvals = np.zeros(size, dtype=np.int64)
    for j in range(basis_vals.shape[0]):
        tvals[0] = 0
        h = 1
        for i in range(nbits):
            tvals[h:2 * h] = tvals[:h] ^ basis_vals[j, i]
            h *= 2
        counts += tvals == gvals[j]
    return counts


def _bivariate_table_fill_np(mul_table, gvals, bbit, out) -> None:
    """Truth table of f(x, x o z) = B(G(z), x); f(0, y) = 0."""
    size = mul_table.shape[0]
    zs = np.arange(size)
    for x in range(1, size):
        out[x + size * mul_table[x, zs]] = bbit[gvals[zs], x]
    out[0::size] = 0
    out[0] = 0


def _bivariate_product_dual_np(star_table, gvals, out) -> None:
    """Dual via the product formula: 0 iff y = 0 or x = G(z) + y*z."""
    size = star_table.shape[0]
    out[:] = 1
    for y in range(1, size):
        xs = gvals ^ star_table[y, :]
        out[xs + size * y] = 0
    out[0:size] = 0


def _collinear_scan_np(pts, conj, log_k, exp_k, ord_k):
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


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @numba.njit(cache=True)
    def _walsh_inplace_nb(w):
        n = w.shape[0]
        h = 1
        while h < n:
            for i in range(0, n, 2 * h):
                for j in range(i, i + h):
                    a = w[j]
                    b = w[j + h]
                    w[j] = a + b
                    w[j + h] = a - b
            h *= 2

    @numba.njit(cache=True)
    def _mobius_inplace_nb(t):
        n = t.shape[0]
        h = 1
        while h < n:
            for i in range(0, n, 2 * h):
                for j in range(i, i + h):
                    t[j + h] ^= t[j]
            h *= 2

    @numba.njit(cache=True)
    def _niho_table_fill_nb(s, gvals, embed, log_k, exp_k, ord_k,
                            log_f, exp_f, ord_f, tr_f, out):
        q = embed.shape[0]
        for j in range(s.shape[0]):
            lu = log_k[s[j]]
            g = gvals[j]
            for lam in range(1, q):
                x = exp_k[(log_k[embed[lam]] + lu) % ord_k]
                if g == 0:
                    out[x] = 0
                else:
                    out[x] = tr_f[exp_f[(log_f[lam] + log_f[g]) % ord_f]]
        out[0] = 0

    @numba.njit(cache=True)
    def _univariate_product_dual_nb(s, g_embedded, conj, log_k, exp_k,
                                    ord_k, out):
        size = out.shape[0]
        m = s.shape[0]
        zero_hit = False
        for j in range(m):
            if g_embedded[j] == 0:
                zero_hit = True
        out[0] = 0 if zero_hit else 1
        for x in range(1, size):
            lx = log_k[x]
            bit = 1
            for j in range(m):
                y = exp_k[(lx + log_k[s[j]]) % ord_k]
                if y ^ conj[y] == g_embedded[j]:
                    bit = 0
                    break
            out[x] = bit

    @numba.njit(cache=True)
    def _line_cover_counts_nb(basis_vals, nbits, gvals):
        size = 1 << nbits
        counts = np.zeros(size, dtype=np.int64)
        tvals = np.zeros(size, dtype=np.int64)
        for j in range(basis_vals.shape[0]):
            tvals[0] = 0
            h = 1
            for i in range(nbits):
                b = basis_vals[j, i]
                for x in range(h):
                    tvals[h + x] = tvals[x] ^ b
                h *= 2
            g = gvals[j]
            for x in range(size):
                if tvals[x] == g:
                    counts[x] += 1
        return counts

    @numba.njit(cache=True)
    def _bivariate_table_fill_nb(mul_table, gvals, bbit, out):
        size = mul_table.shape[0]
        for y in range(size):
            out[size * y] = 0
        for x in range(1, size):
            for z in range(size):
                out[x + size * mul_table[x, z]] = bbit[gvals[z], x]

    @numba.njit(cache=True)
    def _bivariate_product_dual_nb(star_table, gvals, out):
        size = star_table.shape[0]
        for i in range(out.shape[0]):
            out[i] = 1
        for x in range(size):
            out[x] = 0
        for y in range(1, size):
            for z in range(size):
                out[(gvals[z] ^ star_table[y, z]) + size * y] = 0

    @numba.njit(cache=True)
    def _collinear_scan_nb(pts, conj, log_k, exp_k, ord_k):
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


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

_NP_IMPL = {
    "walsh_inplace": _walsh_inplace_np,
    "mobius_inplace": _mobius_inplace_np,
    "niho_table_fill": _niho_table_fill_np,
    "univariate_product_dual": _univariate_product_dual_np,
    "line_cover_counts": _line_cover_counts_np,
    "bivariate_table_fill": _bivariate_table_fill_np,
    "bivariate_product_dual": _bivariate_product_dual_np,
    "collinear_scan": _collinear_scan_np,
}

_IMPLS = {"numpy": _NP_IMPL}
if HAS_NUMBA:
    _IMPLS["numba"] = {
        "walsh_inplace": _walsh_inplace_nb,
        "mobius_inplace": _mobius_inplace_nb,
        "niho_table_fill": _niho_table_fill_nb,
        "univariate_product_dual": _univariate_product_dual_nb,
        "line_cover_counts": _line_cover_counts_nb,
        "bivariate_table_fill": _bivariate_table_fill_nb,
        "bivariate_product_dual": _bivariate_product_dual_nb,
        "collinear_scan": _collinear_scan_nb,
    }

_active = "numba" if HAS_NUMBA else "numpy"


def backends() -> tuple[str, ...]:
    return tuple(_IMPLS)


def active_backend() -> str:
    return _active


def set_backend(name: str) -> None:
    global _active
    if name not in _IMPLS:
        raise ValueError(f"unknown kernel backend {name!r}; have {backends()}")
    _active = name


def walsh_inplace(w):
    _IMPLS[_active]["walsh_inplace"](w)


def mobius_inplace(t):
    _IMPLS[_active]["mobius_inplace"](t)


def niho_table_fill(s, gvals, embed, log_k, exp_k, ord_k,
                    log_f, exp_f, ord_f, tr_f, out):
    _IMPLS[_active]["niho_table_fill"](s, gvals, embed, log_k, exp_k, ord_k,
                                       log_f, exp_f, ord_f, tr_f, out)


def univariate_product_dual(s, g_embedded, conj, log_k, exp_k, ord_k, out):
    _IMPLS[_active]["univariate_product_dual"](s, g_embedded, conj, log_k,
                                               exp_k, ord_k, out)


def line_cover_counts(basis_vals, nbits, gvals):
    return _IMPLS[_active]["line_cover_counts"](basis_vals, nbits, gvals)


def bivariate_table_fill(mul_table, gvals, bbit, out):
    _IMPLS[_active]["bivariate_table_fill"](mul_table, gvals, bbit, out)


def bivariate_product_dual(star_table, gvals, out):
    _IMPLS[_active]["bivariate_product_dual"](star_table, gvals, out)


def collinear_scan(pts, conj, log_k, exp_k, ord_k):
    return _IMPLS[_active]["collinear_scan"](pts, conj, log_k, exp_k, ord_k)


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
