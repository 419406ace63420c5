"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package implementations it checks.
"""

import numpy as np


def naive_walsh(table, inner):
    """W(b) = sum_x (-1)^(f(x) + inner(b, x)) by the defining double loop."""
    n = len(table)
    out = np.zeros(n, dtype=np.int64)
    for b in range(n):
        acc = 0
        for x in range(n):
            acc += -1 if (table[x] ^ inner(b, x)) else 1
        out[b] = acc
    return out


def dot_parity(b, x):
    return (b & x).bit_count() & 1


def poly_divides(d, a):
    """GF(2)[x] divisibility by long division on bit masks."""
    dd = d.bit_length()
    while a.bit_length() >= dd and a:
        a ^= d << (a.bit_length() - dd)
    return a == 0


def irreducible_bruteforce(mask):
    deg = mask.bit_length() - 1
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if d.bit_length() - 1 >= 1 and poly_divides(d, mask):
            return False
    return True


def trace_poly_table(params, terms):
    """Truth table of Tr(sum_i c_i x^(d_i)) by direct exponentiation."""
    K = params.K
    out = np.zeros(K.size, dtype=np.uint8)
    for x in range(K.size):
        acc = 0
        for c, d in terms:
            if x == 0:
                acc ^= c if d % K.order == 0 and d == 0 else 0
            else:
                acc ^= K.mul(c, K.pow(x, d))
        out[x] = K.trace(acc)
    return out


def brute_adjoint(images, bform, dim):
    """Search the adjoint map by solving B(adj(e_i), y) = B(e_i, L(y))."""
    size = 1 << dim

    def apply(rows, x):
        acc = 0
        for i in range(dim):
            if (x >> i) & 1:
                acc ^= rows[i]
        return acc

    rows = []
    for i in range(dim):
        want = [bform(1 << i, apply(images, y)) for y in range(size)]
        found = None
        for cand in range(size):
            if all(bform(cand, y) == want[y] for y in range(size)):
                found = cand
                break
        assert found is not None
        rows.append(found)
    return rows


def collinear_triples_naive(points, params):
    """All collinear triples among affine K-points, by line membership."""
    pts = sorted(points)
    bad = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                d1 = pts[i] ^ pts[j]
                d2 = pts[i] ^ pts[k]
                # collinear iff d2 in d1*F
                lam, u1 = params.polar_decompose(d1)
                lam2, u2 = params.polar_decompose(d2)
                if u1 == u2:
                    bad.append((pts[i], pts[j], pts[k]))
    return bad


def luneburg_mul(F):
    """Scalar Lueneburg multiplication on F x F, F = GF(2^m) with m = 2k+1,
    elements packed as x1 + 2^m * x2."""
    m = F.deg
    sig_inv = 1 << ((m - 1) // 2)     # sigma^(-1)(a) = a^(2^k)
    qmask = F.size - 1

    def mul(x, z):
        x1, x2 = x & qmask, x >> m
        z1, z2 = z & qmask, z >> m
        w = F.pow(z1, sig_inv) ^ F.mul(z2, F.pow(z2, sig_inv))
        y1 = F.mul(x1, z1) ^ F.mul(x2, w)
        y2 = F.mul(x1, w) ^ F.mul(x2, z2)
        return y1 | (y2 << m)
    return mul


def kantor_mul(F, subdegrees, lambdas, zetas):
    """Scalar Kantor two-sum multiplication over the chain F > F_1 > ...,
    with T_i the trace onto F_i by repeated Frobenius powers."""
    c = [1]
    for lam in lambdas:
        c.append(F.mul(c[-1], lam))

    def t_onto(x, d):
        acc, y = 0, x
        for _ in range(F.deg // d):
            acc ^= y
            y = F.pow(y, 1 << d)
        return acc

    def mul(x, y):
        acc = F.mul(x, F.sqr(y))
        for i, d in enumerate(subdegrees, start=1):
            xy = F.mul(x, y)
            acc ^= F.mul(c[i - 1], F.mul(y, t_onto(F.mul(c[i - 1], xy), d)))
            acc ^= F.mul(c[i], F.mul(y, t_onto(F.mul(c[i], xy), d)))
            acc ^= F.mul(c[i - 1], F.mul(y, t_onto(F.mul(x, zetas[i - 1]), d)))
            acc ^= F.mul(zetas[i - 1], t_onto(F.mul(c[i - 1], xy), d))
        return acc
    return mul


def scalar_table(mul, size):
    """size x size table of a scalar multiplication, one call per entry."""
    return np.array([[mul(x, z) for z in range(size)] for x in range(size)],
                    dtype=np.int64)


def trace_form(F):
    """B(x, y) = tr(xy) on F, the trace summed over the Frobenius orbit."""
    def bform(x, y):
        t, a = 0, F.mul(x, y)
        for _ in range(F.deg):
            t ^= a
            a = F.mul(a, a)
        return t
    return bform
