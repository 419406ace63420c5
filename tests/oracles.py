"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package implementations it checks.
"""

import itertools
import math

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


def walsh_by_rows(table):
    """The defining sum W(b) = sum_x (-1)^(f(x) + parity(b & x)), vectorized
    over x one b at a time: the naive double loop at sizes where the pure
    Python loop is too slow (k <= 12 here)."""
    n = len(table)
    xs = np.arange(n, dtype=np.uint64)
    signs = 1 - 2 * np.asarray(table, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for b in range(n):
        par = (np.bitwise_count(np.uint64(b) & xs) & 1).astype(np.int64)
        out[b] = int(((1 - 2 * par) * signs).sum())
    return out


def walsh_radix2_int64(table):
    """Walsh spectrum by the plain radix-2 butterfly in int64, one stage
    per pass (the kernel the radix-4 int32 one replaced)."""
    w = 1 - 2 * np.asarray(table, dtype=np.int64)
    h = 1
    while h < w.shape[0]:
        v = w.reshape(-1, 2 * h)
        a, b = v[:, :h].copy(), v[:, h:].copy()
        v[:, :h] = a + b
        v[:, h:] = a - b
        h *= 2
    return w


def walsh_radix4_rows(w):
    """In-place Walsh butterfly stage by stage over rows of 2^i entries:
    radix-4 passes, then a radix-2 stage at odd k (the kernel before the
    low index bits moved to transposed blocks)."""
    n = w.shape[0]
    t = np.empty(n // 4, dtype=w.dtype)
    h = 1
    while 4 * h <= n:
        v = w.reshape(-1, 4, h)
        a0, a1, a2, a3 = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
        d = t.reshape(-1, h)
        np.subtract(a0, a1, out=d)
        a0 += a1
        np.subtract(a2, a3, out=a1)
        a2 += a3
        np.subtract(d, a1, out=a3)
        np.add(d, a1, out=a1)
        np.subtract(a0, a2, out=d)
        a0 += a2
        a2[...] = d
        h *= 4
    if h < n:
        a, b = w.reshape(2, h)
        np.subtract(a, b, out=b)
        a *= 2
        a -= b


def mobius_rows(t):
    """In-place Moebius butterfly stage by stage over rows of 2^i entries."""
    n = t.shape[0]
    h = 1
    while h < n:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2


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


def mulmod_naive(a, b, poly):
    """Product in GF(2)[x]/(poly) by shift-and-add, reducing as it goes."""
    deg = poly.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= poly
    return r


def exp_log_naive(poly, generator):
    """exp/log tables of GF(2)[x]/(poly) by stepping through the powers."""
    size = 1 << (poly.bit_length() - 1)
    exp = np.zeros(size - 1, dtype=np.int64)
    log = np.zeros(size, dtype=np.int64)
    acc = 1
    for i in range(size - 1):
        exp[i] = acc
        log[acc] = i
        acc = mulmod_naive(acc, generator, poly)
    assert acc == 1, "generator order must be 2^deg - 1"
    return exp, log


def field_pair_naive(params):
    """(subfield, embed, S, unit class) of the pair (F, K), element by element.

    The subfield is stepped through the powers gamma^(j(q+1)); the embedding
    sends the generator of F to the smallest root of poly_f in it; the
    circle is stepped through gamma^(j(q-1)); and the unit class of each
    nonzero x is the S-index of its polar part x / sqrt(x^(q+1)).
    """
    K, q, m = params.K, params.q, params.m
    step = K.pow(params.gamma, q + 1)
    sub = [0, 1]
    for _ in range(q - 2):
        sub.append(K.mul(sub[-1], step))

    def poly_f(x):
        acc = 0
        for i in range(m, -1, -1):
            acc = K.mul(acc, x) ^ ((params.F.poly >> i) & 1)
        return acc

    beta = min(x for x in sub if poly_f(x) == 0)
    embed = np.zeros(q, dtype=np.int64)
    for a in range(q):
        for i in range(m):
            if (a >> i) & 1:
                embed[a] ^= K.pow(beta, i)

    ustep = K.pow(params.gamma, q - 1)
    circle = [1]
    for _ in range(q):
        circle.append(K.mul(circle[-1], ustep))
    where = {u: j for j, u in enumerate(circle)}

    ucls = np.full(K.size, -1, dtype=np.int64)
    for x in range(1, K.size):
        lam = K.sqrt(K.pow(x, q + 1))
        ucls[x] = where[K.div(x, lam)]
    return sorted(sub), embed, np.array(circle, dtype=np.int64), ucls


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


def exponents(spec, params):
    """(coefficient K-index, exponent) pairs of the defining trace
    polynomial of a family member, for `trace_poly_table`."""
    rs = spec.resolve(params)
    K, q, n1 = params.K, params.q, params.K.order
    d1 = ((q - 1) * ((q + 2) // 2) + 1) % n1
    if rs.family == "quadratic":
        return [(rs.a, d1)]
    if rs.family == "binomial_3":
        return [(rs.a, d1), (rs.alpha2, ((q - 1) * 3 + 1) % n1)]
    if rs.family == "binomial_1_6":
        s = pow(6, -1, q + 1)
        return [(rs.a, d1), (rs.alpha2, ((q - 1) * s + 1) % n1)]
    # leander: Tr(a^2 x^(q+1) + (a+a^q) sum_i x^(d_i)), 2^r d_i = (q-1)i + 2^r
    terms = [(K.mul(rs.a, rs.a), q + 1)]
    ta = rs.a ^ K.pow(rs.a, q)
    inv2r = pow(1 << rs.r, -1, n1)
    for i in range(1, (1 << (rs.r - 1))):
        terms.append((ta, ((q - 1) * i + (1 << rs.r)) * inv2r % n1))
    return terms


def apply(rows, x):
    """Row-vector action x -> x * rows of an int-mask matrix (bit j of row
    i = entry [i][j]): the XOR of rows[i] over the set bits i of x."""
    acc = 0
    i = 0
    while x:
        if x & 1:
            acc ^= rows[i]
        x >>= 1
        i += 1
    return acc


def rank(rows):
    """GF(2) rank of int-mask rows, by reduction against the pivots."""
    pivots = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def brute_adjoint(images, bform, dim):
    """Search the adjoint map by solving B(adj(e_i), y) = B(e_i, L(y))."""
    size = 1 << dim
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


def project_naive(y, params):
    """F-index of a subfield element of K, by search over the embedding."""
    hits = np.flatnonzero(params.embed == y)
    assert hits.size == 1, "y must lie in the embedded subfield"
    return int(hits[0])


def trace_rel_naive(x, params):
    """F-index of T(x) = x + x^q, the conjugate taken as a scalar power."""
    return project_naive(x ^ params.K.pow(x, params.q), params)


def polar_naive(x, params):
    """(lam, u) with x = lam u: lam = sqrt(x x^q) lies in F because the norm
    does and squaring is a bijection, and u = x / lam lies on the circle."""
    if x == 0:
        raise ValueError("0 has no polar decomposition")
    K = params.K
    lam_k = K.sqrt(K.mul(x, params.conjugate(x)))
    return project_naive(lam_k, params), K.mul(x, K.inv(lam_k))


def direction_tag_naive(d, params):
    """Circle index of the point at infinity of lines with direction d:
    the position in S of the conjugate of the polar unit of d."""
    u = params.conjugate(polar_naive(d, params)[1])
    return int(np.flatnonzero(params.S == u)[0])


def tag_witness_naive(points, infinite, params):
    """First (tag, a, b) in lex order with pts[a] - pts[b] in direction
    tag, as (pts[a], pts[b], ("inf", tag)); None when there is none."""
    pts = sorted(points)
    for t in sorted(infinite):
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if direction_tag_naive(pts[a] ^ pts[b], params) == t:
                    return pts[a], pts[b], ("inf", t)
    return None


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
                lam, u1 = polar_naive(d1, params)
                lam2, u2 = polar_naive(d2, params)
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


def field_mul(F):
    """Scalar product of GF(2)[x]/(F.poly) by shift-and-add, without the
    log/exp tables."""
    return lambda x, z: mulmod_naive(x, z, F.poly)


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


def naive_mobius(table):
    """ANF coefficients: a(s) = XOR of t(x) over the subsets x of s."""
    n = len(table)
    return np.array([np.bitwise_xor.reduce([table[x] for x in range(s + 1)
                                            if x & s == x])
                     for s in range(n)], dtype=np.uint8)


def compose_linear(table, images):
    """f(L(x)) for the linear map sending basis bit i to images[i], one
    point at a time; ValueError unless L is an invertible k x k matrix."""
    k = len(images)
    if len(table) != 1 << k or rank(images) != k:
        raise ValueError("linear map must be an invertible k x k matrix")
    return np.array([table[apply(images, x)] for x in range(1 << k)],
                    dtype=np.uint8)


def anf_degree_naive(coeffs):
    """Largest popcount of an index with a nonzero ANF coefficient (0 for
    the zero polynomial)."""
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return 0
    return int(np.bitwise_count(nz.astype(np.uint64)).max())


def niho_fill_naive(gvals, params):
    """f(x) = tr(lam g(u)) for x = lam u, by polar decomposition of each x."""
    F = params.F
    s_index = {int(u): j for j, u in enumerate(params.S)}
    out = np.zeros(params.K.size, dtype=np.uint8)
    for x in range(1, params.K.size):
        lam, u = polar_naive(x, params)
        out[x] = F.trace(F.mul(lam, int(gvals[s_index[u]])))
    return out


def g_of_spec_naive(rs, params):
    """Circle map of a resolved family member, one circle point at a time:
    T(coef u^e) by multiplying into K and projecting by search."""
    K, F, q1 = params.K, params.F, params.q + 1

    def t_of_power(j, e, coef_k=1):
        y = K.mul(coef_k, int(params.S[(j * e) % q1]))
        return project_naive(y ^ params.conjugate(y), params)

    ta = t_of_power(0, 0, rs.a)          # T(a)
    vals = np.zeros(q1, dtype=np.int64)
    if rs.family == "quadratic":
        vals[:] = ta
    elif rs.family in ("binomial_3", "binomial_1_6"):
        e2 = (-5) % q1 if rs.family == "binomial_3" else (2 * pow(3, -1, q1)) % q1
        for j in range(q1):
            vals[j] = ta ^ t_of_power(j, e2, rs.alpha2)
    else:
        w = pow(1 << (rs.r - 1), -1, q1)
        vals[0] = ta
        for j in range(1, q1):
            num = t_of_power(j, 1) ^ t_of_power(j, (w - 1) % q1)
            vals[j] = F.mul(ta, F.div(num, t_of_power(j, w)))
    return vals


def load_g_table(path, params):
    """The circle map of a `g_table.csv` artifact (`niho.save_g_table`):
    the header, then the row `u_index,g_index` of each circle point in
    circle order."""
    from ovalbent import niho
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "u_index,g_index"
    rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
    assert [j for j, _ in rows] == list(range(params.q + 1))
    assert all(0 <= v < params.q for _, v in rows)
    return niho.UnitCircleMap(params.m,
                              np.array([v for _, v in rows], dtype=np.int32))


def family_members(m):
    """A default member of every family that is defined at m."""
    from ovalbent import niho
    specs = [niho.NihoSpec("quadratic", m), niho.NihoSpec("binomial_3", m)]
    if m % 2 == 0:
        specs.append(niho.NihoSpec("binomial_1_6", m))
    rs = [r for r in range(2, m) if math.gcd(r, m) == 1]
    if rs:
        specs.append(niho.NihoSpec("leander_r", m, r=rs[0]))
    return specs


def desarguesian_maps_naive(params, embed):
    """(phi, psi, w): the F-linear bijections F x F -> K of the
    Desarguesian spread, as tables over packed pairs x + q*y, for the
    smallest w with T(w) = w + w^q = 1 and an embedding `embed` of F
    (F-index -> K-index), by scalar products in K.

    phi(x, y) = x w + y maps the spread members {(x, x z)} and {(0, y)}
    onto the rays F (w + z) and F.  psi(a, b) = a + b + w b is the one
    element c of K with Tr_K(c phi(x, y)) = tr(a x) + tr(b y): with
    T(1) = 0 and T(w) = T(w^2) = 1, T(c (x w + y)) = a x + b y."""
    K, q = params.K, params.q
    w = next(x for x in range(K.size) if x ^ K.pow(x, q) == 1)
    phi = np.zeros(K.size, dtype=np.int64)
    psi = np.zeros(K.size, dtype=np.int64)
    for x in range(q):
        for y in range(q):
            phi[x + q * y] = K.mul(int(embed[x]), w) ^ int(embed[y])
            psi[x + q * y] = K.mul(int(embed[y]), w) ^ int(embed[x ^ y])
    return phi, psi, w


def spread_linear_naive(h, F):
    """(G, mu) of a function h on F x F (packed x + q*y), read off the
    basis rows: tr(G(z) e_i) = h(e_i, e_i z) and tr(mu e_i) = h(0, e_i),
    each value found by search over F."""
    q = F.size
    basis = [1 << i for i in range(F.deg)]

    def solve(bits):
        return next(v for v in range(q)
                    if [F.trace(F.mul(v, e)) for e in basis] == bits)

    G = np.array([solve([int(h[e + q * F.mul(e, z)]) for e in basis])
                  for z in range(q)], dtype=np.int32)
    return G, solve([int(h[q * e]) for e in basis])


def nucleus_witness_naive(points, params):
    """verify_nucleus_zero by a scan: the first point whose polar unit
    repeats, with the earlier point of the same unit."""
    pts = list(points)
    if 0 in pts:
        return False, 0
    seen = {}
    for v in pts:
        u = polar_naive(v, params)[1]
        if u in seen:
            return False, (seen[u], v)
        seen[u] = v
    return len(pts) == params.q + 1, None


def bent_from_oval_pointwise(points, params):
    """f(x) = tr(x / v) on each ray vF, filled ray by ray from the polar
    form v = rad u of each oval point."""
    K, F = params.K, params.F
    table = np.zeros(K.size, dtype=np.uint8)
    lams = np.arange(1, params.q, dtype=np.int64)
    for v in points:
        rad, u = polar_naive(v, params)
        xs = K.mul_arr(params.embed[lams], u)
        table[xs] = [F.trace(F.mul(int(lam), F.inv(rad))) for lam in lams]
    return table


def line_contains(line, x, params):
    """x lies on L(u, mu) = {x : T(u x) = mu}, by the definition."""
    return params.trace_rel(params.K.mul(line.u, x)) == line.mu


def line_cover_naive(lines, params):
    """Per point of K, the number of the given lines containing it."""
    return np.array([sum(line_contains(ln, x, params) for ln in lines)
                     for x in range(params.K.size)], dtype=np.int64)


def budaghyan_pointwise(r, e, params):
    """The closed dual form of the Leander family at even r, point by point:

        Tr((e t + e^(2^(n-r)) + x^q) rho),  t = 1 + x + x^q,

    with rho the (2^r - 1)-th root of t outside F: the root in F times
    the cube root of unity gamma^(ord/3), which is not in F for odd m
    (rho = 0 at t = 0).  Scalar K arithmetic only."""
    K = params.K
    d = (1 << r) - 1
    omega = K.pow(K.generator, K.order // 3)
    e_pow = K.pow(e, 1 << (params.n - r))
    roots = {}
    table = np.zeros(K.size, dtype=np.uint8)
    for x in range(K.size):
        xq = params.conjugate(x)
        t = 1 ^ x ^ xq
        if t not in roots:
            rho = 0 if t == 0 else K.mul(K.pow(t, pow(d, -1, params.q - 1)), omega)
            assert K.pow(rho, d) == t and (t == 0 or not params.in_subfield(rho))
            roots[t] = rho
        table[x] = K.trace(K.mul(K.mul(e, t) ^ e_pow ^ xq, roots[t]))
    return table


def bivariate_fill_naive(Q, G):
    """f(x, y) = B(G(z), x) where x o z = y, the smallest such z, read
    off a dict of row x (Python ints); f(0, y) = 0.  B(a, x) is the
    parity of mask[a] & x, each mask bit by bit from `carrier_form`."""
    size = Q.size
    bform = carrier_form(Q)
    mask = [sum(bform(a, 1 << i) << i for i in range(Q.dim)) for a in range(size)]
    out = np.zeros(size * size, dtype=np.uint8)
    for x in range(1, size):
        row = [int(v) for v in Q.table[x]]
        z_of = {y: z for z, y in reversed(list(enumerate(row)))}
        for y in range(size):
            out[x + size * y] = bin(mask[int(G[z_of[y]])] & x).count("1") & 1
    return out


def bent_criterion_naive(G, star):
    """(ok, witness) of "G bijective and G(z) + b*z 2-to-1 for b != 0",
    one b at a time: the smallest failing b, then the smallest value hit
    neither 0 nor 2 times."""
    size = len(G)
    if sorted(int(v) for v in G) != list(range(size)):
        return False, ("G_not_bijective",)
    for b in range(1, size):
        hits = [0] * size
        for z in range(size):
            hits[int(G[z]) ^ int(star[b][z])] += 1
        for v in range(size):
            if hits[v] not in (0, 2):
                return False, ("not_two_to_one", b, v)
    return True, None


def line_oval_cover_naive(Q, c, offsets):
    """(counts, witness) of the line oval {x = c} u {y = offsets[z] + x*z}
    in A(Q^t), one line at a time: counts[x + size*y] is the number of
    lines through (x, y), and the witness is (x, y, count) for the
    smallest x, then the smallest y, whose point lies on neither 0 nor 2
    lines, or None.  x*z is read from Q's transpose table, which
    test_spread checks against the brute-force adjoints."""
    n = Q.size
    star = Q.transposed().table
    counts = [0] * (n * n)
    for y in range(n):                       # the vertical line x = c
        counts[c + n * y] += 1
    for z in range(n):
        for x in range(n):
            counts[x + n * (int(offsets[z]) ^ int(star[x, z]))] += 1
    witness = next(((x, y, counts[x + n * y]) for x in range(n)
                    for y in range(n) if counts[x + n * y] not in (0, 2)), None)
    return np.array(counts), witness


def bivariate_product_dual_naive(star, G):
    """0 iff y = 0 or x = G(z) + y*z for some z, one point at a time
    against the set of the values G(z) + y*z of row y (Python ints)."""
    size = len(G)
    out = np.ones(size * size, dtype=np.uint8)
    for y in range(size):
        hit = {int(G[z]) ^ int(star[y][z]) for z in range(size)}
        for x in range(size):
            if y == 0 or x in hit:
                out[x + size * y] = 0
    return out


# ---------------------------------------------------------------------------
# prequasifields: all-triples axioms, the per-member spread loops and the
# per-z diagonal square roots
# ---------------------------------------------------------------------------

def carrier_form(Q):
    """B(x, y) on Q's carrier: tr(xy) on F, per coordinate on F x F."""
    tr = trace_form(Q.field)
    if Q.shape == "flat":
        return tr
    m, low = Q.m, Q.field.size - 1
    return lambda x, y: tr(x & low, y & low) ^ tr(x >> m, y >> m)


def b_form_masks(Q):
    """Packed a + size*b -> the mask m with parity(m & (x + size*y)) =
    B(a, x) + B(b, y) for all x, y: the spectrum index of the bivariate
    inner product, bit by bit from `carrier_form`."""
    bform = carrier_form(Q)
    n = Q.size
    mask = [sum(bform(a, 1 << i) << i for i in range(Q.dim)) for a in range(n)]
    return np.array([mask[a] | mask[b] << Q.dim for b in range(n)
                     for a in range(n)], dtype=np.int64)


def pqf_mul(Q, x, z):
    """x o z, one table entry."""
    return int(Q.table[x, z])


def right_mult_rows(Q, z):
    """Images of the basis under R_z(x) = x o z (rows of its matrix)."""
    return [pqf_mul(Q, 1 << i, z) for i in range(Q.dim)]


def pack(Q, x1, x2):
    """The pair-carrier element (x1, x2) as x1 + 2^m * x2."""
    assert Q.shape == "pair"
    return x1 | (x2 << Q.m)


def unpack(Q, x):
    """The coordinates (x1, x2) of a pair-carrier element."""
    assert Q.shape == "pair"
    return x & (Q.field.size - 1), x >> Q.m


def validate_naive(Q):
    """`validate_prequasifield(Q).as_dict()` without `exhaustive`, with
    every axiom and flag checked over all triples.

    Witnesses follow the library's rules: the smallest failing x or z, and
    for right distributivity the smallest failing column z, then the
    smallest y = 2^i, then the smallest x < y.  That such a triple exists
    whenever any triple of column z fails is asserted here."""
    n = Q.size
    t = [[int(v) for v in row] for row in Q.table]
    full = set(range(n))
    failures = {}
    x = next((x for x in range(n) if t[x][0] != 0), None)
    if x is not None:
        failures["right_zero"] = [x]
    z = next((z for z in range(n) if t[0][z] != 0), None)
    if z is not None:
        failures["zero_times"] = [z]
    z = next((z for z in range(1, n) if {row[z] for row in t} != full), None)
    if z is not None:
        failures["right_mult_not_bijective"] = [z]
    x = next((x for x in range(1, n) if set(t[x]) != full), None)
    if x is not None:
        failures["left_section_not_bijective"] = [x]

    def rd_fails(x, y, z):
        return t[x ^ y][z] != t[x][z] ^ t[y][z]

    z = next((z for z in range(n)
              if any(rd_fails(x, y, z) for x in range(n) for y in range(n))),
             None)
    if z is not None:
        witness = next(([x, 1 << i, z] for i in range(Q.dim)
                        for x in range(1 << i) if rd_fails(x, 1 << i, z)), None)
        assert witness is not None, "the doubling triples miss a failure"
        failures["right_distributive"] = witness

    ok = not failures
    left = all(t[x][y ^ z] == t[x][y] ^ t[x][z]
               for x, y, z in itertools.product(range(n), repeat=3))
    identity = any(all(t[x][e] == x and t[e][x] == x for x in range(n))
                   for e in range(1, n))
    commutative = all(t[x][y] == t[y][x] for x in range(n) for y in range(n))
    symplectic = False
    if ok:
        bform = carrier_form(Q)
        b = [[bform(x, y) for y in range(n)] for x in range(n)]
        symplectic = all(b[t[x][z]][y] == b[x][t[y][z]]
                         for x, y, z in itertools.product(range(n), repeat=3))
    return {"axioms_ok": ok, "is_quasifield": ok and identity,
            "is_presemifield": ok and left,
            "is_commutative": ok and commutative,
            "is_symplectic": symplectic, "failures": failures}


def spread_cover_naive(Q):
    """(ok, witness) of `verify_spread`, member by member: the smallest
    nonzero packed point x + size*y not covered exactly once."""
    n = Q.size
    cover = [0] * (n * n)
    for y in range(n):                       # the vertical member
        cover[n * y] += 1
    for z in range(n):
        for x in range(n):
            cover[x + n * int(Q.table[x, z])] += 1
    bad = next((p for p in range(1, n * n) if cover[p] != 1), None)
    return bad is None, bad


def perpendicular_naive(Q, Qt):
    """B(e_i, e_j o' z) = B(e_i o z, e_j) for every z and basis pair."""
    bform = carrier_form(Q)
    for z in range(Q.size):
        for i in range(Q.dim):
            for j in range(Q.dim):
                if bform(1 << i, int(Qt.table[1 << j, z])) != \
                        bform(int(Q.table[1 << i, z]), 1 << j):
                    return False
    return True


def diagonal_sqrt(mat, F):
    """Component-wise square roots of the diagonal of a symmetric matrix
    over F, in natural order."""
    t = len(mat)
    for i in range(t):
        for j in range(t):
            if mat[i][j] != mat[j][i]:
                raise ValueError("matrix must be symmetric")
    return tuple(F.sqrt(mat[i][i]) for i in range(t))


def f_matrix_rep(Q, z):
    """Matrix of R_z over F (1x1 for the field; 2x2 for pair carriers,
    valid when right multiplications are F-linear, as for Lueneburg)."""
    F = Q.field
    if Q.shape == "flat":
        if Q.kind != "field":
            raise ValueError("flat F-matrix representation is only the "
                             "field's multiplication-by-z")
        return [[z]]
    basis = (pack(Q, 1, 0), pack(Q, 0, 1))
    rows = [unpack(Q, pqf_mul(Q, e, z)) for e in basis]
    for e, row in zip(basis, rows):
        for lam in range(F.size):           # R_z(lam e) = lam R_z(e)
            lam_e = pack(Q, *(F.mul(lam, v) for v in unpack(Q, e)))
            if pqf_mul(Q, lam_e, z) != pack(Q, F.mul(lam, row[0]),
                                           F.mul(lam, row[1])):
                raise ValueError("right multiplication is not F-linear")
    return [list(r) for r in rows]


def orthonormal_basis_field(F):
    """Basis of F over GF(2) with tr(b_i b_j) = delta_ij (a self-dual
    basis; one exists for every m in characteristic 2), by a deterministic
    DFS over the scalar trace form."""
    tr = trace_form(F)

    def rec(chosen, cands):
        if len(chosen) == F.deg:
            return chosen
        for i, v in enumerate(cands):
            got = rec(chosen + [v], [w for w in cands[i + 1:] if tr(v, w) == 0])
            if got:
                return got
        return None

    basis = rec([], [v for v in range(1, F.size) if tr(v, v) == 1])
    assert basis is not None, "self-dual bases exist over GF(2)"
    return basis


def orthonormal_basis(Q):
    """Carrier basis orthonormal for B (per coordinate for pair shape)."""
    base = orthonormal_basis_field(Q.field)
    return base if Q.shape == "flat" else base + [b << Q.m for b in base]


def matrix_rep_naive(Q, z, basis):
    """Bit matrix of R_z in the basis b: M[i][j] = B(b_i o z, b_j), one
    entry at a time."""
    bform = carrier_form(Q)
    return [[bform(pqf_mul(Q, bi, z), bj) for bj in basis] for bi in basis]


def _symmetric(mat):
    return all(mat[i][j] == mat[j][i]
               for i in range(len(mat)) for j in range(len(mat)))


def symmetric_rep_naive(Q, basis):
    """Symplectic, decided apart from `spread.is_symplectic`: every M_z
    symmetric in the orthonormal basis, one z at a time."""
    return all(_symmetric(matrix_rep_naive(Q, z, basis)) for z in range(Q.size))


def sqrt_diag_naive(Q, basis):
    """`sqrt_diag_g_table` one z at a time.  Rejected unless every M_z is
    symmetric in the orthonormal `basis` (`symmetric_rep_naive`); then
    sqrt(z) for the field, the square roots of the F-matrix diagonal for
    pair carriers whose right multiplications are F-linear, and for the
    rest the sum of the b_i with B(b_i o z, b_i) = 1."""
    if not symmetric_rep_naive(Q, basis):
        raise ValueError("diagonal construction needs a symplectic spread")
    F = Q.field
    if Q.kind == "field" or Q.shape == "pair":
        try:
            diags = [diagonal_sqrt(f_matrix_rep(Q, z), F) for z in range(Q.size)]
            return np.array([pack(Q, *d) if Q.shape == "pair" else d[0]
                             for d in diags], dtype=np.int64)
        except ValueError as e:
            if "F-linear" not in str(e):
                raise
    out = np.zeros(Q.size, dtype=np.int64)
    for z in range(Q.size):
        mz = matrix_rep_naive(Q, z, basis)
        for i, bi in enumerate(basis):
            if mz[i][i]:
                out[z] ^= bi
    return out


def adjoint_naive(maps, Q):
    """(size, k) tables of the adjoints of k linear maps, each given by its
    list of basis images: one `brute_adjoint` search per map over the form
    tabulated once from `carrier_form`, applied to every x."""
    bform = carrier_form(Q)
    bmat = [[bform(x, y) for y in range(Q.size)] for x in range(Q.size)]
    out = np.zeros((Q.size, len(maps)), dtype=np.int64)
    for c, images in enumerate(maps):
        adj = brute_adjoint(images, lambda x, y: bmat[x][y], Q.dim)
        out[:, c] = [apply(adj, x) for x in range(Q.size)]
    return out


def left_adjoint_naive(Q):
    """Table of z . y = L_z^*(y): row z is the brute-force adjoint of
    L_z(x) = z o x, whose basis images are z o e_i."""
    return adjoint_naive([[pqf_mul(Q, z, 1 << i) for i in range(Q.dim)]
                          for z in range(Q.size)], Q).T


def dumps_pqf_naive(Q):
    """The table file text with every entry formatted on its own."""
    lines = [f"q={Q.size} shape={Q.shape}"]
    for x in range(Q.size):
        lines.append(" ".join(str(int(v)) for v in Q.table[x]))
    return "\n".join(lines) + "\n"


def oval_from_g_naive(g, params):
    """(points, infinite tags) of the oval of a circle map by the formula:
    u / g(u) for g(u) != 0, and the circle index of u where g(u) = 0."""
    K = params.K
    points, infinite = set(), set()
    for j, gv in enumerate(g.values):
        if gv == 0:
            infinite.add(j)
        else:
            points.add(K.mul(int(params.S[j]), K.inv(int(params.embed[gv]))))
    return frozenset(points), frozenset(infinite)


# ---------------------------------------------------------------------------
# catalog circle maps, one circle element at a time
# ---------------------------------------------------------------------------

def rho_subiaco_naive(params):
    """F-indices of rho(u) = u^5 / (u^10 + u^6 + u^5 + u^4 + 1) over the
    circle in circle order, by scalar powers."""
    K = params.K
    out = []
    for u in params.S.tolist():
        den = K.pow(u, 10) ^ K.pow(u, 6) ^ K.pow(u, 5) ^ K.pow(u, 4) ^ 1
        out.append(project_naive(K.mul(K.pow(u, 5), K.inv(den)), params))
    return out


def rho_adelaide_naive(params):
    """F-indices of rho(u) = u (u^(1/3) + 1)^3 / (u + 1)^3, rho(1) = 1;
    the cube root is u^(1/3 mod q+1), since u^(q+1) = 1 on the circle."""
    K = params.K
    inv3 = pow(3, -1, params.q + 1)
    out = [1]
    for u in params.S.tolist()[1:]:
        num = K.mul(u, K.pow(K.pow(u, inv3) ^ 1, 3))
        out.append(project_naive(K.mul(num, K.inv(K.pow(u ^ 1, 3))), params))
    return out


def fisher_schmidt_naive(params):
    """{u + u^3 + u^-3 : u in S} by scalar powers."""
    K = params.K
    return {u ^ K.pow(u, 3) ^ K.pow(u, -3) for u in params.S.tolist()}


# ---------------------------------------------------------------------------
# collineations and the quadratic form, one point at a time
# ---------------------------------------------------------------------------

def gl2_action_naive(F, f_table, e_table, mat, frob):
    """(f o psi^-1, E') of `spreadbent.action_gl2` on packed tables over
    F x F, with psi(x, y) = (x', y') [[alpha, beta], [gamma, delta]] for
    x' = x^(2^frob) applied point by point, and E' the image of E under
    psi followed by division by det."""
    size = F.size
    alpha, beta, gamma, delta = mat
    inv_det = F.inv(F.mul(alpha, delta) ^ F.mul(beta, gamma))
    f_psi = np.zeros_like(f_table)
    e_psi = np.zeros_like(e_table)
    for x in range(size):
        for y in range(size):
            xs, ys = x, y
            for _ in range(frob % F.deg):
                xs, ys = F.sqr(xs), F.sqr(ys)
            nx = F.mul(xs, alpha) ^ F.mul(ys, gamma)
            ny = F.mul(xs, beta) ^ F.mul(ys, delta)
            f_psi[nx + size * ny] = f_table[x + size * y]
            e_psi[F.mul(nx, inv_det) + size * F.mul(ny, inv_det)] = \
                e_table[x + size * y]
    return f_psi, e_psi


def quadratic_rank_naive(table, k):
    """GF(2) rank of the form f(e_i + e_j) + f(e_i) + f(e_j) + f(0), the
    k x k matrix built entry by entry and reduced by row elimination."""
    t = [int(v) for v in table]
    mat = [[t[(1 << i) ^ (1 << j)] ^ t[1 << i] ^ t[1 << j] ^ t[0]
            for j in range(k)] for i in range(k)]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, k) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(k):
            if r != rank and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank
