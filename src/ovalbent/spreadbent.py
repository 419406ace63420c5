"""Bivariate bent functions linear on the members of a spread Sigma(Q).

A function on V x V (V the carrier of a prequasifield Q) that is linear
on every spread member is determined by a map G : V -> V and mu in V:
f(0, y) = B(mu, y) and f(x, x o z) = B(G(z), x).  Truth tables pack the
point (x, y) as x + size*y, below 2^24 for carriers of dimension <= 12.
The carrier tables are int16, in which size * entry wraps, so the
kernels form every packed index as intp before a table value enters it.

Bentness is equivalent to: G bijective and z -> G(z) + b*z 2-to-1 for
every b != 0 (star = transpose multiplication), and to the 0-or-2 cover
property of the line oval {x=0} u {y = G(z) + x*z} in A(Q^t).  The line
oval is the bentness guard: `line_oval_bivariate` raises `NotALineOval`
(`geometry.NotALineOval`, the line-oval verdict of both settings) with
the point (x, y) and its count unless the cover property holds, and the
`BivariateLineOval` it returns exists only for a bent function.  The
dual is computed along three independent routes, each from the object
it needs: Walsh signs of the truth table, the product formula over the
line oval's offsets, and the complement of its covered set E read flat,
since E is the [x, y] table in which its cover is counted, and that is
the coordinate swap; they agree bit-exactly.

Every B bit is read off the 1-D B-mask table of the carrier, so the form
needs no size^2 table: the fill counts B(G(z), x) per row block, and the
Walsh-sign dual w.r.t. the direct sum B(a, x) + B(b, y) is the plain
sign dual gathered along each axis by the mask table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boolfn, kernels, spread as spread_mod
from .geometry import NotALineOval
from .inputs import DomainError
from .spread import Prequasifield


@dataclass(frozen=True)
class SpreadBentSpec:
    """f(0, y) = B(mu, y) and f(x, x o z) = B(G(z), x).  The spec owns G:
    kept, not copied, and read-only, so line ovals share it uncopied."""
    Q: Prequasifield
    G: np.ndarray
    mu: int = 0

    def __post_init__(self):
        size = self.Q.size
        if self.G.shape != (size,):
            raise DomainError("G must be a table over the carrier")
        if not 0 <= self.mu < size:
            raise DomainError(f"mu must be a carrier element in [0, {size})")
        if self.G.min() < 0 or self.G.max() >= size:
            raise DomainError(f"G values must be carrier elements in [0, {size})")
        self.G.flags.writeable = False


@dataclass(frozen=True)
class BivariateLineOval:
    """The line {x = c} plus size lines {y = offsets[z] + x * z} in A(Q^t).
    Both arrays are owned: kept, not copied, and read-only."""
    c: int
    offsets: np.ndarray
    e_table: np.ndarray  # uint8 (size, size) [x, y]: 1 on E(O)

    def __post_init__(self):
        self.offsets.flags.writeable = False
        self.e_table.flags.writeable = False

    def e_size(self) -> int:
        return int(np.count_nonzero(self.e_table))


def star_table(Q: Prequasifield) -> np.ndarray:
    """Table of Q^t: Q's own when Q is symplectic (`spread.is_symplectic`:
    then Q^t = Q, and no transpose is built), else the transpose kept on
    Q."""
    return Q.table if spread_mod.is_symplectic(Q) else Q.transposed().table


def g_square_star(Q: Prequasifield) -> np.ndarray:
    """G(z) = z * z in the transpose multiplication (the o-polynomial of
    the commutative-transpose construction)."""
    st = star_table(Q)
    return st[np.arange(Q.size), np.arange(Q.size)]


def normalize_mu(spec: SpreadBentSpec) -> SpreadBentSpec:
    """EA-reduction of mu to 0: G(z) gains R_z^*(mu) = mu * z."""
    if spec.mu == 0:
        return spec
    st = star_table(spec.Q)
    return SpreadBentSpec(spec.Q, spec.G ^ st[spec.mu, :], 0)


def bent_bivariate(spec: SpreadBentSpec) -> boolfn.BooleanFunction:
    """Truth table on 2*dim bits of the spread-linear function."""
    Q = spec.Q
    bm = Q.b_mask_table()
    out = np.zeros(Q.size * Q.size, dtype=np.uint8)
    kernels.bivariate_table_fill(Q.table, spec.G, bm, out)
    if spec.mu:
        # f(0, y) = B(mu, y) = B(y, mu): B is symmetric
        out[0::Q.size] = np.bitwise_count(bm & spec.mu) & 1
    return boolfn.BooleanFunction(2 * Q.dim, out)


def _is_permutation(values: np.ndarray, size: int) -> bool:
    """values is a permutation of 0..size-1, by sort-and-compare (a plain
    `np.unique(values)` imports numpy.ma on numpy 2.4, about 15 ms of a
    fresh process)."""
    return bool(np.array_equal(np.sort(values), np.arange(size)))


def bent_criterion(spec: SpreadBentSpec):
    """(ok, witness): G bijective and G(z) + b*z 2-to-1 for all b != 0.

    The witness of a failure is the smallest such b, then the smallest
    value taken neither 0 nor 2 times."""
    spec = normalize_mu(spec)
    Q = spec.Q
    if not _is_permutation(spec.G, Q.size):
        return False, ("G_not_bijective",)
    st = star_table(Q)
    for b0, counts in kernels.row_counts(st, spec.G):      # [b, z]
        bad = (counts != 0) & (counts != 2)
        if b0 == 0:
            bad[0] = False                                # b = 0 is exempt
        if bad.any():
            i, v = divmod(int(np.argmax(bad)), Q.size)
            return False, ("not_two_to_one", b0 + i, v)
    return True, None


def line_oval_bivariate(spec: SpreadBentSpec) -> BivariateLineOval:
    """The line oval of the mu-normalized spec; raises NotALineOval with a
    witness point unless it covers every point 0 or 2 times, that is
    unless the spec is bent."""
    spec = normalize_mu(spec)
    return _materialize_line_oval(spec.Q, 0, spec.G)


def _materialize_line_oval(Q: Prequasifield, c: int,
                           offsets: np.ndarray) -> BivariateLineOval:
    """Cover counts per block of x rows (`kernels.row_counts`): the point
    (x, y) lies on the line {y = offsets[z] + x * z} for each z with
    offsets[z] + x * z = y, and on the vertical line iff x = c.  Only the
    uint8 covered set is written, each block into its rows of [x, y]; the
    witness of a failure is the smallest x, then the smallest y, whose
    point lies on neither 0 nor 2 lines, so the count stops at the first
    bad block."""
    size = Q.size
    st = star_table(Q)                            # [x, z] = x * z
    e_table = np.empty((size, size), dtype=np.uint8)
    for x0, counts in kernels.row_counts(st, offsets):    # [x, y]
        b = counts.shape[0]
        if x0 <= c < x0 + b:
            counts[c - x0] += 1                   # the vertical line x = c
        covered = counts != 0
        bad = covered & (counts != 2)
        if bad.any():
            i, y = divmod(int(np.argmax(bad)), size)
            n = int(counts[i, y])
            raise NotALineOval(f"not a line oval: point ({x0 + i}, {y}) "
                               f"lies on {n} lines", (x0 + i, y), n)
        e_table[x0:x0 + b] = covered
    assert np.count_nonzero(e_table) == (size * size) // 2 + size // 2
    return BivariateLineOval(c, offsets, e_table)


# ---------------------------------------------------------------------------
# dual routes
# ---------------------------------------------------------------------------

def spec_from_line_oval(oval: BivariateLineOval, Q: Prequasifield) -> SpreadBentSpec:
    """Backward direction of the bent <-> line-oval correspondence.

    A line oval in A(Q^t) with vertical line x = c is first translated by
    (c, 0) so its vertical line is x = 0; the offsets of the remaining
    lines are then the G table of the corresponding spread-linear bent
    function.  Inverse of `line_oval_bivariate` (exact when c = 0)."""
    st = star_table(Q)
    return SpreadBentSpec(Q, oval.offsets ^ st[oval.c, :], 0)


def _b_form_dual(plain: boolfn.BooleanFunction,
                 Q: Prequasifield) -> boolfn.BooleanFunction:
    """The dual w.r.t. B(a, x) + B(b, y) from the plain sign dual (w.r.t.
    the dot product on packed bits): entry a + size*b is the plain entry
    at mask[a] + size*mask[b].  The form is a direct sum, so this is the
    B-mask permutation along each axis of the (b, a) plane."""
    bm = Q.b_mask_table()
    signs = plain.table.reshape(Q.size, Q.size)          # [b, a]
    return boolfn.BooleanFunction(
        plain.k, np.take(np.take(signs, bm, axis=0), bm, axis=1).ravel())


def dual_walsh(f: boolfn.BooleanFunction,
               Q: Prequasifield) -> boolfn.BooleanFunction:
    """Walsh-sign dual of the truth table f over the carrier of Q."""
    return _b_form_dual(boolfn.dual(f), Q)


def dual_product(oval: BivariateLineOval,
                 Q: Prequasifield) -> boolfn.BooleanFunction:
    """y^(q-1) prod_z (y*z + x + G(z))^(q-1) with the powers read as zero
    indicators: 0 iff y = 0 or x = G(z) + y*z for some z.  G is read off
    the line oval's offsets, so only a bent G reaches the formula."""
    if oval.c != 0:
        raise ValueError("the product formula needs the vertical line x = 0")
    out = np.zeros(Q.size * Q.size, dtype=np.uint8)
    kernels.bivariate_product_dual(star_table(Q), oval.offsets, out)
    return boolfn.BooleanFunction(2 * Q.dim, out)


def dual_chi_swap(oval: BivariateLineOval) -> boolfn.BooleanFunction:
    """1 + chi_E(y, x): the complement of E read flat, since the dual's
    packed index a + size*b is row b, column a of the [x, y] table."""
    k = 2 * (oval.e_table.shape[0].bit_length() - 1)
    return boolfn.BooleanFunction(k, 1 ^ oval.e_table.ravel())


# ---------------------------------------------------------------------------
# collineation and shift actions
# ---------------------------------------------------------------------------

def action_linear_shift(spec: SpreadBentSpec, u: int, v: int):
    """f + tr(ux + vy); the line oval translates by (v, u)."""
    spec = normalize_mu(spec)
    Q = spec.Q
    f = bent_bivariate(spec)
    bm = Q.b_mask_table()
    mask = int(bm[u]) | (int(bm[v]) << Q.dim)
    f_uv = boolfn.add_affine(f, mask)
    st = star_table(Q)
    oval_uv = _materialize_line_oval(Q, v, spec.G ^ u ^ st[v, :])
    return f_uv, oval_uv


def action_rho(spec: SpreadBentSpec, c: int) -> SpreadBentSpec:
    """The collineation (x, y) -> (x, y + x o c) replaces G(z) by G(z + c)."""
    spec = normalize_mu(spec)
    zs = np.arange(spec.Q.size)
    return SpreadBentSpec(spec.Q, spec.G[zs ^ c], 0)


def normalize_g0(spec: SpreadBentSpec) -> SpreadBentSpec:
    """EA-normalization G(0) = 0, reached via c = G^(-1)(0)."""
    spec = normalize_mu(spec)
    zeros = np.nonzero(spec.G == 0)[0]
    if zeros.size != 1:
        raise ValueError("G must be a bijection")
    return action_rho(spec, int(zeros[0]))


def is_automorphism(Q: Prequasifield, phi: np.ndarray) -> bool:
    """phi a GF(2)-linear bijection with phi(x o y) = phi(x) o phi(y)."""
    if not _is_permutation(phi, Q.size) or phi[0] != 0:
        return False
    images = [int(phi[1 << i]) for i in range(Q.dim)]
    if not np.array_equal(kernels.linear_map_table(images, Q.dim), phi):
        return False
    return bool(np.array_equal(phi[Q.table], Q.table[phi][:, phi]))


def action_aut(spec: SpreadBentSpec, phi: np.ndarray):
    """The collineation (x,y) -> (phi(x), phi(y)) for phi in Aut(Q).

    Returns (transformed function, transformed [x, y] covered set) where
    the covered set is E(O) mapped through (phi^*)^(-1) per coordinate."""
    spec = normalize_mu(spec)
    Q = spec.Q
    if not is_automorphism(Q, phi):
        raise ValueError("phi is not an automorphism of Q")
    f = bent_bivariate(spec)
    inv_phi = np.argsort(phi)
    idx = inv_phi[None, :] + Q.size * inv_phi[:, None]
    f_phi = boolfn.BooleanFunction(f.k, f.table[idx.ravel()])

    phi_star = spread_mod.adjoint(phi[1 << np.arange(Q.dim), None], Q)[:, 0]
    e = line_oval_bivariate(spec).e_table    # E'(x, y) = E(phi^*(x), phi^*(y))
    return f_phi, e[np.ix_(phi_star, phi_star)]


def action_gl2(spec: SpreadBentSpec, mat: tuple[int, int, int, int],
               frob: int = 0):
    """Semilinear plane map psi = sigma^frob followed by the matrix
    [[alpha, beta], [gamma, delta]] acting on row vectors (x, y); needs a
    Desarguesian (field) spread.

    Returns (f o psi^(-1), E') where the [x, y] covered set of the dual's
    line oval transforms through psi composed with the scalar 1/det, i.e.
    E' = sigma^frob(E) . M / det: decomposing psi into a unimodular part,
    a scalar lambda*I (whose induced action on the dual side is division
    by lambda) and the field automorphism handles a general determinant.
    """
    spec = normalize_mu(spec)
    Q = spec.Q
    if Q.kind != "field":
        raise ValueError("GL(2,q)<sigma> acts on the Desarguesian spread")
    F = Q.field
    alpha, beta, gamma, delta = mat
    det = F.mul(alpha, delta) ^ F.mul(beta, gamma)
    if det == 0:
        raise ValueError("singular matrix")
    inv_det = F.inv(det)
    size = Q.size
    sigma = F.pow_table(1 << (frob % F.deg))

    def plane_map(a: int, b: int, c: int, d: int):
        """(x', y') = (x, y) [[a, b], [c, d]] over the [x, y] plane, where
        x = sigma^frob(row index) and y = sigma^frob(column index)."""
        x, y = sigma[:, None], sigma[None, :]
        return F.mul_arr(x, a) ^ F.mul_arr(y, c), F.mul_arr(x, b) ^ F.mul_arr(y, d)

    f = bent_bivariate(spec)
    nx, ny = plane_map(*mat)                                  # the plane map psi
    f_psi = np.zeros((size, size), dtype=np.uint8)            # [y', x']
    f_psi[ny, nx] = f.table.reshape(size, size).T             # f'(psi(p)) = f(p)

    e = line_oval_bivariate(spec).e_table
    nx, ny = plane_map(*(F.mul(v, inv_det) for v in mat))    # psi scaled by 1/det
    e_psi = np.zeros_like(e)
    e_psi[nx, ny] = e
    return boolfn.BooleanFunction(f.k, f_psi.ravel()), e_psi


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def analyze(spec: SpreadBentSpec):
    """(report, f, dual): the verdicts and invariants of the CLI report,
    the truth table f of the mu-normalized spec, and its Walsh-sign dual
    (None unless f is bent).

    One truth table, one Walsh spectrum and one criterion run: the
    bentness verdict and the Walsh-sign dual read the same spectrum.  The
    line oval is built only when the criterion holds, and the product and
    chi-swap routes read it; if its cover fails there, the verdicts
    disagree and `lineoval_witness` names the point.  If a route's dual
    differs from the Walsh-sign dual, `dual_routes_witness` names the
    first such route and the smallest packed point where they differ."""
    spec0 = normalize_mu(spec)
    Q = spec0.Q
    f = bent_bivariate(spec0)
    spectrum = boolfn.walsh_transform(f)
    bent = spectrum.is_bent()
    plain = spectrum.dual() if bent else None
    del spectrum        # 4 MB at 2^20 points: freed before the B-form dual
    dual = _b_form_dual(plain, Q) if bent else None
    del plain
    crit, witness = bent_criterion(spec0)
    oval = lineoval_witness = None
    if crit:
        try:
            oval = line_oval_bivariate(spec0)
        except NotALineOval as e:       # the verdicts disagree
            lineoval_witness = e.point
    out = {
        "bent": bent,
        "criterion": crit,
        "criterion_witness": witness,
        "lineoval_ok": oval is not None,
        "verdicts_agree": bent == crit == (oval is not None),
    }
    if lineoval_witness is not None:
        out["lineoval_witness"] = lineoval_witness
    if bent:
        if oval is not None:
            # each route is built only if the ones before it agree
            for route, build in (("product", lambda: dual_product(oval, Q)),
                                 ("chi_swap", lambda: dual_chi_swap(oval))):
                p = boolfn.first_difference(dual, build())
                if p is not None:
                    out["dual_routes_witness"] = (route, p)
                    break
        out["dual_routes_agree"] = oval is not None and \
            "dual_routes_witness" not in out
        if oval is not None:
            out["e_size"] = oval.e_size()
        out["degree"] = boolfn.degree(f)
        # Rothaus: degree <= k/2 for k >= 4; on k = 2, xy is bent of degree 2
        assert out["degree"] <= max(2, Q.dim), "bent degree exceeds max(2, k/2)"
        if out["degree"] <= 2:
            out["quadratic_rank"] = boolfn.quadratic_rank(f, out["degree"])
    return out, f, dual
