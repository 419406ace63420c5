"""Bivariate bent functions linear on the members of a spread Sigma(Q).

A function on V x V (V the carrier of a prequasifield Q) that is linear
on every spread member is determined by a map G : V -> V and mu in V:
f(0, y) = B(mu, y) and f(x, x o z) = B(G(z), x).  Truth tables pack the
point (x, y) as x + size*y, below 2^24 for carriers of dimension <= 12,
so packed indices are int32 like the carrier tables.

Bentness is equivalent to: G bijective and z -> G(z) + b*z 2-to-1 for
every b != 0 (star = transpose multiplication), and to the 0-or-2 cover
property of the line oval {x=0} u {y = G(z) + x*z} in A(Q^t).  The line
oval is the bentness guard: `line_oval_bivariate` raises unless the cover
property holds, and the `BivariateLineOval` it returns exists only for a
bent function.  The dual is computed along three independent routes,
each from the object it needs: Walsh signs of the truth table, the
product formula over the line oval's offsets, and the coordinate swap of
its covered set; they agree bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boolfn, kernels, spread as spread_mod
from .spread import Prequasifield


@dataclass(frozen=True)
class SpreadBentSpec:
    Q: Prequasifield
    G: np.ndarray
    mu: int = 0

    def __post_init__(self):
        size = self.Q.size
        if self.G.shape != (size,):
            raise ValueError("G must be a table over the carrier")
        if not 0 <= self.mu < size:
            raise ValueError(f"mu must be a carrier element in [0, {size})")
        if self.G.min() < 0 or self.G.max() >= size:
            raise ValueError(f"G values must be carrier elements in [0, {size})")


@dataclass(frozen=True)
class BivariateLineOval:
    """The line {x = c} plus size lines {y = offsets[z] + x * z} in A(Q^t)."""
    size: int
    c: int
    offsets: np.ndarray
    e_table: np.ndarray  # uint8 over packed points x + size*y

    def e_size(self) -> int:
        return int(self.e_table.sum())


def star_table(Q: Prequasifield) -> np.ndarray:
    """Multiplication table of the transpose prequasifield Q^t (kept on Q)."""
    return Q.transposed().table


def g_square_star(Q: Prequasifield) -> np.ndarray:
    """G(z) = z * z in the transpose multiplication (the o-polynomial of
    the commutative-transpose construction)."""
    st = star_table(Q)
    return st[np.arange(Q.size), np.arange(Q.size)].copy()


def normalize_mu(spec: SpreadBentSpec) -> SpreadBentSpec:
    """EA-reduction of mu to 0: G(z) gains R_z^*(mu) = mu * z."""
    if spec.mu == 0:
        return spec
    st = star_table(spec.Q)
    return SpreadBentSpec(spec.Q, spec.G ^ st[spec.mu, :], 0)


def walsh_masks(Q: Prequasifield) -> np.ndarray:
    """Spectrum re-indexing for the bivariate inner product B(a,x)+B(b,y):
    int32 like the B masks, since its 2*dim <= 24-bit entries fit."""
    bm = Q.b_mask_table()
    return (bm[None, :] | (bm[:, None] << Q.dim)).ravel()


def bent_bivariate(spec: SpreadBentSpec) -> boolfn.BooleanFunction:
    """Truth table on 2*dim bits of the spread-linear function."""
    Q = spec.Q
    out = np.zeros(Q.size * Q.size, dtype=np.uint8)
    kernels.bivariate_table_fill(Q.table, spec.G, Q.b_bit_table(), out)
    if spec.mu:
        out[0::Q.size][:] = Q.b_bit_table()[spec.mu, :]
    return boolfn.BooleanFunction(2 * Q.dim, out)


def _is_permutation(values: np.ndarray, size: int) -> bool:
    """values is a permutation of 0..size-1 (sort-and-compare: np.unique
    imports numpy.ma, 12 ms of every fresh process)."""
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
    for b0, bs in kernels.row_blocks(Q.size):
        vals = spec.G ^ st[b0:b0 + bs.shape[0]]          # [b, z]
        counts = np.bincount((vals + Q.size * (bs - b0)).ravel(),
                             minlength=vals.size).reshape(vals.shape)
        bad = (counts != 0) & (counts != 2)
        if b0 == 0:
            bad[0] = False                                # b = 0 is exempt
        if bad.any():
            i, v = divmod(int(np.argmax(bad)), Q.size)
            return False, ("not_two_to_one", b0 + i, v)
    return True, None


def line_oval_bivariate(spec: SpreadBentSpec) -> BivariateLineOval:
    """The line oval of the mu-normalized spec; raises ValueError with a
    witness point unless it covers every point 0 or 2 times, that is
    unless the spec is bent."""
    spec = normalize_mu(spec)
    return _materialize_line_oval(spec.Q, 0, spec.G.copy())


def _materialize_line_oval(Q: Prequasifield, c: int,
                           offsets: np.ndarray) -> BivariateLineOval:
    """Cover counts scattered line by line, in blocks of lines z: the
    line {y = offsets[z] + x * z} holds the points x + size*y over all x."""
    st_cols = star_table(Q).T                     # [z, x] = x * z
    counts = np.zeros(Q.size * Q.size, dtype=np.int32)
    xs = np.arange(Q.size, dtype=np.int32)
    counts[c + Q.size * xs] += 1
    for z0, zs in kernels.row_blocks(Q.size):
        ys = offsets[zs] ^ st_cols[z0:z0 + zs.shape[0]]
        # an int32 increment keeps np.add.at on its fast path; a
        # Python int 1 makes it about ten times slower
        np.add.at(counts, xs + Q.size * ys, np.int32(1))
    bad = np.nonzero((counts != 0) & (counts != 2))[0]
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"not a line oval: point ({p % Q.size}, {p // Q.size}) "
                         f"lies on {int(counts[p])} lines")
    e_table = (counts > 0).view(np.uint8)
    assert int(e_table.sum()) == (Q.size * Q.size) // 2 + Q.size // 2
    return BivariateLineOval(Q.size, c, offsets, e_table)


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


def dual_walsh(f: boolfn.BooleanFunction,
               Q: Prequasifield) -> boolfn.BooleanFunction:
    """Walsh-sign dual of the truth table f over the carrier of Q."""
    return boolfn.dual(f, walsh_masks(Q))


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
    """1 + chi_E(y, x): complement of the covered set, coordinates swapped."""
    size = oval.size
    t = oval.e_table.reshape(size, size)
    return boolfn.BooleanFunction(2 * (size.bit_length() - 1), (1 ^ t.T).ravel())


# ---------------------------------------------------------------------------
# collineation and shift actions
# ---------------------------------------------------------------------------

def action_linear_shift(spec: SpreadBentSpec, u: int, v: int):
    """f + tr(ux + vy); the line oval translates by (v, u)."""
    spec = normalize_mu(spec)
    Q = spec.Q
    f = bent_bivariate(spec)
    mask = Q.b_mask(u) | (Q.b_mask(v) << Q.dim)
    f_uv = boolfn.add_affine(f, mask)
    st = star_table(Q)
    oval_uv = _materialize_line_oval(Q, v, spec.G ^ u ^ st[v, :])
    return f_uv, oval_uv


def action_rho(spec: SpreadBentSpec, c: int) -> SpreadBentSpec:
    """The collineation (x, y) -> (x, y + x o c) replaces G(z) by G(z + c)."""
    spec = normalize_mu(spec)
    zs = np.arange(spec.Q.size)
    return SpreadBentSpec(spec.Q, spec.G[zs ^ c].copy(), 0)


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

    Returns (transformed function, transformed covered set) where the
    covered set is E(O) mapped through (phi^*)^(-1) per coordinate."""
    spec = normalize_mu(spec)
    Q = spec.Q
    if not is_automorphism(Q, phi):
        raise ValueError("phi is not an automorphism of Q")
    f = bent_bivariate(spec)
    inv_phi = np.argsort(phi)
    idx = inv_phi[None, :] + Q.size * inv_phi[:, None]
    f_phi = boolfn.BooleanFunction(f.k, f.table[idx.ravel()])

    phi_star = spread_mod.adjoint(phi[1 << np.arange(Q.dim), None], Q)[:, 0]
    inv_star = np.argsort(phi_star)
    e = line_oval_bivariate(spec).e_table.reshape(Q.size, Q.size)
    e_phi = np.zeros_like(e)
    e_phi[np.ix_(inv_star, inv_star)] = e
    return f_phi, e_phi.ravel()


def action_gl2(spec: SpreadBentSpec, mat: tuple[int, int, int, int],
               frob: int = 0):
    """Semilinear plane map psi = sigma^frob followed by the matrix
    [[alpha, beta], [gamma, delta]] acting on row vectors (x, y); needs a
    Desarguesian (field) spread.

    Returns (f o psi^(-1), E') where the covered set of the dual's line
    oval transforms through psi composed with the scalar 1/det, i.e.
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

    def plane_map(a: int, b: int, c: int, d: int) -> np.ndarray:
        """Packed image of x + size*y under (x, y) -> (x', y') [[a, b], [c, d]]
        with x' = sigma^frob(x), y' = sigma^frob(y)."""
        nx = F.mul_arr(sigma, a)[None, :] ^ F.mul_arr(sigma, c)[:, None]
        ny = F.mul_arr(sigma, b)[None, :] ^ F.mul_arr(sigma, d)[:, None]
        return (nx + size * ny).ravel()

    perm = plane_map(*mat)                                  # the plane map psi
    perm_e = plane_map(*(F.mul(v, inv_det) for v in mat))   # psi scaled by 1/det

    f = bent_bivariate(spec)
    f_psi_table = np.zeros_like(f.table)
    f_psi_table[perm] = f.table          # f'(psi(p)) = f(p)
    f_psi = boolfn.BooleanFunction(f.k, f_psi_table)

    e = line_oval_bivariate(spec).e_table
    e_psi = np.zeros_like(e)
    e_psi[perm_e] = e
    return f_psi, e_psi


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
    chi-swap routes read it."""
    spec0 = normalize_mu(spec)
    Q = spec0.Q
    f = bent_bivariate(spec0)
    spectrum = boolfn.walsh_transform(f)
    bent = spectrum.is_bent()
    dual = spectrum.dual(walsh_masks(Q)) if bent else None
    del spectrum        # 4 MB at 2^20 points, done with after the Walsh dual
    crit, witness = bent_criterion(spec0)
    oval = None
    if crit:
        try:
            oval = line_oval_bivariate(spec0)
        except ValueError:
            pass
    out = {
        "bent": bent,
        "criterion": crit,
        "criterion_witness": witness,
        "lineoval_ok": oval is not None,
        "verdicts_agree": bent == crit == (oval is not None),
    }
    if bent:
        out["dual_routes_agree"] = oval is not None and bool(
            dual == dual_product(oval, Q) and dual == dual_chi_swap(oval))
        if oval is not None:
            out["e_size"] = oval.e_size()
        out["degree"] = boolfn.degree(f)
        # Rothaus: degree <= k/2 for k >= 4; on k = 2, xy is bent of degree 2
        assert out["degree"] <= max(2, Q.dim), "bent degree exceeds max(2, k/2)"
        if out["degree"] <= 2:
            out["quadratic_rank"] = boolfn.quadratic_rank(f, out["degree"])
    return out, f, dual
