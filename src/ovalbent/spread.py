"""Prequasifields and the spreads they coordinatize.

A prequasifield here is a finite multiplication on a GF(2)-vector space
V (the carrier), right-distributive over XOR, with x o 0 = 0 and a
quasigroup on V*.  Carriers are either F = GF(2^m) ("flat" shape) or
F x F packed as x1 + q*x2 ("pair" shape, used by the Lueneburg spread).

The bilinear form B is tr(xy) on F, and the sum of the coordinate forms
on F x F; its masks are one table per carrier (`b_mask_table`).  A
GF(2)-linear map is a table, built from its basis images by
`kernels.linear_map_table`; one batched `adjoint` w.r.t. B serves the
action of automorphisms on the dual side; the commutative <-> symplectic
partner is the Knuth word dtd.  The Gram array [i, j, z] = B(e_i, e_j o z)
of the basis rows (`Prequasifield.gram`) holds the B bits of every R_z,
so its adjoints give the transpose x star z = R_z^*(x), and it decides
the rest: symplectic (symmetric in i, j: Q^t = Q), perpendicular to a
transpose, and the o-polynomial G read off its diagonal.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from . import kernels
from .gf import BinaryField, binary_field, kept

# GF(2) dimension cap of the carrier: every entry is below 2^12, so the
# (size, size) table is int16 and takes 32 MB at dim 12, and `spread bent`
# holds several size^2 arrays besides; packed points x + size*y stay below
# 2^24, formed in intp since size * entry wraps in int16
MAX_CARRIER_DIM = 12


def carrier_dim(m: int, shape: str) -> int:
    """GF(2) dimension of the carrier, checked against MAX_CARRIER_DIM."""
    if shape not in ("flat", "pair"):
        raise ValueError("shape must be 'flat' or 'pair'")
    dim = m if shape == "flat" else 2 * m
    if not 1 <= dim <= MAX_CARRIER_DIM:
        raise ValueError(f"carrier dimension {dim} is outside "
                         f"1..{MAX_CARRIER_DIM}")
    return dim


class Prequasifield:
    """Multiplication table plus the carrier's bilinear form machinery.

    The constructor takes ownership of the table it is given: an int16
    C-contiguous array is kept as it is, not copied, and becomes
    read-only.  int16 holds every carrier element (below 2^12); any other
    array is copied to int16 once every entry is checked to lie in the
    carrier, so the cast never wraps a value.  Index arithmetic on the
    entries is done in intp (`kernels`).  What is derived from the table
    and the carrier (the B-mask table and its inverse, the Gram array, the
    transpose) is a kept table (`gf.kept`): computed on first call, held
    by this object and read-only.  B is read off the 1-D mask table as
    B(x, y) = parity(mask[x] & y), never from a (size, size) bit table."""

    def __init__(self, m: int, shape: str, table: np.ndarray,
                 kind: str = "table", name: str | None = None):
        self.dim = carrier_dim(m, shape)
        self.m = m
        self.shape = shape
        self.field = binary_field(m)
        self.size = 1 << self.dim
        if table.shape != (self.size, self.size):
            raise ValueError("multiplication table has the wrong shape")
        if table.dtype != np.int16 and (
                table.min() < 0 or table.max() >= self.size):
            raise ValueError(f"table entries must lie in [0, {self.size})")
        self.table = np.ascontiguousarray(table, dtype=np.int16)
        self.table.flags.writeable = False
        self.kind = kind
        self.name = name or kind

    @classmethod
    def from_evaluator(cls, m: int, shape: str, mul_block, kind: str,
                       name: str | None = None) -> "Prequasifield":
        """Table filled a block of rows at a time.

        mul_block(xs, zs) gets a column xs of shape (b, 1) holding
        consecutive x and the row zs of the whole carrier, and returns
        the (b, size) array of the products x o z (any array that
        broadcasts to it), carrier elements, which the int16 table holds.
        It must evaluate the rule at every (x, z): rows built by XOR from
        the basis rows would make the right distributivity check of
        `validate_prequasifield` vacuous.  Rows
        gathered from product-row tables comply: a table [a, z] = a c(z)
        over a field coordinate a, computed for every z, read at the
        coordinates of x (as in `luneburg`), is the rule at each entry.  A
        block holds about `kernels.BLOCK_ENTRIES` entries, so the
        evaluator's temporaries stay small at every carrier size."""
        size = 1 << carrier_dim(m, shape)
        zs = np.arange(size, dtype=np.int32)
        table = np.empty((size, size), dtype=np.int16)
        for x0, xs in kernels.row_blocks(size):
            table[x0:x0 + xs.shape[0]] = mul_block(xs, zs)
        return cls(m, shape, table, kind, name)

    # -- the bilinear form ---------------------------------------------------

    @kept
    def b_mask_table(self) -> np.ndarray:
        """B masks of the whole carrier, B(a, x) = parity(mask[a] & x): the
        trace form's masks on F, and on F x F those of each coordinate,
        side by side."""
        dm = self.field.dot_mask_table()
        if self.shape == "pair":
            dm = (dm[None, :] | (dm[:, None] << self.m)).ravel()
        return dm

    @kept
    def b_mask_inverse(self) -> np.ndarray:
        """The vector with a given B mask: B is nondegenerate, so the mask
        table is a permutation of the carrier and this is its inverse."""
        inv = np.empty(self.size, dtype=np.int32)
        inv[self.b_mask_table()] = np.arange(self.size)
        return inv

    @kept
    def gram(self) -> np.ndarray:
        """[i, j, z] = B(e_i, e_j o z): the B bits of the basis rows, the
        matrices of the right multiplications R_z in the standard basis."""
        return _form_bits(self.table[1 << np.arange(self.dim)], self)

    @kept
    def transposed(self) -> "Prequasifield":
        """Q^t, computed once from this table by `transpose_pqf` and kept.
        Its own transpose is computed from its table in turn, never taken
        to be this object."""
        return transpose_pqf(self)

    def __repr__(self) -> str:
        return (f"Prequasifield({self.name}, m={self.m}, shape={self.shape}, "
                f"size={self.size})")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def field_pqf(m: int) -> Prequasifield:
    """GF(2^m) itself, x o z = xz."""
    F = binary_field(carrier_dim(m, "flat"))    # the carrier cap comes first
    return Prequasifield.from_evaluator(m, "flat", F.mul_arr, kind="field")


def kantor_chain(m: int, subdegrees: list[int], lambdas: list[int],
                 zetas: list[int]) -> Prequasifield:
    """The two-sum multiplication over a chain F > F_1 > ... > F_n:

      x o y = x y^2 + sum_i [c_{i-1} y T_i(c_{i-1} x y) + c_i y T_i(c_i x y)]
                    + sum_i [c_{i-1} y T_i(x zeta_i) + zeta_i T_i(c_{i-1} x y)]

    with c_i the prefix products of the lambdas (lambda_0 = 1), T_i the
    trace onto F_i.  Requires [F : F_n] odd, lambda_i in F_i*.
    The result coordinatizes a symplectic spread: every right
    multiplication is self-adjoint since tr(a T_i(b)) = tr_i(T_i(a) T_i(b)).
    """
    F = binary_field(carrier_dim(m, "flat"))    # the carrier cap comes first
    degs = [m] + list(subdegrees)
    for a, b in zip(degs, degs[1:]):
        if not isinstance(b, Integral) or not 1 <= b < a or a % b:
            raise ValueError("each subfield degree d must satisfy 1 <= d < its "
                             "predecessor in the chain and divide it")
    if (m // degs[-1]) % 2 == 0:
        raise ValueError("[F : F_n] must be odd")
    n_links = len(subdegrees)
    if len(lambdas) != n_links or len(zetas) != n_links:
        raise ValueError("need one lambda and one zeta per chain link")
    if any(not 0 <= v < F.size for v in lambdas + zetas):
        raise ValueError(f"lambdas and zetas must be F-indices below {F.size}")
    for lam, d in zip(lambdas, subdegrees):
        if lam == 0 or F.pow(lam, 1 << d) != lam:
            raise ValueError(f"lambda {lam} is not in F_{{2^{d}}}^*")

    c = [1]
    for lam in lambdas:
        c.append(F.mul(c[-1], lam))
    square = F.pow_table(2)
    links = [(_trace_onto_table(F, d), c[i], c[i + 1], zetas[i])
             for i, d in enumerate(subdegrees)]

    def mul_block(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xy = F.mul_arr(xs, ys)
        acc = F.mul_arr(xs, square[ys])
        for t, c_prev, c_cur, zeta in links:
            t_prev = t[F.mul_arr(xy, c_prev)]
            acc ^= F.mul_arr(F.mul_arr(ys, t_prev), c_prev)
            acc ^= F.mul_arr(F.mul_arr(ys, t[F.mul_arr(xy, c_cur)]), c_cur)
            acc ^= F.mul_arr(ys, F.mul_arr(t[F.mul_arr(xs, zeta)], c_prev))
            acc ^= F.mul_arr(t_prev, zeta)
        return acc

    return Prequasifield.from_evaluator(m, "flat", mul_block, kind="kantor")


def _trace_onto_table(F: BinaryField, d: int) -> np.ndarray:
    """T(x) = sum_k x^(2^(dk)), k < deg/d: the trace onto GF(2^d), over F."""
    t = np.zeros(F.size, dtype=np.int32)
    for k in range(F.deg // d):
        t ^= F.pow_table(1 << (d * k))
    return t


def luneburg(m: int) -> Prequasifield:
    """The Lueneburg symplectic prequasifield on F x F, m = 2k+1 odd:

      (x1, x2) o (z1, z2) = (x1 z1 + x2 w, x1 w + x2 z2),
      w = sigma^(-1)(z1) + z2 sigma^(-1)(z2).

    Its three product-row tables [a, z] = a z1, a z2 and a w over a in F
    (shape (q, q^2), one `F.mul_arr` each) are gathered at x1 and x2 and
    XORed, so each entry is still the rule at its (x, z)."""
    carrier_dim(m, "pair")
    if m % 2 == 0 or m < 3:
        raise ValueError("the Lueneburg spread needs odd m >= 3")
    F = binary_field(m)
    k = (m - 1) // 2
    # sigma(a) = a^(2^(k+1)), so sigma^(-1)(a) = a^(2^k)
    sig_inv = F.pow_table(1 << k)
    qmask = F.size - 1
    z = np.arange(F.size * F.size, dtype=np.int32)
    z1, z2 = z & qmask, z >> m
    w = sig_inv[z1] ^ F.mul_arr(z2, sig_inv[z2])
    a = np.arange(F.size, dtype=np.int32)[:, None]
    # int16 holds every product (below 2^m) and the packed y1 | y2 << m
    # (below 2^12, the carrier cap), so the row gathers move half the bytes
    by_z1, by_z2, by_w = (F.mul_arr(a, c).astype(np.int16)
                          for c in (z1, z2, w))

    def mul_block(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        x1, x2 = xs[:, 0] & qmask, xs[:, 0] >> m
        y1 = by_z1[x1] ^ by_w[x2]
        y2 = by_w[x1] ^ by_z2[x2]
        return y1 | (y2 << m)

    return Prequasifield.from_evaluator(m, "pair", mul_block, kind="luneburg")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class PqfReport:
    axioms_ok: bool
    is_quasifield: bool
    is_presemifield: bool
    is_commutative: bool
    is_symplectic: bool
    failures: dict = dc_field(default_factory=dict)
    # every verdict rests on all triples of the carrier, at every size
    exhaustive = True

    def as_dict(self) -> dict:
        return {
            "axioms_ok": self.axioms_ok,
            "is_quasifield": self.is_quasifield,
            "is_presemifield": self.is_presemifield,
            "is_commutative": self.is_commutative,
            "is_symplectic": self.is_symplectic,
            "exhaustive": self.exhaustive,
            "failures": {k: [int(v) for v in vals]
                         for k, vals in self.failures.items()},
        }


def _line_check(t: np.ndarray, axis: int) -> tuple[int | None, int | None]:
    """(nonlinear, non_perm) over the lines of the table t along `axis`:
    axis 0 gives the columns r = t[:, z], the right multiplications R_z,
    and axis 1 the rows r = t[x], the left sections.  Either axis is
    checked in one walk down the rows of t in blocks
    (`kernels.row_blocks`), with no transposed copy.

    r is GF(2)-linear iff r[0] = 0 and r[p] = r[p - h] ^ r[h] at every
    p >= 1, h the top bit of p: a block of rows p is checked against the
    rows p - h and h for every column at once, and each row of a block is
    checked along itself.  A linear r is a bijection iff its kernel is
    trivial and its basis values (hence all values) lie in the carrier,
    that is iff r[1:] has no zero.  Only the lines not shown linear are
    sorted, a block of them at a time.

    nonlinear is the smallest line that is not linear (its witness is
    `_doubling_witness`), non_perm the smallest line i >= 1 that is not a
    permutation of the carrier.  Either is None if there is no such
    line."""
    size = t.shape[0]
    failing = np.zeros(size, dtype=bool)        # not shown linear
    # a basis value beyond the carrier, or a zero beyond entry 0
    singular = (t.take(1 << np.arange(size.bit_length() - 1), axis=axis)
                & -size).any(axis=axis)
    for x0, xs in kernels.row_blocks(size):
        x1 = x0 + xs.shape[0]
        block = t[x0:x1]
        if axis == 0:       # positions x0 .. x1 - 1 of every column
            v, span, p0, end = t, slice(None), x0, x1
        else:               # every position of the rows x0 .. x1 - 1
            v, span, p0, end = block.T, slice(x0, x1), 0, size
        # want[p] = r[p - h] ^ r[h], h the top bit of p, and want[0] = 0
        want = np.zeros_like(block)
        wv = want if axis == 0 else want.T
        p = max(p0, 1)
        while p < end:
            h = 1 << (p.bit_length() - 1)
            e = min(2 * h, end)
            np.bitwise_xor(v[p - h:e - h], v[h], out=wv[p - p0:e - p0])
            p = e
        fail, sing = failing[span], singular[span]
        fail |= (want != block).any(axis=axis)
        sing |= (v[max(p0, 1):end] == 0).any(axis=0)

    singular[0] = False                         # line 0 is the zero map
    singular &= ~failing
    non_perm = int(np.argmax(singular)) if singular.any() else size
    nonlinear = None
    if failing.any():
        nonlinear = int(np.argmax(failing))
        todo = np.flatnonzero(failing[1:non_perm]) + 1
        ref = np.expand_dims(np.arange(size, dtype=np.int32), 1 - axis)
        step = max(1, kernels.BLOCK_ENTRIES // size)
        for k in range(0, todo.size, step):
            ids = todo[k:k + step]
            lines = t.take(ids, axis=1 - axis)
            lines.sort(axis=axis)
            bad = (lines != ref).any(axis=axis)
            if bad.any():
                non_perm = int(ids[np.argmax(bad)])
                break
    return nonlinear, non_perm if non_perm < size else None


def _doubling_witness(r: np.ndarray) -> tuple[int, int]:
    """(x, h) for a line r that is not linear: the smallest h = 2^j, then
    the smallest x < h with r[x + h] != r[x] ^ r[h], from a 1-D rebuild.
    The doubling steps lin[x + h] = lin[x] ^ r[h] from lin[0] = 0 give a
    line that r agrees with below its first mismatch p, and h is the top
    bit of p (h = 1 at p = 0, where r[0] != 0)."""
    lin = np.zeros_like(r)
    h = 1
    while h < r.shape[0]:
        np.bitwise_xor(lin[:h], r[h], out=lin[h:2 * h])
        h *= 2
    p = int(np.argmax(r != lin))
    h = 1 << max(p.bit_length() - 1, 0)
    return p % h, h


def validate_prequasifield(Q: Prequasifield) -> PqfReport:
    """Axioms (1)-(4) plus the quasifield/presemifield/commutative flags,
    each decided exactly over the whole carrier in O(size^2); linearity
    and bijectivity by one `_line_check` per axis (axis 0, the columns:
    the right multiplications; axis 1, the rows: the left sections), each
    a walk down the rows of t that allocates nothing the size of the
    table.

    Witnesses: the smallest x with x o 0 != 0, the smallest z with
    0 o z != 0, the smallest z >= 1 whose right multiplication and the
    smallest x >= 1 whose left section is not a bijection, and for right
    distributivity a failing triple (x, y, z): the smallest failing
    column z, then the smallest y = 2^i, then the smallest x < y.
    """
    t = Q.table
    failures: dict[str, tuple] = {}

    if t[:, 0].any():
        failures["right_zero"] = (int(np.argmax(t[:, 0] != 0)),)
    if t[0, :].any():
        failures["zero_times"] = (int(np.argmax(t[0, :] != 0)),)
    nonlinear, z = _line_check(t, 0)
    if z is not None:
        failures["right_mult_not_bijective"] = (z,)
    left_nonlinear, x = _line_check(t, 1)
    if x is not None:
        failures["left_section_not_bijective"] = (x,)
    if nonlinear is not None:                               # (x, y, z)
        failures["right_distributive"] = (
            *_doubling_witness(t[:, nonlinear]), nonlinear)
    left_ok = left_nonlinear is None

    axioms_ok = not failures
    basis = 1 << np.arange(Q.dim)
    has_identity = False
    if axioms_ok:
        # every column is linear: column e is R_e = id iff it fixes the
        # basis, and only those few rows are compared in full
        ref = np.arange(Q.size, dtype=np.int32)
        cands = np.flatnonzero((t[basis] == basis[:, None]).all(axis=0))
        has_identity = any(np.array_equal(t[e], ref) for e in cands)
    basis_block = t[basis][:, basis]
    return PqfReport(
        axioms_ok=axioms_ok,
        is_quasifield=axioms_ok and has_identity,
        is_presemifield=axioms_ok and left_ok,
        # bilinear and symmetric on the basis: symmetric everywhere
        is_commutative=axioms_ok and left_ok and bool(
            np.array_equal(basis_block, basis_block.T)),
        is_symplectic=axioms_ok and is_symplectic(Q),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# B bits of linear maps, adjoints, transpose, dual, Knuth orbit
# ---------------------------------------------------------------------------

def _form_bits(images: np.ndarray, Q: Prequasifield) -> np.ndarray:
    """bits[i, ...] = B(e_i, images[...]) for the basis vectors e_i, as
    uint8 of shape (dim, *images.shape)."""
    images = np.asarray(images, dtype=np.int32)
    basis_masks = Q.b_mask_table()[1 << np.arange(Q.dim)]
    return np.bitwise_count(
        basis_masks.reshape(-1, *(1,) * images.ndim) & images) & 1


def adjoint(images: np.ndarray, Q: Prequasifield) -> np.ndarray:
    """Tables of the adjoints of k linear maps w.r.t. Q's bilinear form,
    B(adj(x), y) = B(x, map(y)) for all x, y.

    images[j, c] is the image of the basis vector e_j under map c (shape
    (dim, k)); entry [x, c] of the (size, k) result is adj_c(x).  Bit j of
    the B mask of adj(e_i) is B(e_i, map(e_j)), the mask inverse turns it
    into the vector, and the other x follow by linearity."""
    return _adjoint_of_bits(_form_bits(images, Q), Q)


def _vector_of_bits(bits: np.ndarray, Q: Prequasifield) -> np.ndarray:
    """The vectors whose B masks have bit j = bits[..., j]: the bits
    packed into masks, then the mask inverse."""
    masks = (bits.astype(np.int32) << np.arange(Q.dim, dtype=np.int32)
             ).sum(axis=-1, dtype=np.int32)
    return Q.b_mask_inverse()[masks]


def _adjoint_of_bits(bits: np.ndarray, Q: Prequasifield,
                     dtype=np.int32) -> np.ndarray:
    """`adjoint` from the bits [i, j, c] = B(e_i, map_c(e_j)), as tables
    of the given dtype."""
    return kernels.linear_map_table(
        _vector_of_bits(bits.transpose(0, 2, 1), Q), Q.dim, dtype)


def transpose_pqf(Q: Prequasifield) -> Prequasifield:
    """x star z = R_z^*(x); coordinatizes the orthogonal (dual) spread.

    Always a fresh object (`Q.transposed()` is the kept copy): column z is
    the adjoint of R_z, whose B bits are the kept Gram array of Q.  The
    table is built in the carrier's int16, so the constructor keeps it
    uncopied."""
    table = _adjoint_of_bits(Q.gram(), Q, np.int16)
    return Prequasifield(Q.m, Q.shape, table, kind="derived",
                         name=f"{Q.name}^t")


def dual_pqf(Q: Prequasifield, name: str | None = None) -> Prequasifield:
    """x * y = y o x."""
    return Prequasifield(Q.m, Q.shape, Q.table.T.copy(), kind="derived",
                         name=name or f"{Q.name}^d")


def is_symplectic(Q: Prequasifield) -> bool:
    """B(x o z, y) = B(x, y o z) for all triples: every R_z self-adjoint,
    that is the kept Gram array B(e_i, e_j o z) symmetric in (i, j).  The
    one decision of the flag; `star_table`, `sqrt_diag_g_table` and
    `spread transpose` read it.

    Defined for tables that pass the axioms (the CLI ensures it through
    `_valid_pqf`): every R_z is linear, so its basis rows fix it and the
    Gram test is exact.  There it also decides Q^t = Q, since column z of
    Q^t is the adjoint of R_z."""
    gram = Q.gram()
    return bool(np.array_equal(gram, gram.transpose(1, 0, 2)))


def knuth_orbit(Q: Prequasifield):
    """Closure of a presemifield under dual and transpose, deduplicated at
    table level against its items: each candidate is built fresh and
    dropped unless it is new.  Returns (items, dtd_equals_tdt) with items a
    list of (word, Prequasifield) in BFS order; isotopy is NOT decided."""
    rep = validate_prequasifield(Q)
    if not rep.is_presemifield:
        raise ValueError("the Knuth orbit is defined for presemifields")
    items = [("", Q)]
    # (item index, op) -> the index of the item with the table op(item)
    step: dict[tuple[int, str], int] = {}
    for k, (word, cur) in enumerate(items):     # a BFS queue: items grows
        for op, build in (("d", dual_pqf), ("t", transpose_pqf)):
            new = build(cur)
            j = next((i for i, (_, it) in enumerate(items)
                      if np.array_equal(it.table, new.table)), len(items))
            if j == len(items):
                items.append((word + op, new))
            step[k, op] = j
            del new

    def lookup(word):
        cur = 0
        for op in word:
            cur = step[cur, op]
        return cur

    # each table is one item, so equal indices mean equal tables
    return items, lookup("dtd") == lookup("tdt")


def commutative_from_symplectic(Q: Prequasifield) -> Prequasifield:
    """z * y = L_z^*(y) with L_z(x) = z o x; commutative when Q is a
    symplectic presemifield.  The Knuth word dtd: R_z of Q^d is L_z."""
    rep = validate_prequasifield(Q)
    if not (rep.is_presemifield and rep.is_symplectic):
        raise ValueError("construction needs a symplectic presemifield")
    return dual_pqf(transpose_pqf(dual_pqf(Q)), f"comm({Q.name})")


def symplectic_from_commutative(Q: Prequasifield) -> Prequasifield:
    """z o y = L_z^*(y) with L_z(x) = z * x, the Knuth word dtd again;
    symplectic when Q is a commutative presemifield.  Mutually inverse
    with the previous map."""
    rep = validate_prequasifield(Q)
    if not (rep.is_presemifield and rep.is_commutative):
        raise ValueError("construction needs a commutative presemifield")
    return dual_pqf(transpose_pqf(dual_pqf(Q)), f"symp({Q.name})")


# ---------------------------------------------------------------------------
# spreads as point sets
# ---------------------------------------------------------------------------

def verify_spread(Q: Prequasifield):
    """Every nonzero vector of V x V lies in exactly one member: the
    vertical one {(0, y)} or some {(x, x o z)}.  Returns (ok, the smallest
    packed point x + size*y covered other than once).

    A point (x, y) with x != 0 lies on no member but those of row x, so
    the cover is counted per block of rows (`kernels.row_counts`)."""
    size = Q.size
    witness = None
    for x0, cover in kernels.row_counts(
            size, lambda x0, b: Q.table[x0:x0 + b]):
        if x0 == 0:
            cover[0] += 1                       # the vertical member
            cover[0, 0] = 1                     # (0, 0) is no point
        bad = np.flatnonzero(cover != 1)
        if bad.size:
            # packed points x + size*y stay below 2^24
            p = int((x0 + bad // size + size * (bad % size)).min())
            witness = p if witness is None else min(witness, p)
    return witness is None, witness


def spreads_perpendicular(Q: Prequasifield, Qt: Prequasifield) -> bool:
    """Member-wise orthogonality of Sigma(Q) and Sigma(Q^t) under
    <(x,y),(x',y')> = B(x,y') + B(y,x'): B(e_i, e_j o' z) = B(e_i o z, e_j)
    for all basis vectors e_i, e_j and all z, i.e. the Gram array of Q^t
    is that of Q with i and j swapped."""
    return bool(np.array_equal(Qt.gram(), Q.gram().transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# diagonal square roots
# ---------------------------------------------------------------------------

def sqrt_diag_g_table(Q: Prequasifield) -> np.ndarray:
    """The o-polynomial G of a symplectic spread, B(x, x o z) = B(G(z), x):
    square roots of the diagonal of the right-multiplication matrices
    (sqrt(z) for the field, (sqrt z1, sqrt z2) for Lueneburg).

    Defined for tables that pass the axioms (the CLI ensures it through
    `_valid_pqf`), and raises unless `is_symplectic`.  When every R_z is
    self-adjoint, x -> B(x, x o z) is linear, so G(z) is the vector whose
    B mask has bit i = B(e_i, e_i o z), the diagonal of the Gram array."""
    if not is_symplectic(Q):
        raise ValueError("diagonal construction needs a symplectic spread")
    return _vector_of_bits(np.diagonal(Q.gram(), axis1=0, axis2=1), Q)  # [z, i]


# ---------------------------------------------------------------------------
# table file format: header `q=<int> shape=<flat|pair>`, then q lines of q
# ints; one writer and one reader over text handles, a row at a time
# ---------------------------------------------------------------------------

def write_pqf(Q: Prequasifield, fh) -> None:
    words = np.array([str(v) for v in range(Q.size)], dtype=object)
    fh.write(f"q={Q.size} shape={Q.shape}\n")
    for row in Q.table:
        fh.write(" ".join(words[row].tolist()) + "\n")


def _plain(text: str) -> bool:
    """The digit rule of table lines: ASCII digits and spaces only, so no
    sign, letter, point, comma, other whitespace or non-ASCII digit
    reaches a parser.  One C pass deletes the digits and spaces and must
    leave nothing."""
    return text.isascii() and not text.encode().translate(None, b"0123456789 ")


def plain_ints(text: str, message: str) -> np.ndarray:
    """The int64 entries of text, space-separated plain decimal digits
    (`_plain`), parsed in one C pass; ValueError(message) for any other
    text.  An entry past the int64 range reads as the int64 maximum,
    which the range check of every caller rejects."""
    if not _plain(text):
        raise ValueError(message)
    return np.fromstring(text, dtype=np.int64, sep=" ")


def plain_int(text: str) -> int:
    """The integer of a plain decimal text: ASCII digits, after at most
    one ASCII minus sign, so that a domain check still names a negative
    value.  int() also reads a plus sign, underscores, whitespace at the
    ends and non-ASCII digits; like the table files (`_plain`), the
    integers the CLI reads from flags and kind specs take none of them."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a plain integer: ASCII digits "
                         f"with at most a leading minus sign")
    return int(text)


def read_pqf(lines) -> Prequasifield:
    """Parse lines (of a file, stdin, a list) into the table, allocated once
    the header passes; a (q+2)-th line fails on arrival.  Blank lines are
    skipped, and lines end at LF, CR or CR LF in any newline mode.  The
    q= value and each table line, stripped, are read by `plain_ints`:
    ASCII digits and spaces only, checked before the C parse."""
    rows = (ln for chunk in lines for ln in chunk.split("\r") if ln.strip())
    head = next(rows, "").split()
    if len(head) != 2 or not head[0].startswith("q=") or head[0] == "q=" \
            or not head[1].startswith("shape="):
        raise ValueError("bad prequasifield header")
    q = plain_ints(head[0][2:], "the q= value must be plain decimal digits")
    if len(head[0][2:].lstrip("0")) > 18:    # 19 digits: q may have saturated
        raise ValueError(f"the q= value is past every carrier size: carriers "
                         f"have GF(2) dimension 1..{MAX_CARRIER_DIM}")
    size, shape = int(q[0]), head[1][6:]
    dim = size.bit_length() - 1
    if size < 1 or 1 << dim != size:
        raise ValueError("carrier size must be a power of 2")
    if shape == "pair" and dim % 2:
        raise ValueError("pair carriers have even GF(2) dimension")
    m = dim if shape == "flat" else dim // 2
    carrier_dim(m, shape)
    table = np.empty((size, size), dtype=np.int16)
    for x in range(size):
        row = plain_ints(next(rows, "").strip(),    # a missing row is empty
                         "table entries must be plain decimal digits "
                         "separated by spaces")
        if row.shape != (size,):
            raise ValueError("table must be q rows of q integers")
        if row.max() >= size:
            raise ValueError(f"table entries must lie in [0, {size})")
        table[x] = row
    if next(rows, None) is not None:
        raise ValueError("table must be q rows of q integers")
    return Prequasifield(m, shape, table, kind="table")


def dumps_pqf(Q: Prequasifield) -> str:
    write_pqf(Q, fh := io.StringIO())
    return fh.getvalue()


def loads_pqf(text: str) -> Prequasifield:
    return read_pqf(text.split("\n"))     # read_pqf splits each line at CR


def save_pqf(Q: Prequasifield, path) -> None:
    with open(path, "w") as fh:
        write_pqf(Q, fh)


def load_pqf(path) -> Prequasifield:
    with open(path) as fh:
        return read_pqf(fh)
