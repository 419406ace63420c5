"""Prequasifields and the spreads they coordinatize.

A prequasifield here is a finite multiplication on a GF(2)-vector space
V (the carrier), right-distributive over XOR, with x o 0 = 0 and a
quasigroup on V*.  Carriers are either F = GF(2^m) ("flat" shape) or
F x F packed as x1 + q*x2 ("pair" shape, used by the Lueneburg spread).

The bilinear form B is tr(xy) on F, and the sum of the coordinate forms
on F x F; its masks are one table per carrier (`b_mask_table`).  A
GF(2)-linear map is a table, built from its basis images by
`kernels.linear_map_table`, and one batched `adjoint` w.r.t. B serves
the transpose x star z = R_z^*(x), the symplectic test (every R_z
self-adjoint), the commutative <-> symplectic partner z . y = L_z^*(y)
and the action of automorphisms on the dual side.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from . import kernels
from .gf import BinaryField, binary_field

# GF(2) dimension cap of the carrier: the (size, size) int32 table takes
# 64 MB at dim 12, and `spread bent` holds several size^2 arrays besides;
# packed points x + size*y stay below 2^24
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

    The table is read-only, so structure derived from it and from the
    carrier (the B-mask table and its inverse, the B-bit table, the
    transpose) is computed once per object and kept.  The constructor takes
    ownership of the table it is given: an int32 C-contiguous array is
    kept as it is, not copied, and becomes read-only; any other array is
    copied to int32, which holds every carrier element (below 2^12)."""

    def __init__(self, m: int, shape: str, table: np.ndarray,
                 kind: str = "table", name: str | None = None):
        self.dim = carrier_dim(m, shape)
        self.m = m
        self.shape = shape
        self.field = binary_field(m)
        self.size = 1 << self.dim
        if table.shape != (self.size, self.size):
            raise ValueError("multiplication table has the wrong shape")
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.table.flags.writeable = False
        self.kind = kind
        self.name = name or kind
        self._b_mask_table: np.ndarray | None = None
        self._b_mask_inverse: np.ndarray | None = None
        self._b_bit_table: np.ndarray | None = None
        self._transposed: Prequasifield | None = None

    @classmethod
    def from_evaluator(cls, m: int, shape: str, mul_block, kind: str,
                       name: str | None = None) -> "Prequasifield":
        """Table filled a block of rows at a time.

        mul_block(xs, zs) gets a column xs of shape (b, 1) holding
        consecutive x and the row zs of the whole carrier, and returns
        the (b, size) array of the products x o z (any array that
        broadcasts to it).  It must evaluate the rule at every (x, z):
        rows built by XOR from the basis rows would make the right
        distributivity check of `validate_prequasifield` vacuous.  A
        block holds about `kernels.BLOCK_ENTRIES` entries, so the
        evaluator's temporaries stay small at every carrier size."""
        size = 1 << carrier_dim(m, shape)
        zs = np.arange(size, dtype=np.int32)
        table = np.empty((size, size), dtype=np.int32)
        for x0, xs in kernels.row_blocks(size):
            table[x0:x0 + xs.shape[0]] = mul_block(xs, zs)
        return cls(m, shape, table, kind, name)

    # -- the bilinear form ---------------------------------------------------

    def b_mask(self, a: int) -> int:
        """Mask with B(a, x) = parity(mask & x) for all x (linear in a)."""
        return int(self.b_mask_table()[a])

    def b_mask_table(self) -> np.ndarray:
        """B masks of the whole carrier: the trace form's masks on F, and
        on F x F those of each coordinate, side by side."""
        if self._b_mask_table is None:
            dm = self.field.dot_mask_table()
            if self.shape == "pair":
                dm = (dm[None, :] | (dm[:, None] << self.m)).ravel()
            self._b_mask_table = dm
        return self._b_mask_table

    def b_mask_inverse(self) -> np.ndarray:
        """The vector with a given B mask: B is nondegenerate, so the mask
        table is a permutation of the carrier and this is its inverse."""
        if self._b_mask_inverse is None:
            inv = np.empty(self.size, dtype=np.int32)
            inv[self.b_mask_table()] = np.arange(self.size)
            self._b_mask_inverse = inv
        return self._b_mask_inverse

    def b_bit_table(self) -> np.ndarray:
        """uint8 matrix of B(x, y) over the whole carrier."""
        if self._b_bit_table is None:
            bm = self.b_mask_table()
            xs = np.arange(self.size, dtype=np.int32)
            bt = np.empty((self.size, self.size), dtype=np.uint8)
            for x0, rows in kernels.row_blocks(self.size):
                bt[x0:x0 + rows.shape[0]] = np.bitwise_count(bm[rows] & xs) & 1
            self._b_bit_table = bt
        return self._b_bit_table

    def transposed(self) -> "Prequasifield":
        """Q^t, computed once from this table by `transpose_pqf` and kept.
        Its own transpose is computed from its table in turn, never taken
        to be this object."""
        if self._transposed is None:
            self._transposed = transpose_pqf(self)
        return self._transposed

    def __repr__(self) -> str:
        return (f"Prequasifield({self.name}, m={self.m}, shape={self.shape}, "
                f"size={self.size})")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def field_pqf(m: int) -> Prequasifield:
    """GF(2^m) itself, x o z = xz."""
    F = binary_field(m)
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
    F = binary_field(m)
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
    """The Lueneburg symplectic prequasifield on F x F, m = 2k+1 odd."""
    if m % 2 == 0 or m < 3:
        raise ValueError("the Lueneburg spread needs odd m >= 3")
    F = binary_field(m)
    k = (m - 1) // 2
    # sigma(a) = a^(2^(k+1)), so sigma^(-1)(a) = a^(2^k)
    sig_inv = F.pow_table(1 << k)
    qmask = F.size - 1

    def mul_block(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        x1, x2 = xs & qmask, xs >> m
        z1, z2 = zs & qmask, zs >> m
        w = sig_inv[z1] ^ F.mul_arr(z2, sig_inv[z2])
        y1 = F.mul_arr(x1, z1) ^ F.mul_arr(x2, w)
        y2 = F.mul_arr(x1, w) ^ F.mul_arr(x2, z2)
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


def _doubling_failures(cols: np.ndarray) -> list[np.ndarray]:
    """For each h = 2^i, the (h, n) mask of cols[x + h] != cols[x] ^ cols[h]
    over x < h.  All masks are empty iff every column is GF(2)-linear: the
    steps rebuild each column from its values at the basis vectors (the
    first one forces cols[0] == 0)."""
    out = []
    h = 1
    while h < cols.shape[0]:
        out.append(cols[h:2 * h] != (cols[:h] ^ cols[h]))
        h *= 2
    return out


def _first_non_permutation(rows: np.ndarray) -> int | None:
    """Smallest i >= 1 whose row of `rows` is not a permutation of the
    carrier, or None."""
    ref = np.arange(rows.shape[1], dtype=np.int32)
    bad = ~(np.sort(rows[1:], axis=1) == ref).all(axis=1)
    return int(np.argmax(bad)) + 1 if bad.any() else None


def validate_prequasifield(Q: Prequasifield) -> PqfReport:
    """Axioms (1)-(4) plus the quasifield/presemifield/commutative flags,
    each decided exactly over the whole carrier in O(size^2).

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
    z = _first_non_permutation(t.T)
    if z is not None:
        failures["right_mult_not_bijective"] = (z,)
    x = _first_non_permutation(t)
    if x is not None:
        failures["left_section_not_bijective"] = (x,)

    steps = _doubling_failures(t)
    bad_cols = np.zeros(Q.size, dtype=bool)
    for bad in steps:
        bad_cols |= bad.any(axis=0)
    if bad_cols.any():
        z = int(np.argmax(bad_cols))
        i = next(i for i, bad in enumerate(steps) if bad[:, z].any())
        x = int(np.argmax(steps[i][:, z]))
        failures["right_distributive"] = (x, 1 << i, z)
    left_ok = not any(bad.any() for bad in _doubling_failures(t.T))

    ref = np.arange(Q.size, dtype=np.int32)
    has_identity = bool(((t == ref[:, None]).all(axis=0)
                         & (t == ref).all(axis=1)).any())

    axioms_ok = not failures
    return PqfReport(
        axioms_ok=axioms_ok,
        is_quasifield=axioms_ok and has_identity,
        is_presemifield=axioms_ok and left_ok,
        is_commutative=axioms_ok and bool(np.array_equal(t, t.T)),
        is_symplectic=axioms_ok and is_symplectic(Q),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# adjoints, transpose, dual, Knuth orbit
# ---------------------------------------------------------------------------

def adjoint(images: np.ndarray, Q: Prequasifield) -> np.ndarray:
    """Tables of the adjoints of k linear maps w.r.t. Q's bilinear form,
    B(adj(x), y) = B(x, map(y)) for all x, y.

    images[j, c] is the image of the basis vector e_j under map c (shape
    (dim, k)); entry [x, c] of the (size, k) result is adj_c(x).  Bit j of
    the B mask of adj(e_i) is B(e_i, map(e_j)), the mask inverse turns it
    into the vector, and the other x follow by linearity."""
    images = np.asarray(images, dtype=np.int32)
    basis_masks = Q.b_mask_table()[1 << np.arange(Q.dim)]
    bits = np.bitwise_count(basis_masks[:, None, None] & images) & 1   # [i, j, c]
    masks = (bits.astype(np.int32) << np.arange(Q.dim, dtype=np.int32)[:, None]
             ).sum(axis=1, dtype=np.int32)
    return kernels.linear_map_table(Q.b_mask_inverse()[masks], Q.dim)


def transpose_pqf(Q: Prequasifield) -> Prequasifield:
    """x star z = R_z^*(x); coordinatizes the orthogonal (dual) spread.

    Always a fresh object computed from Q's table (`Q.transposed()` is the
    kept copy): column z is the adjoint of R_z, whose basis images are the
    basis rows of the table."""
    table = adjoint(Q.table[1 << np.arange(Q.dim)], Q)
    return Prequasifield(Q.m, Q.shape, table, kind="derived",
                         name=f"{Q.name}^t")


def dual_pqf(Q: Prequasifield) -> Prequasifield:
    """x * y = y o x."""
    return Prequasifield(Q.m, Q.shape, Q.table.T.copy(), kind="derived",
                         name=f"{Q.name}^d")


def is_symplectic(Q: Prequasifield) -> bool:
    """B(x o z, y) = B(x, y o z) for all triples.

    Decided exactly through self-adjointness of every right multiplication:
    R_z^* and R_z agree on the basis, i.e. the basis rows of Q^t and Q
    (equivalent, and identical to the literal triple check, which is
    cross-asserted for small carriers)."""
    literal_cap = 64          # size^3 bits for the literal triple check
    basis = [1 << i for i in range(Q.dim)]
    per_z = bool(np.array_equal(Q.transposed().table[basis], Q.table[basis]))
    if Q.size <= literal_cap:
        bt = Q.b_bit_table()
        # [x, y, z]: B(x o z, y) against B(x, y o z)
        literal = bool(np.array_equal(bt[Q.table].transpose(0, 2, 1),
                                      bt[:, Q.table]))
        assert literal == per_z, "triple check and adjoint check must agree"
    return per_z


def knuth_orbit(Q: Prequasifield):
    """Closure of a presemifield under dual and transpose, deduplicated at
    table level.  Returns (items, dtd_equals_tdt) with items a list of
    (word, Prequasifield) in BFS order; isotopy is NOT decided."""
    rep = validate_prequasifield(Q)
    if not rep.is_presemifield:
        raise ValueError("the Knuth orbit is defined for presemifields")
    seen: dict[bytes, str] = {Q.table.tobytes(): ""}
    items = [("", Q)]
    frontier = [("", Q)]
    # (word, op) -> the word of the item with the table op(word)
    step: dict[tuple[str, str], str] = {}
    while frontier:
        nxt = []
        for word, cur in frontier:
            for op, new in (("d", dual_pqf(cur)), ("t", cur.transposed())):
                key = new.table.tobytes()
                if key not in seen:
                    seen[key] = word + op
                    items.append((word + op, new))
                    nxt.append((word + op, new))
                step[word, op] = seen[key]
        frontier = nxt

    def lookup(word):
        cur = ""
        for op in word:
            cur = step[cur, op]
        return cur

    # items are distinct tables, so equal words mean equal tables
    return items, lookup("dtd") == lookup("tdt")


def commutative_from_symplectic(Q: Prequasifield) -> Prequasifield:
    """z * y = L_z^*(y) with L_z(x) = z o x; commutative when Q is a
    symplectic presemifield."""
    rep = validate_prequasifield(Q)
    if not (rep.is_presemifield and rep.is_symplectic):
        raise ValueError("construction needs a symplectic presemifield")
    return _left_adjoint_pqf(Q, name=f"comm({Q.name})")


def symplectic_from_commutative(Q: Prequasifield) -> Prequasifield:
    """z o y = L_z^*(y) with L_z(x) = z * x; symplectic when Q is a
    commutative presemifield.  Mutually inverse with the previous map."""
    rep = validate_prequasifield(Q)
    if not (rep.is_presemifield and rep.is_commutative):
        raise ValueError("construction needs a commutative presemifield")
    return _left_adjoint_pqf(Q, name=f"symp({Q.name})")


def _left_adjoint_pqf(Q: Prequasifield, name: str) -> Prequasifield:
    """z . y = L_z^*(y) with L_z(x) = z o x: row z is the adjoint of L_z,
    whose basis images are the basis columns of the table."""
    table = adjoint(Q.table[:, 1 << np.arange(Q.dim)].T, Q).T
    return Prequasifield(Q.m, Q.shape, table, kind="derived", name=name)


# ---------------------------------------------------------------------------
# spreads as point sets
# ---------------------------------------------------------------------------

def verify_spread(Q: Prequasifield):
    """Every nonzero vector of V x V lies in exactly one member: the
    vertical one {(0, y)} or some {(x, x o z)}.  Returns (ok, the smallest
    packed point x + size*y covered other than once)."""
    xs = np.arange(Q.size, dtype=np.int32)
    # packed points x + size*y stay below 2^24
    points = np.concatenate([Q.size * xs,
                             (xs[:, None] + Q.size * Q.table).ravel()])
    cover = np.bincount(points, minlength=Q.size * Q.size)
    bad = np.nonzero(cover[1:] != 1)[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def spreads_perpendicular(Q: Prequasifield, Qt: Prequasifield) -> bool:
    """Member-wise orthogonality of Sigma(Q) and Sigma(Q^t) under
    <(x,y),(x',y')> = B(x,y') + B(y,x'): B(e_i, e_j o' z) = B(e_i o z, e_j)
    for all basis vectors e_i, e_j and all z."""
    basis = [1 << i for i in range(Q.dim)]
    bm = Q.b_mask_table()
    # both sides indexed [i, j, z]
    lhs = np.bitwise_count(bm[basis][:, None, None] & Qt.table[basis]) & 1
    rhs = (bm[Q.table[basis]][:, None, :]
           >> np.arange(Q.dim, dtype=np.int32)[:, None]) & 1
    return bool(np.array_equal(lhs, rhs))


# ---------------------------------------------------------------------------
# orthonormal bases, matrix representations, diagonal square roots
# ---------------------------------------------------------------------------

def orthonormal_basis_field(F: BinaryField) -> list[int]:
    """Basis of F over GF(2) with tr(b_i b_j) = delta_ij (self-dual basis;
    exists for every m in characteristic 2).  Deterministic DFS."""
    def bdot(x, y):
        return (F.dot_mask(x) & y).bit_count() & 1

    def rec(chosen: list[int], cands: list[int]):
        if len(chosen) == F.deg:
            return chosen
        for i, v in enumerate(cands):
            rest = [w for w in cands[i + 1:] if bdot(v, w) == 0]
            got = rec(chosen + [v], rest)
            if got:
                return got
        return None

    cands = [v for v in range(1, F.size) if bdot(v, v) == 1]
    basis = rec([], cands)
    assert basis is not None, "self-dual bases exist over GF(2)"
    return basis


def orthonormal_basis(Q: Prequasifield) -> list[int]:
    """Carrier basis orthonormal for B (per coordinate for pair shape)."""
    base = orthonormal_basis_field(Q.field)
    if Q.shape == "flat":
        return base
    return base + [b << Q.m for b in base]


def sqrt_diag_g_table(Q: Prequasifield) -> np.ndarray:
    """The o-polynomial G(z) = d(M_z) of a symplectic spread: square roots
    of the diagonal of the right-multiplication matrices.

    Field: M_z = [z].  Pair: M_z is the F-matrix with rows the images of
    (1, 0) and (0, 1), which must be F-linear and symmetric.  Other flat
    carriers: M_z in an orthonormal basis b_i, diagonal B(b_i o z, b_i)."""
    F = Q.field
    t = Q.table
    root = F.pow_table(1 << (F.deg - 1))
    if Q.kind == "field":
        return root
    if Q.shape == "pair":
        low = F.size - 1
        rows = t[[1, 1 << Q.m]]                   # R_z(1, 0), R_z(0, 1)
        lams = np.arange(F.size, dtype=np.int32)
        linear = np.ones(Q.size, dtype=bool)      # R_z(lam e) = lam R_z(e)
        for shift, row in zip((0, Q.m), rows):
            got = t[lams << shift]
            for part, want in ((got & low, row & low), (got >> Q.m, row >> Q.m)):
                linear &= (part == F.mul_arr(lams[:, None], want)).all(axis=0)
        ok = linear & ((rows[0] >> Q.m) == (rows[1] & low))
        if not ok.all():
            z = int(np.argmax(~ok))
            raise ValueError("matrix must be symmetric" if linear[z]
                             else "right multiplication is not F-linear")
        return root[rows[0] & low] | (root[rows[1] >> Q.m] << Q.m)
    if not is_symplectic(Q):
        raise ValueError("diagonal construction needs a symplectic spread")
    bm = Q.b_mask_table()
    out = np.zeros(Q.size, dtype=np.int32)
    for b in orthonormal_basis(Q):
        out ^= (np.bitwise_count(bm[t[b]] & b).astype(np.int32) & 1) * b
    return out


# ---------------------------------------------------------------------------
# table file format: header `q=<int> shape=<flat|pair>`, then q rows
# ---------------------------------------------------------------------------

def dumps_pqf(Q: Prequasifield) -> str:
    lines = [f"q={Q.size} shape={Q.shape}"]
    lines += [" ".join(map(str, row)) for row in Q.table.tolist()]
    return "\n".join(lines) + "\n"


def loads_pqf(text: str) -> Prequasifield:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or not head[0].startswith("q=") or not head[1].startswith("shape="):
        raise ValueError("bad prequasifield header")
    size = int(head[0][2:])
    shape = head[1][6:]
    dim = size.bit_length() - 1
    if size < 1 or 1 << dim != size:
        raise ValueError("carrier size must be a power of 2")
    if shape == "pair" and dim % 2:
        raise ValueError("pair carriers have even GF(2) dimension")
    m = dim if shape == "flat" else dim // 2
    carrier_dim(m, shape)
    rows = [list(map(int, ln.split())) for ln in lines[1:]]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError("table must be q rows of q integers")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= size:
        raise ValueError(f"table entries must lie in [0, {size})")
    return Prequasifield(m, shape, np.array(rows, dtype=np.int32), kind="table")


def save_pqf(Q: Prequasifield, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_pqf(Q))


def load_pqf(path) -> Prequasifield:
    with open(path) as fh:
        return loads_pqf(fh.read())
