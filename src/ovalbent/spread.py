"""Prequasifields and the spreads they coordinatize.

A prequasifield here is a finite multiplication on a GF(2)-vector space
V (the carrier), right-distributive over XOR, with x o 0 = 0 and a
quasigroup on V*.  Carriers are either F = GF(2^m) ("flat" shape) or
F x F packed as x1 + q*x2 ("pair" shape, used by the Lueneburg spread).

The bilinear form B is tr(xy) on F, and the sum of the coordinate forms
on F x F.  Transposition, symplecticity, and the commutative <->
symplectic constructions are all phrased through adjoints w.r.t. B.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _gf2, kernels
from .gf import BinaryField, binary_field

_EXHAUSTIVE_TRIPLE_CAP = 64       # carrier size cap for all-triples checks
_DEFAULT_SAMPLES = 20000


class Prequasifield:
    """Multiplication table plus the carrier's bilinear form machinery.

    The table is read-only, so structure derived from it (the Gram matrix
    of B and its inverse, the B-mask tables, the transpose) is computed
    once per object and kept."""

    def __init__(self, m: int, shape: str, table: np.ndarray,
                 kind: str = "table", name: str | None = None):
        if shape not in ("flat", "pair"):
            raise ValueError("shape must be 'flat' or 'pair'")
        self.m = m
        self.shape = shape
        self.field = binary_field(m)
        self.dim = m if shape == "flat" else 2 * m
        self.size = 1 << self.dim
        if table.shape != (self.size, self.size):
            raise ValueError("multiplication table has the wrong shape")
        self.table = table.astype(np.int64)
        self.table.flags.writeable = False
        self.kind = kind
        self.name = name or kind
        # Gram rows: B masks of the basis vectors; B is the trace form on
        # each F coordinate
        gram = [self.field.dot_mask(1 << i) for i in range(m)]
        if shape == "pair":
            gram += [v << m for v in gram]
        self._gram = gram
        self._gram_inv = _gf2.inv(gram, self.dim)
        self._b_mask_table: np.ndarray | None = None
        self._b_bit_table: np.ndarray | None = None
        self._transposed: Prequasifield | None = None

    @classmethod
    def from_evaluator(cls, m: int, shape: str, mul_row, kind: str,
                       name: str | None = None) -> "Prequasifield":
        """Table filled one row at a time: mul_row(x, zs) returns the
        products x o z for the array zs of the whole carrier."""
        size = 1 << (m if shape == "flat" else 2 * m)
        zs = np.arange(size, dtype=np.int64)
        table = np.empty((size, size), dtype=np.int64)
        for x in range(size):
            table[x] = mul_row(x, zs)
        return cls(m, shape, table, kind, name)

    # -- multiplication ----------------------------------------------------

    def mul(self, x: int, z: int) -> int:
        return int(self.table[x, z])

    def right_mult_rows(self, z: int) -> list[int]:
        """Images of the basis under R_z(x) = x o z (rows of its matrix)."""
        return [int(self.table[1 << i, z]) for i in range(self.dim)]

    def left_mult_rows(self, z: int) -> list[int]:
        """Images of the basis under L_z(x) = z o x (needs left linearity)."""
        return [int(self.table[z, 1 << i]) for i in range(self.dim)]

    # -- the bilinear form ---------------------------------------------------

    def pack(self, x1: int, x2: int) -> int:
        assert self.shape == "pair"
        return x1 | (x2 << self.m)

    def unpack(self, x: int) -> tuple[int, int]:
        assert self.shape == "pair"
        return x & (self.field.size - 1), x >> self.m

    def b_mask(self, a: int) -> int:
        """Mask with B(a, x) = parity(mask & x) for all x (linear in a)."""
        return _gf2.apply(self._gram, a)

    def b_form(self, x: int, y: int) -> int:
        return (self.b_mask(x) & y).bit_count() & 1

    def b_mask_table(self) -> np.ndarray:
        if self._b_mask_table is None:
            self._b_mask_table = kernels.linear_map_table(self._gram, self.dim)
        return self._b_mask_table

    def b_bit_table(self) -> np.ndarray:
        """uint8 matrix of B(x, y) over the whole carrier."""
        if self._b_bit_table is None:
            bm = self.b_mask_table()
            xs = np.arange(self.size, dtype=np.uint64)
            self._b_bit_table = (
                np.bitwise_count(bm.astype(np.uint64)[:, None] & xs[None, :])
                .astype(np.uint8) & 1)
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
    return Prequasifield.from_evaluator(m, "flat", lambda x, zs: F.mul_vec(zs, x),
                                        kind="field")


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
        if a % b != 0 or a == b:
            raise ValueError("subfield degrees must properly divide along the chain")
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

    def mul_row(x: int, ys: np.ndarray) -> np.ndarray:
        xy = F.mul_vec(ys, x)
        acc = F.mul_vec(square[ys], x)
        for t, c_prev, c_cur, zeta in links:
            t_prev = t[F.mul_vec(xy, c_prev)]
            acc ^= F.mul_vec(F.mul_arr(ys, t_prev), c_prev)
            acc ^= F.mul_vec(F.mul_arr(ys, t[F.mul_vec(xy, c_cur)]), c_cur)
            acc ^= F.mul_vec(ys, F.mul(c_prev, int(t[F.mul(x, zeta)])))
            acc ^= F.mul_vec(t_prev, zeta)
        return acc

    return Prequasifield.from_evaluator(m, "flat", mul_row, kind="kantor")


def _trace_onto_table(F: BinaryField, d: int) -> np.ndarray:
    """T(x) = sum_k x^(2^(dk)), k < deg/d: the trace onto GF(2^d), over F."""
    t = np.zeros(F.size, dtype=np.int64)
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

    def mul_row(x: int, zs: np.ndarray) -> np.ndarray:
        x1, x2 = x & qmask, x >> m
        z1, z2 = zs & qmask, zs >> m
        w = sig_inv[z1] ^ F.mul_arr(z2, sig_inv[z2])
        y1 = F.mul_vec(z1, x1) ^ F.mul_vec(w, x2)
        y2 = F.mul_vec(w, x1) ^ F.mul_vec(z2, x2)
        return y1 | (y2 << m)

    return Prequasifield.from_evaluator(m, "pair", mul_row, kind="luneburg")


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
    exhaustive: bool
    samples: int
    failures: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "axioms_ok": self.axioms_ok,
            "is_quasifield": self.is_quasifield,
            "is_presemifield": self.is_presemifield,
            "is_commutative": self.is_commutative,
            "is_symplectic": self.is_symplectic,
            "exhaustive": self.exhaustive,
            "samples": self.samples,
            "failures": {k: [int(v) for v in vals]
                         for k, vals in self.failures.items()},
        }


def validate_prequasifield(Q: Prequasifield, seed: int = 0,
                           samples: int = _DEFAULT_SAMPLES) -> PqfReport:
    """Axioms (1)-(4) plus the quasifield/presemifield/commutative flags.

    All-triples checks run exhaustively up to carrier size 64; above that
    a fixed-seed sample of `samples` triples is drawn (and the report says
    so).  Failures carry the lexicographically smallest witness found.
    """
    t = Q.table
    size = Q.size
    failures: dict[str, tuple] = {}

    if not np.all(t[:, 0] == 0):
        failures["right_zero"] = (int(np.nonzero(t[:, 0])[0][0]),)
    if not np.all(t[0, :] == 0):
        failures["zero_times"] = (int(np.nonzero(t[0, :])[0][0]),)

    ref = np.arange(size)
    for z in range(1, size):
        if not np.array_equal(np.sort(t[:, z]), ref):
            failures.setdefault("right_mult_not_bijective", (z,))
            break
    for x in range(1, size):
        if not np.array_equal(np.sort(t[x, :]), ref):
            failures.setdefault("left_section_not_bijective", (x,))
            break

    exhaustive = size <= _EXHAUSTIVE_TRIPLE_CAP
    if exhaustive:
        xs = np.arange(size)
        xor = xs[:, None] ^ xs[None, :]
        rd = t[xor, :] == (t[:, None, :] ^ t[None, :, :])
        if not rd.all():
            i = np.argwhere(~rd)[0]
            failures["right_distributive"] = tuple(int(v) for v in i)
        ld = t[:, xor] == (t[:, :, None] ^ t[:, None, :])
        left_ok = bool(ld.all())
        n_checked = size ** 3
    else:
        rng = np.random.default_rng(seed)
        trip = rng.integers(0, size, size=(samples, 3))
        rd = t[trip[:, 0] ^ trip[:, 1], trip[:, 2]] == \
            (t[trip[:, 0], trip[:, 2]] ^ t[trip[:, 1], trip[:, 2]])
        if not rd.all():
            i = int(np.nonzero(~rd)[0][0])
            failures["right_distributive"] = tuple(int(v) for v in trip[i])
        ld = t[trip[:, 0], trip[:, 1] ^ trip[:, 2]] == \
            (t[trip[:, 0], trip[:, 1]] ^ t[trip[:, 0], trip[:, 2]])
        left_ok = bool(ld.all())
        n_checked = samples

    identity = None
    for e in range(1, size):
        if np.array_equal(t[:, e], ref) and np.array_equal(t[e, :], ref):
            identity = e
            break

    axioms_ok = not failures
    return PqfReport(
        axioms_ok=axioms_ok,
        is_quasifield=axioms_ok and identity is not None,
        is_presemifield=axioms_ok and left_ok,
        is_commutative=axioms_ok and bool(np.array_equal(t, t.T)),
        is_symplectic=axioms_ok and is_symplectic(Q),
        exhaustive=exhaustive,
        samples=n_checked,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# adjoints, transpose, dual, Knuth orbit
# ---------------------------------------------------------------------------

def adjoint(images: list[int], Q: Prequasifield) -> list[int]:
    """Adjoint of a linear map w.r.t. Q's bilinear form:
    B(adj(x), y) = B(x, map(y)) for all x, y."""
    mt = _gf2.transpose(images, Q.dim)
    return _gf2.matmul(_gf2.matmul(Q._gram, mt), Q._gram_inv)


def transpose_pqf(Q: Prequasifield) -> Prequasifield:
    """x star z = R_z^*(x); coordinatizes the orthogonal (dual) spread.

    Always a fresh object computed from Q's table (`Q.transposed()` is the
    kept copy).  Row i holds e_i star z = adj(R_z)(e_i) for every z: the
    vector whose B mask has bit j equal to B(e_i, e_j o z), exactly the
    basis image `adjoint` gives.  The other rows follow by linearity."""
    basis_rows = Q.table[[1 << j for j in range(Q.dim)]]
    b_inv = kernels.linear_map_table(Q._gram_inv, Q.dim)
    table = np.zeros((Q.size, Q.size), dtype=np.int64)
    h = 1
    for i, g in enumerate(Q._gram):
        mask = np.zeros(Q.size, dtype=np.int64)
        for j in range(Q.dim):
            mask |= (np.bitwise_count(basis_rows[j] & g).astype(np.int64) & 1) << j
        table[h:2 * h] = table[:h] ^ b_inv[mask]
        h *= 2
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
    basis = [1 << i for i in range(Q.dim)]
    per_z = bool(np.array_equal(Q.transposed().table[basis], Q.table[basis]))
    if Q.size <= _EXHAUSTIVE_TRIPLE_CAP:
        bt = Q.b_bit_table()
        literal = all(
            np.array_equal(bt[Q.table[:, z], :], bt[:, Q.table[:, z]])
            for z in range(Q.size))
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
    while frontier:
        nxt = []
        for word, cur in frontier:
            for op, fn in (("d", dual_pqf), ("t", transpose_pqf)):
                new = fn(cur)
                key = new.table.tobytes()
                if key not in seen:
                    seen[key] = word + op
                    items.append((word + op, new))
                    nxt.append((word + op, new))
        frontier = nxt
    by_word = {w: pq for w, pq in items}

    def lookup(word):
        cur = Q
        for op in word:
            cur = dual_pqf(cur) if op == "d" else transpose_pqf(cur)
        return cur

    dtd_eq_tdt = bool(np.array_equal(lookup("dtd").table, lookup("tdt").table))
    return items, dtd_eq_tdt


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
    table = np.zeros((Q.size, Q.size), dtype=np.int64)
    for z in range(Q.size):
        adj = adjoint(Q.left_mult_rows(z), Q)
        table[z, :] = kernels.linear_map_table(adj, Q.dim)
    return Prequasifield(Q.m, Q.shape, table, kind="derived", name=name)


# ---------------------------------------------------------------------------
# spreads as point sets
# ---------------------------------------------------------------------------

def spread_member_points(Q: Prequasifield, z: int | None) -> np.ndarray:
    """Packed points x + size*y of the member {(x, x o z)} (z=None gives
    the vertical member {(0, y)})."""
    ys = np.arange(Q.size, dtype=np.int64)
    if z is None:
        return Q.size * ys
    return ys + Q.size * Q.table[:, z]


def verify_spread(Q: Prequasifield):
    """Every nonzero vector of V x V lies in exactly one member."""
    cover = np.zeros(Q.size * Q.size, dtype=np.int64)
    cover[spread_member_points(Q, None)] += 1
    for z in range(Q.size):
        cover[spread_member_points(Q, z)] += 1
    bad = np.nonzero(cover[1:] != 1)[0]
    if bad.size:
        return False, int(bad[0]) + 1
    return True, None


def spreads_perpendicular(Q: Prequasifield, Qt: Prequasifield) -> bool:
    """Member-wise orthogonality of Sigma(Q) and Sigma(Q^t) under
    <(x,y),(x',y')> = B(x,y') + B(y,x')."""
    for z in range(Q.size):
        r = Q.right_mult_rows(z)
        s = Qt.right_mult_rows(z)
        for i in range(Q.dim):
            for j in range(Q.dim):
                if Q.b_form(1 << i, s[j]) ^ Q.b_form(r[i], 1 << j):
                    return False
    return True


def kernel_of(Q: Prequasifield) -> list[int]:
    """The kernel K(Q): k with k o (x o y) = (k o x) o y and
    k o (x + y) = k o x + k o y for all x, y.  Informational only."""
    t = Q.table
    xs = np.arange(Q.size)
    xor = xs[:, None] ^ xs[None, :]
    out = []
    for k in range(Q.size):
        if not np.array_equal(t[k][xor], t[k][:, None] ^ t[k][None, :]):
            continue
        if np.array_equal(t[k][t], t[t[k]]):
            out.append(k)
    return out


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


def matrix_rep(Q: Prequasifield, z: int, basis: list[int]) -> list[int]:
    """Bit matrix of R_z in an orthonormal basis: M[i][j] = B(R_z b_i, b_j)."""
    rows = []
    for bi in basis:
        img = 0
        rz = Q.mul(bi, z)
        for j, bj in enumerate(basis):
            if Q.b_form(rz, bj):
                img |= 1 << j
        rows.append(img)
    return rows


def symmetric_rep_check(Q: Prequasifield) -> bool:
    """Symplectic iff every M_z is symmetric in an orthonormal basis."""
    basis = orthonormal_basis(Q)
    for z in range(Q.size):
        mz = matrix_rep(Q, z, basis)
        if mz != _gf2.transpose(mz, Q.dim):
            return False
    return True


def diagonal_sqrt(mat: list[list[int]], F: BinaryField) -> tuple[int, ...]:
    """Component-wise square roots of the diagonal of a symmetric matrix
    over F, in natural order."""
    t = len(mat)
    for i in range(t):
        for j in range(t):
            if mat[i][j] != mat[j][i]:
                raise ValueError("matrix must be symmetric")
    return tuple(F.sqrt(mat[i][i]) for i in range(t))


def f_matrix_rep(Q: Prequasifield, z: int) -> list[list[int]]:
    """Matrix of R_z over F (1x1 for flat carriers; 2x2 for pair carriers,
    valid when right multiplications are F-linear, as for Lueneburg)."""
    if Q.shape == "flat":
        if Q.kind != "field":
            raise ValueError("flat F-matrix representation is only the "
                             "field's multiplication-by-z")
        return [[z]]
    r1 = Q.unpack(Q.mul(Q.pack(1, 0), z))
    r2 = Q.unpack(Q.mul(Q.pack(0, 1), z))
    mat = [list(r1), list(r2)]
    F = Q.field
    lams = np.arange(F.size, dtype=np.int64)
    for shift, row in ((0, r1), (Q.m, r2)):     # F-linearity of R_z on lam*e
        got = Q.table[lams << shift, z]
        if not (np.array_equal(got & (F.size - 1), F.mul_vec(lams, row[0]))
                and np.array_equal(got >> Q.m, F.mul_vec(lams, row[1]))):
            raise ValueError("right multiplication is not F-linear")
    return mat


def sqrt_diag_g_table(Q: Prequasifield) -> np.ndarray:
    """The o-polynomial G(z) = d(M_z) of a symplectic spread: square roots
    of the diagonal of the right-multiplication matrices."""
    F = Q.field
    out = np.zeros(Q.size, dtype=np.int64)
    if Q.kind == "field":
        for z in range(Q.size):
            out[z] = F.sqrt(z)
    elif Q.shape == "pair":
        for z in range(Q.size):
            d = diagonal_sqrt(f_matrix_rep(Q, z), F)
            out[z] = Q.pack(d[0], d[1])
    else:
        if not is_symplectic(Q):
            raise ValueError("diagonal construction needs a symplectic spread")
        basis = orthonormal_basis(Q)
        for z in range(Q.size):
            mz = matrix_rep(Q, z, basis)
            diag = sum(((mz[i] >> i) & 1) << i for i in range(Q.dim))
            out[z] = _combine(basis, diag)
    return out


def _combine(basis: list[int], coords: int) -> int:
    acc = 0
    for i, b in enumerate(basis):
        if (coords >> i) & 1:
            acc ^= b
    return acc


# ---------------------------------------------------------------------------
# table file format: header `q=<int> shape=<flat|pair>`, then q rows
# ---------------------------------------------------------------------------

def dumps_pqf(Q: Prequasifield) -> str:
    lines = [f"q={Q.size} shape={Q.shape}"]
    for x in range(Q.size):
        lines.append(" ".join(str(int(v)) for v in Q.table[x]))
    return "\n".join(lines) + "\n"


def loads_pqf(text: str) -> Prequasifield:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("q=") or not head[1].startswith("shape="):
        raise ValueError("bad prequasifield header")
    size = int(head[0][2:])
    shape = head[1][6:]
    dim = size.bit_length() - 1
    if 1 << dim != size:
        raise ValueError("carrier size must be a power of 2")
    m = dim if shape == "flat" else dim // 2
    if shape == "pair" and dim % 2:
        raise ValueError("pair carriers have even GF(2) dimension")
    rows = [list(map(int, ln.split())) for ln in lines[1:]]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError("table must be q rows of q integers")
    return Prequasifield(m, shape, np.array(rows, dtype=np.int64), kind="table")


def save_pqf(Q: Prequasifield, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_pqf(Q))


def load_pqf(path) -> Prequasifield:
    with open(path) as fh:
        return loads_pqf(fh.read())
