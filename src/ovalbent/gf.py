"""Exact arithmetic in F = GF(2^m) and its quadratic extension K = GF(2^2m).

Field elements are plain ints: the little-endian coefficient vector of the
polynomial-basis representation (constant term = bit 0).  A BinaryField
object carries the modulus and the log/exp tables; FieldParams ties the
pair (F, K) together with the subfield embedding, the unit circle and the
polar decomposition.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import _gf2, kernels

# log/exp (and other per-element) tables are built for fields up to this
# many bits; larger fields fall back to scalar arithmetic.
_TABLE_BITS = 18


# ---------------------------------------------------------------------------
# GF(2)[x] on int bit-masks
# ---------------------------------------------------------------------------

def pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def pmod(a: int, mod: int) -> int:
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def pmulmod(a: int, b: int, mod: int) -> int:
    return pmod(pmul(a, b), mod)


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def _x_pow_2k(k: int, mod: int) -> int:
    """x^(2^k) mod `mod`, by repeated squaring."""
    r = pmod(0b10, mod)
    for _ in range(k):
        r = pmulmod(r, r, mod)
    return r


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (fine for n < 2^64-ish)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_irreducible(mask: int) -> bool:
    """Rabin irreducibility test for a GF(2)[x] polynomial."""
    d = mask.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if _x_pow_2k(d, mask) != pmod(0b10, mask):
        return False
    for r in prime_factors(d):
        if pgcd(_x_pow_2k(d // r, mask) ^ 0b10, mask) != 1:
            return False
    return True


def smallest_irreducible(deg: int) -> int:
    """Lexicographically smallest (as a bit-mask) irreducible of a degree."""
    for mask in range(1 << deg, 1 << (deg + 1)):
        if is_irreducible(mask):
            return mask
    raise AssertionError("irreducible polynomials exist in every degree")


# ---------------------------------------------------------------------------
# single binary field
# ---------------------------------------------------------------------------

class BinaryField:
    """GF(2^deg) on int bit-masks, with log/exp tables for small degrees."""

    def __init__(self, deg: int, poly: int | None = None):
        if deg < 1 or deg > 2 * 16:
            raise ValueError(f"degree {deg} out of supported range")
        self.deg = deg
        self.size = 1 << deg
        self.order = self.size - 1
        self.poly = smallest_irreducible(deg) if poly is None else poly
        if self.poly.bit_length() - 1 != deg or not is_irreducible(self.poly):
            raise ValueError(f"{self.poly:#b} is not irreducible of degree {deg}")
        self.generator = self._find_generator()
        self.exp: np.ndarray | None = None
        self.log: np.ndarray | None = None
        if deg <= _TABLE_BITS:
            self._build_tables()
        # absolute trace as a parity mask: trace(a) = parity(a & trace_mask)
        self._trace_mask = 0
        for i in range(deg):
            if self._trace_slow(1 << i):
                self._trace_mask |= 1 << i
        # dot_mask of each basis element: bit j of image i is trace(e_i e_j)
        self._dot_mask_images = [
            sum(self.trace(self._raw_mul(1 << i, 1 << j)) << j for j in range(deg))
            for i in range(deg)]
        self._dot_mask_table: np.ndarray | None = None
        self._trace_table: np.ndarray | None = None

    # -- construction helpers -------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        return pmod(pmul(a, b), self.poly)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        if self.order == 1:
            return 1
        cofactors = [self.order // p for p in prime_factors(self.order)]
        for cand in range(2, self.size):
            if all(self._raw_pow(cand, c) != 1 for c in cofactors):
                return cand
        raise AssertionError("multiplicative group of a finite field is cyclic")

    def _build_tables(self) -> None:
        exp = np.zeros(self.order, dtype=np.int64)
        log = np.zeros(self.size, dtype=np.int64)
        acc = 1
        for i in range(self.order):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, self.generator)
        assert acc == 1, "generator order must be 2^deg - 1"
        exp.flags.writeable = False      # shared through binary_field
        log.flags.writeable = False
        self.exp, self.log = exp, log

    def _trace_slow(self, a: int) -> int:
        t, x = 0, a
        for _ in range(self.deg):
            t ^= x
            x = self._raw_mul(x, x)
        assert t in (0, 1)
        return t

    # -- scalar operations ----------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.exp is not None:
            return int(self.exp[(self.log[a] + self.log[b]) % self.order])
        return self._raw_mul(a, b)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.exp is not None:
            return int(self.exp[(self.order - self.log[a]) % self.order])
        return self._raw_pow(a, self.order - 1)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        e %= self.order
        if self.exp is not None:
            return int(self.exp[(self.log[a] * e) % self.order])
        return self._raw_pow(a, e)

    def sqrt(self, a: int) -> int:
        # squaring is a bijection in characteristic 2
        return self.pow(a, 1 << (self.deg - 1))

    def trace(self, a: int) -> int:
        return (a & self._trace_mask).bit_count() & 1

    def dot_mask(self, b: int) -> int:
        """Mask with trace(b*x) = parity(mask & x) for all x (linear in b)."""
        return _gf2.apply(self._dot_mask_images, b)

    # -- table accessors for vectorized paths ----------------------------

    def _need_tables(self) -> None:
        if self.exp is None:
            raise RuntimeError(
                f"GF(2^{self.deg}) is above the table cap of {_TABLE_BITS} bits")

    def mul_vec(self, arr: np.ndarray, b: int) -> np.ndarray:
        """Pointwise product of an array of elements with a fixed element."""
        self._need_tables()
        if b == 0:
            return np.zeros_like(arr)
        out = self.exp[(self.log[arr] + self.log[b]) % self.order]
        out[arr == 0] = 0
        return out

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two arrays of field elements."""
        self._need_tables()
        out = self.exp[(self.log[a] + self.log[b]) % self.order]
        out[(a == 0) | (b == 0)] = 0
        return out

    def pow_table(self, e: int) -> np.ndarray:
        """Table of x^e over the whole field (0^e = 0 for e > 0)."""
        self._need_tables()
        e %= self.order
        t = np.zeros(self.size, dtype=np.int64)
        t[self.exp] = self.exp[(self.log[self.exp] * e) % self.order]
        t[0] = 1 if e == 0 else 0
        return t

    def dot_mask_table(self) -> np.ndarray:
        if self._dot_mask_table is None:
            self._dot_mask_table = kernels.linear_map_table(
                self._dot_mask_images, self.deg)
        return self._dot_mask_table

    def trace_table(self) -> np.ndarray:
        if self._trace_table is None:
            self._trace_table = kernels.linear_map_table(
                [self.trace(1 << i) for i in range(self.deg)],
                self.deg, dtype=np.uint8)
        return self._trace_table

    def __repr__(self) -> str:
        return f"BinaryField(deg={self.deg}, poly={self.poly:#x})"


@functools.lru_cache(maxsize=None)
def binary_field(deg: int) -> BinaryField:
    """GF(2^deg) on the smallest irreducible modulus; one object per degree."""
    return BinaryField(deg)


# ---------------------------------------------------------------------------
# the pair (F, K) with embedding, unit circle, polar coordinates
# ---------------------------------------------------------------------------

class PolarForm(NamedTuple):
    """x = lam * u with lam in F* (as an F-index) and u on the unit circle."""
    lam: int
    u: int


class FieldParams:
    """GF(2^m) inside GF(2^2m): embedding, traces, norm, unit circle."""

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise ValueError("m must be between 2 and 16")
        self.m = m
        self.n = 2 * m
        self.q = 1 << m
        self.F = binary_field(m)
        self.K = binary_field(2 * m)
        self.gamma = self.K.generator

        # conjugation x -> x^q is GF(2)-linear
        self._conj_images = [self.K._raw_pow(1 << i, self.q) for i in range(self.n)]
        self._conj_table: np.ndarray | None = None
        if self.n <= _TABLE_BITS:
            self._conj_table = kernels.linear_map_table(self._conj_images, self.n)

        # embedded subfield F' = {0} u {gamma^(j(q+1))} and the embedding table
        step = self.K.pow(self.gamma, self.q + 1)
        sub = {0, 1}
        acc = 1
        for _ in range(self.q - 2):
            acc = self.K.mul(acc, step)
            sub.add(acc)
        assert len(sub) == self.q, "subfield elements must be distinct"
        roots = sorted(x for x in sub if self._eval_poly_f(x) == 0)
        assert len(roots) == self.m, "poly_f splits in K with m distinct roots"
        beta = roots[0]
        beta_powers = [self.K.pow(beta, i) for i in range(self.m)]
        self.embed = kernels.linear_map_table(beta_powers, self.m)
        assert set(int(v) for v in self.embed) == sub, \
            "embedding image must equal the gamma-power subfield"
        self.project = {int(v): i for i, v in enumerate(self.embed)}

        # unit circle, ordered as gamma^(j(q-1)), j = 0..q
        ustep = self.K.pow(self.gamma, self.q - 1)
        s = np.zeros(self.q + 1, dtype=np.int64)
        s[0] = 1
        for j in range(1, self.q + 1):
            s[j] = self.K.mul(int(s[j - 1]), ustep)
        assert len(set(s.tolist())) == self.q + 1
        assert all(self.K.pow(int(u), self.q + 1) == 1 for u in s)
        self.S = s
        self.s_index = {int(u): j for j, u in enumerate(s)}

        self._unit_class: np.ndarray | None = None
        self._tr_mask_table: np.ndarray | None = None
        self._project_table: np.ndarray | None = None
        self._line_trace_basis: np.ndarray | None = None

    def _eval_poly_f(self, x: int) -> int:
        acc = 0
        for i in range(self.F.poly.bit_length() - 1, -1, -1):
            acc = self.K.mul(acc, x)
            if (self.F.poly >> i) & 1:
                acc ^= 1
        return acc

    # -- conjugation / subfield ------------------------------------------

    def conjugate(self, x: int) -> int:
        if self._conj_table is not None:
            return int(self._conj_table[x])
        acc = 0
        i = 0
        while x:
            if x & 1:
                acc ^= self._conj_images[i]
            x >>= 1
            i += 1
        return acc

    def in_subfield(self, x: int) -> bool:
        return self.conjugate(x) == x

    def conj_table(self) -> np.ndarray:
        if self._conj_table is None:
            raise RuntimeError("field above table cap")
        return self._conj_table

    # -- traces and norm ---------------------------------------------------

    def trace_rel(self, x: int) -> int:
        """T(x) = x + x^q, projected to an F-index."""
        return self.project[x ^ self.conjugate(x)]

    def norm_rel(self, x: int) -> int:
        """N(x) = x * x^q, projected to an F-index."""
        return self.project[self.K.mul(x, self.conjugate(x))]

    # -- polar coordinates --------------------------------------------------

    def unit_circle(self) -> np.ndarray:
        return self.S

    def polar_decompose(self, x: int) -> PolarForm:
        if x == 0:
            raise ValueError("0 has no polar decomposition")
        lam_k = self.K.sqrt(self.K.mul(x, self.conjugate(x)))
        lam = self.project[lam_k]
        u = self.K.mul(x, self.K.inv(lam_k))
        return PolarForm(lam, u)

    def recompose(self, p: PolarForm) -> int:
        return self.K.mul(int(self.embed[p.lam]), p.u)

    def unit_class_table(self) -> np.ndarray:
        """Per nonzero K-index, the S-index of its polar unit part (-1 at 0)."""
        if self._unit_class is None:
            ucls = np.full(self.K.size, -1, dtype=np.int64)
            lams = self.embed[1:]
            for j, u in enumerate(self.S):
                ucls[self.K.mul_vec(lams, int(u))] = j
            self._unit_class = ucls
        return self._unit_class

    def project_table(self) -> np.ndarray:
        """K-index -> F-index for the embedded subfield, -1 elsewhere."""
        if self._project_table is None:
            t = np.full(self.K.size, -1, dtype=np.int64)
            t[self.embed] = np.arange(self.q)
            self._project_table = t
        return self._project_table

    def line_trace_basis(self) -> np.ndarray:
        """Row j, column i: F-index of T(u_j * e_i), for u_j on the circle.

        T(u x) is GF(2)-linear in x, so these rows reconstruct the full
        incidence function of every line L(u_j, .) by subset XOR.
        """
        if self._line_trace_basis is None:
            rows = np.zeros((self.q + 1, self.n), dtype=np.int64)
            for j, u in enumerate(self.S):
                for i in range(self.n):
                    t = self.K.mul(int(u), 1 << i)
                    rows[j, i] = self.project[t ^ self.conjugate(t)]
            self._line_trace_basis = rows
        return self._line_trace_basis

    # -- Walsh-transform re-indexing -----------------------------------------

    def tr_mask_table(self) -> np.ndarray:
        """mask[b] with Tr(b x) = parity(mask[b] & x); indexes the spectrum."""
        if self._tr_mask_table is None:
            self._tr_mask_table = self.K.dot_mask_table()
        return self._tr_mask_table

    def __repr__(self) -> str:
        return (f"FieldParams(m={self.m}, poly_f={self.F.poly:#x}, "
                f"poly_k={self.K.poly:#x}, gamma={self.gamma})")


@functools.lru_cache(maxsize=None)
def field_make(m: int) -> FieldParams:
    """Validated field parameters for GF(2^m) in GF(2^2m); cached."""
    return FieldParams(m)
