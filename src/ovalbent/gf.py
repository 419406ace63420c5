"""Exact arithmetic in F = GF(2^m) and its quadratic extension K = GF(2^2m).

Field elements are plain ints: the little-endian coefficient vector of the
polynomial-basis representation (constant term = bit 0).  A BinaryField
object carries the modulus and the log/exp tables; FieldParams ties the
pair (F, K) together with the subfield embedding, the unit circle and the
polar decomposition.

Every field has its tables, so the table cap is the input domain: degrees
1.._TABLE_BITS for BinaryField, and m in M_RANGE (2..9) for FieldParams.
"""

from __future__ import annotations

import functools
from numbers import Integral

import numpy as np

from . import kernels

# log/exp (and other per-element) tables are built for every field; this
# many bits is the largest supported degree.
_TABLE_BITS = 18

# supported m for the pair (F, K) = (GF(2^m), GF(2^2m)): K must fit the cap
M_RANGE = range(2, _TABLE_BITS // 2 + 1)


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
    """GF(2^deg) on int bit-masks, with log/exp tables."""

    def __init__(self, deg: int, poly: int | None = None):
        if not isinstance(deg, Integral) or not 1 <= deg <= _TABLE_BITS:
            raise ValueError(f"degree {deg!r} out of the supported range "
                             f"1..{_TABLE_BITS}")
        self.deg = deg
        self.size = 1 << deg
        self.order = self.size - 1
        self.poly = smallest_irreducible(deg) if poly is None else poly
        if self.poly.bit_length() - 1 != deg or not is_irreducible(self.poly):
            raise ValueError(f"{self.poly:#b} is not irreducible of degree {deg}")
        self.generator = self._find_generator()
        self._build_tables()
        # absolute trace as a parity mask: trace(a) = parity(a & trace_mask)
        self._trace_mask = sum(self._trace_slow(1 << i) << i for i in range(deg))
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
        # By doubling: multiplication by c = g^h is GF(2)-linear, so
        # exp[h:2h] is the image of exp[:h] under x -> c x, read off two
        # small tables of that map (low and high bits of x).  Every set-up
        # temporary stays below half a table.
        lo_bits = self.deg // 2
        exp = np.ones(self.order, dtype=np.int32)
        log = np.zeros(self.size, dtype=np.int32)
        h, c = 1, self.generator
        while h < self.order:
            images = [self._raw_mul(1 << i, c) for i in range(self.deg)]
            lo = kernels.linear_map_table(images[:lo_bits], lo_bits)
            hi = kernels.linear_map_table(images[lo_bits:], self.deg - lo_bits)
            n = min(h, self.order - h)
            exp[h:h + n] = lo[exp[:n] & (lo.size - 1)] ^ hi[exp[:n] >> lo_bits]
            log[exp[h:h + n]] = np.arange(h, h + n, dtype=np.int32)
            h, c = 2 * h, self._raw_mul(c, c)
        assert self._raw_mul(int(exp[-1]), self.generator) == 1, \
            "generator order must divide 2^deg - 1"
        # the order entries of exp hit every nonzero element iff distinct
        seen = np.zeros(self.size, dtype=bool)
        seen[exp] = True
        assert seen[1:].all(), "generator powers must be distinct"
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

    # the scalar operations do their log arithmetic on Python ints: an
    # int32 table entry times a Python int stays int32 and can wrap

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % self.order])

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.exp[-int(self.log[a]) % self.order])

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
        return int(self.exp[int(self.log[a]) * e % self.order])

    def sqrt(self, a: int) -> int:
        # squaring is a bijection in characteristic 2
        return self.pow(a, 1 << (self.deg - 1))

    def trace(self, a: int) -> int:
        return (a & self._trace_mask).bit_count() & 1

    def dot_mask(self, b: int) -> int:
        """Mask with trace(b*x) = parity(mask & x) for all x (linear in b)."""
        return int(self.dot_mask_table()[b])

    # -- table accessors for vectorized paths ----------------------------

    def mul_arr(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Elementwise product of two arrays of field elements; a scalar b
        broadcasts."""
        out = self.exp[(self.log[a] + self.log[b]) % self.order]
        out[(a == 0) | (b == 0)] = 0
        return out

    def div_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise quotient a / b of two arrays of field elements."""
        if np.any(b == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        out = self.exp[(self.log[a] - self.log[b]) % self.order]
        out[a == 0] = 0
        return out

    def pow_table(self, e: int) -> np.ndarray:
        """Table of x^e over the whole field (0^e = 0 for e != 0)."""
        t = np.zeros(self.size, dtype=np.int32)
        # log[exp[i]] = i; int64, since i * e passes 2^31 from degree 16
        i = np.arange(self.order, dtype=np.int64)
        t[self.exp] = self.exp[i * (e % self.order) % self.order]
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

class FieldParams:
    """GF(2^m) inside GF(2^2m): embedding, traces, norm, unit circle."""

    def __init__(self, m: int):
        if not isinstance(m, Integral) or m not in M_RANGE:
            raise ValueError(f"m must be between {M_RANGE[0]} and {M_RANGE[-1]}")
        self.m = m
        self.n = 2 * m
        self.q = 1 << m
        self.F = binary_field(m)
        self.K = binary_field(2 * m)
        self.gamma = self.K.generator

        # conjugation x -> x^q is GF(2)-linear
        self._conj_table = kernels.linear_map_table(
            [self.K.pow(1 << i, self.q) for i in range(self.n)], self.n)

        # embedded subfield F' = {0} u {gamma^(j(q+1))} and the embedding table
        sub = np.sort(np.append(self.K.exp[::self.q + 1], 0))
        assert np.all(np.diff(sub) > 0), "subfield elements must be distinct"
        acc = np.zeros_like(sub)         # poly_f at every element, by Horner
        for i in range(self.m, -1, -1):
            acc = self.K.mul_arr(acc, sub) ^ ((self.F.poly >> i) & 1)
        roots = sub[acc == 0]
        assert roots.size == self.m, "poly_f splits in K with m distinct roots"
        self.embed = kernels.linear_map_table(     # beta = the smallest root
            [self.K.pow(int(roots[0]), i) for i in range(self.m)], self.m)
        assert np.array_equal(np.sort(self.embed), sub), \
            "embedding image must equal the gamma-power subfield"

        # unit circle, ordered as gamma^(j(q-1)), j = 0..q
        s = self.K.exp[(self.q - 1) * np.arange(self.q + 1) % self.K.order]
        assert np.all(np.diff(np.sort(s)) > 0)
        assert np.all(self.K.log[s] % (self.q - 1) == 0)   # s^(q+1) = 1
        self.S = s

        self._unit_class: np.ndarray | None = None
        self._polar_log: np.ndarray | None = None
        self._tr_mask_table: np.ndarray | None = None
        self._project_table: np.ndarray | None = None
        self._line_trace_basis: np.ndarray | None = None

    # -- conjugation / subfield ------------------------------------------

    def conjugate(self, x: int) -> int:
        return int(self._conj_table[x])

    def in_subfield(self, x: int) -> bool:
        return self.conjugate(x) == x

    def conj_table(self) -> np.ndarray:
        return self._conj_table

    # -- traces and norm ---------------------------------------------------

    def trace_rel_arr(self, xs) -> np.ndarray:
        """F-indices of T(x) = x + x^q over an array of K-indices."""
        xs = np.asarray(xs)
        return self.project_table()[xs ^ self._conj_table[xs]]

    def trace_rel(self, x: int) -> int:
        """T(x) as an F-index, for one K-index x."""
        return int(self.trace_rel_arr(x))

    def norm_rel(self, x: int) -> int:
        """N(x) = x * x^q, projected to an F-index."""
        return int(self.project_table()[self.K.mul(x, self.conjugate(x))])

    # -- the unit circle -----------------------------------------------------

    def circle_pow(self, e: int) -> np.ndarray:
        """u^e over the circle, in circle order: S lists gamma^(j(q-1)),
        so u^e is the entry at index j*e mod q+1 (fractional exponents
        are inverses mod q+1)."""
        q1 = self.q + 1
        return self.S[np.arange(q1) * e % q1]

    # -- polar coordinates --------------------------------------------------

    def polar(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """(lam, j) with x = lam * S[j] for each nonzero x: j is the unit
        class of x and lam the F-index of x / S[j]."""
        xs = np.asarray(xs)
        if np.any(xs == 0):
            raise ValueError("0 has no polar decomposition")
        j = self.unit_class_table()[xs]
        return self.project_table()[self.K.mul_arr(xs, self.S[-j])], j

    def unit_class_table(self) -> np.ndarray:
        """Per nonzero K-index, the S-index of its polar unit part (-1 at 0)."""
        if self._unit_class is None:
            # gamma^e = gamma^((q+1)a) gamma^((q-1)j), so e = (q-1) j mod q+1;
            # e is reduced first, since e (q-1)^-1 can pass 2^31 from m = 11
            q1 = self.q + 1
            ucls = self.K.log % q1
            ucls *= pow(self.q - 1, -1, q1)
            ucls %= q1
            ucls[0] = -1
            self._unit_class = ucls
        return self._unit_class

    def polar_log_table(self) -> np.ndarray:
        """Per nonzero K-index x = lam * S[j], log_F(lam) as int16 (0 at 0).

        With `unit_class_table()` this is the whole polar decomposition as
        two gathers: lam = F.exp[table[x]], u = S[unit class of x]."""
        if self._polar_log is None:
            lam, _ = self.polar(np.arange(1, self.K.size, dtype=np.int32))
            t = np.zeros(self.K.size, dtype=np.int16)
            t[1:] = self.F.log[lam]
            t.flags.writeable = False
            self._polar_log = t
        return self._polar_log

    def project_table(self) -> np.ndarray:
        """K-index -> F-index for the embedded subfield, -1 elsewhere."""
        if self._project_table is None:
            t = np.full(self.K.size, -1, dtype=np.int32)
            t[self.embed] = np.arange(self.q)
            self._project_table = t
        return self._project_table

    # no library caller: kept for perfbench/setup_probe.py and tracing.TARGETS
    def line_trace_basis(self) -> np.ndarray:
        """Row j, column i: F-index of T(u_j * e_i), for u_j on the circle.

        T(u x) is GF(2)-linear in x, so these rows reconstruct the full
        incidence function of every line L(u_j, .) by subset XOR.
        """
        if self._line_trace_basis is None:
            self._line_trace_basis = self.trace_rel_arr(
                self.K.mul_arr(self.S[:, None], 1 << np.arange(self.n)))
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
