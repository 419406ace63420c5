"""Boolean functions as truth tables over 2^k points.

Walsh-Hadamard transform, bentness, duals, algebraic normal form and the
EA-equivalence utilities.  The transform (`kernels.walsh_inplace`) is
taken against the plain dot product on index bits.  Over a field, entry masks[b], with
masks the permutation of gf.FieldParams.tr_mask_table, is the sum against
trace(b*x); the duals (`WalshSpectrum.dual`, `dual`) take it as `masks`.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .inputs import DomainError, plain_int

# the weights of 0..255 as int16, and per byte value b of packed ANF
# coefficients, 1 + the largest weight of a bit position 0..7 set in b;
# -64 for b = 0, so that no weight added to it makes it positive
_WEIGHT = np.bitwise_count(np.arange(256, dtype=np.uint8)).astype(np.int16)
_BYTE_TOP = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1,
                     1 + _WEIGHT[:8], -64).max(axis=1).astype(np.int16)


def _rank(rows: list[int]) -> int:
    """GF(2) rank of int-mask rows (bit j of row i = entry [i][j])."""
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


class BooleanFunction:
    """Truth table of a k-bit Boolean function; immutable after creation.
    The constructor takes ownership of a uint8 array (kept, not copied,
    and made read-only) and copies any other input to uint8 once every
    entry is checked to be 0 or 1, so the cast never wraps or cuts a
    value; the bit check of a uint8 table is one reduction, the largest
    entry, with no temporary."""

    __slots__ = ("k", "table")

    def __init__(self, k: int, table):
        t = np.asarray(table)
        if t.shape != (1 << k,):
            raise ValueError(f"truth table must have exactly 2^{k} entries")
        if t.dtype == np.uint8:
            bad = t.max() > 1
        else:                   # read on the values, not on their cast
            bad = ((t != 0) & (t != 1)).any()
            t = t.astype(np.uint8)
        if bad:
            raise ValueError("truth table entries must be bits")
        t.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "table", t)

    def __setattr__(self, name, value):
        raise AttributeError("BooleanFunction is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.k, self.table.tobytes()))

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.k != other.k:
            raise ValueError("mismatched input sizes")
        return BooleanFunction(self.k, self.table ^ other.table)

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def weight(self) -> int:
        return int(self.table.sum())

    def __repr__(self) -> str:
        return f"BooleanFunction(k={self.k}, weight={self.weight()})"


class WalshSpectrum:
    """Integer spectrum; Parseval is checked at construction.

    `values` is int32 (every entry is a sum of 2^k terms +-1, so |entry|
    <= 2^k <= 2^24 fits); Parseval's sum of squares is accumulated in
    int64.  The check raises AssertionError itself, not through `assert`,
    so that `python -O` keeps it: the bentness verdict rests on it.  The
    values are read-only, so that verdict is decided once and kept."""

    __slots__ = ("k", "values", "_bent")

    def __init__(self, k: int, values: np.ndarray):
        self.k = k
        self.values = values
        values.flags.writeable = False
        self._bent: bool | None = None
        if int(np.einsum("i,i->", values, values, dtype=np.int64)) != 1 << (2 * k):
            raise AssertionError("Parseval: sum of squared Walsh values must be 2^(2k)")

    def is_bent(self) -> bool:
        """|values| == 2^(k/2) everywhere (k must be even).  The 2^k squares
        sum to 2^(2k) (Parseval), so that holds iff no |value| exceeds
        2^(k/2): two reductions, no temporary."""
        if self.k % 2 != 0:
            raise ValueError("bentness is defined for an even number of variables")
        if self._bent is None:
            half = 1 << (self.k // 2)
            self._bent = bool(self.values.max() <= half and self.values.min() >= -half)
        return self._bent

    def dual(self, masks: np.ndarray | None = None) -> "BooleanFunction":
        """Dual bent function read off the signs of this spectrum.

        With masks, entry b is the sign at masks[b]; the permutation is
        applied to the sign bits, not to the integer spectrum."""
        if not self.is_bent():
            raise ValueError("dual is only defined for bent functions")
        signs = (self.values < 0).view(np.uint8)
        return BooleanFunction(self.k, signs if masks is None else signs[masks])

    def histogram(self) -> dict[int, int]:
        """{value: count} in increasing order.  A bent spectrum takes only
        -2^(k/2) and 2^(k/2), so one count of its negative entries gives
        both, with no sort."""
        if self.k % 2 == 0 and self.is_bent():
            half, neg = 1 << (self.k // 2), int(np.count_nonzero(self.values < 0))
            counts = {-half: neg, half: self.values.shape[0] - neg}
            return {v: c for v, c in counts.items() if c}
        vals, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def __repr__(self) -> str:
        return f"WalshSpectrum(k={self.k}, histogram={self.histogram()})"


class AnfPolynomial:
    """Coefficients over the monomial basis (Moebius transform of the
    table), packed as `packed_words` packs a table: bit s of the uint64
    words is the coefficient of the monomial of the index bits of s, and
    the bits past 2^k are zero."""

    __slots__ = ("k", "words")

    def __init__(self, k: int, words: np.ndarray):
        self.k = k
        self.words = words

    @property
    def coeffs(self) -> np.ndarray:
        """The 2^k coefficients as uint8 bits."""
        return np.unpackbits(self.words.view(np.uint8), count=1 << self.k,
                             bitorder="little")

    def degree(self) -> int:
        """Largest weight of a monomial with coefficient 1, read per byte.

        Byte j of the words holds the monomials 8j + i, i < 8, of weight
        weight(j) + weight(i), so its heaviest is `_BYTE_TOP[byte]` - 1 +
        weight(j), and a zero byte reads negative.  With the bytes viewed
        as (R, C), C = min(256, bytes), weight(j) = weight(row) +
        weight(col): one gather, one add of the column weights and one max
        along the rows, then one add of the row weights."""
        by = self.words.view(np.uint8)
        cols = min(by.shape[0], 256)
        best = (_BYTE_TOP[by].reshape(-1, cols) + _WEIGHT[:cols]).max(axis=1)
        if best.shape[0] > 1:
            best += np.bitwise_count(np.arange(best.shape[0], dtype=np.uint16))
        return max(int(best.max()) - 1, 0)

    def __repr__(self) -> str:
        return f"AnfPolynomial(k={self.k}, degree={self.degree()})"


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Spectrum of f; entry b correlates against parity(b & x).

    The signs (-1)^f(x) are int32, where |entry| <= 2^k fits;
    `kernels.walsh_inplace` transforms them in place, exactly, for k <=
    `kernels.MAX_K` and raises above."""
    w = f.table.astype(np.int32)
    w *= -2
    w += 1              # (-1)^f(x) in place: one 2^k temporary, not three
    kernels.walsh_inplace(w)
    return WalshSpectrum(f.k, w)


def first_difference(a: BooleanFunction, b: BooleanFunction) -> int | None:
    """The smallest point where a and b differ, None if they are equal."""
    if a.k != b.k:
        raise ValueError("mismatched input sizes")
    diff = a.table != b.table
    return int(np.argmax(diff)) if diff.any() else None


def is_bent(f: BooleanFunction) -> bool:
    return walsh_transform(f).is_bent()


def dual(f: BooleanFunction, masks: np.ndarray | None = None) -> BooleanFunction:
    """Dual bent function read off the Walsh-transform signs (see
    `WalshSpectrum.dual` for masks)."""
    return walsh_transform(f).dual(masks)


def packed_words(bits: np.ndarray) -> np.ndarray:
    """The 0/1 entries of bits packed little-endian into fresh uint64
    words: entry s at bit s % 64 of word s // 64, zero-padded to whole
    words."""
    packed = np.packbits(bits, bitorder="little")
    if packed.shape[0] % 8:
        packed = np.concatenate([packed, np.zeros(-packed.shape[0] % 8, np.uint8)])
    return packed.view("<u8")


def anf(f: BooleanFunction) -> AnfPolynomial:
    """ANF of f: the Moebius transform of its packed truth table."""
    words = packed_words(f.table)
    kernels.mobius_inplace(words)
    if f.k < 6:             # one word: its bits past 2^k are not coefficients
        words &= (1 << (1 << f.k)) - 1
    return AnfPolynomial(f.k, words)


def degree(f: BooleanFunction) -> int:
    return anf(f).degree()


def add_affine(f: BooleanFunction, mask: int, const: int = 0) -> BooleanFunction:
    """f(x) + parity(mask & x) + const."""
    bits = [(mask >> i) & 1 for i in range(f.k)]
    par = kernels.linear_map_table(bits, f.k, dtype=np.uint8)
    return BooleanFunction(f.k, f.table ^ par ^ (const & 1))


def quadratic_rank(f: BooleanFunction, deg: int | None = None) -> int:
    """GF(2) rank of the symplectic form of a function of degree <= 2.

    A complete EA-invariant for quadratic functions; a quadratic function
    on k bits is bent iff the rank is k.  `deg`: degree(f), when the
    caller has already computed it.
    """
    if (degree(f) if deg is None else deg) > 2:
        raise ValueError("quadratic rank requires degree <= 2")
    # form[i, j] = f(e_i + e_j) + f(e_i) + f(e_j) + f(0)
    t, e = f.table, 1 << np.arange(f.k)
    form = t[e[:, None] ^ e[None, :]] ^ t[e][:, None] ^ t[e][None, :] ^ t[0]
    return _rank((form.astype(np.int64) @ e).tolist())


# ---------------------------------------------------------------------------
# truth-table files: header line `k=<int>`, then hex of the packed bits
# (bit i of the function at bit i%8 of byte i//8, little-endian in bytes)
# ---------------------------------------------------------------------------

def dumps_truth_table(f: BooleanFunction) -> str:
    packed = np.packbits(f.table, bitorder="little")
    return f"k={f.k}\n{packed.tobytes().hex()}\n"


def loads_truth_table(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    # ASCII digits after k=, and one word of hex: bytes.fromhex skips
    # whitespace, and rejects any other character that is not a hex digit
    if len(lines) != 2 or lines[0][:2] != "k=" or not lines[0][2:].isdecimal() \
            or not lines[0].isascii() or len(lines[1].split()) != 1:
        raise DomainError("expected a `k=<int>` header line (k >= 0) and one hex line")
    k = plain_int(lines[0][2:])
    if k > kernels.MAX_K:
        raise DomainError(f"k={k} is above the truth-table cap k <= {kernels.MAX_K}")
    try:
        raw = np.frombuffer(bytes.fromhex(lines[1]), dtype=np.uint8)
    except ValueError as e:         # a non-hex character or an odd count
        raise DomainError(str(e)) from None
    bits = np.unpackbits(raw, bitorder="little")
    # exactly the 2^k bits, 0-padded to one byte
    if bits.size != max(8, 1 << k) or bits[1 << k:].any():
        raise DomainError(f"k={k} needs exactly (2^k + 7) // 8 bytes of hex, "
                          "with the bits past 2^k zero")
    return BooleanFunction(k, bits[: 1 << k])


def save_truth_table(f: BooleanFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_truth_table(f))


def load_truth_table(path) -> BooleanFunction:
    with open(path) as fh:
        return loads_truth_table(fh.read())
