"""Boolean functions as truth tables over 2^k points.

Walsh-Hadamard transform, bentness, duals, algebraic normal form and the
EA-equivalence utilities.  The butterfly computes the transform against
the plain dot product on index bits; callers working over a field pass a
`masks` permutation (see gf.FieldParams.tr_mask_table) so that entry b of
the spectrum is the sum against trace(b*x) instead.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def _popcounts(idx: np.ndarray) -> np.ndarray:
    return np.bitwise_count(idx.astype(np.uint64)).astype(np.int64)


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
    """Truth table of a k-bit Boolean function; immutable after creation."""

    __slots__ = ("k", "table")

    def __init__(self, k: int, table):
        t = np.asarray(table, dtype=np.uint8).copy()
        if t.shape != (1 << k,):
            raise ValueError(f"truth table must have exactly 2^{k} entries")
        if np.any(t > 1):
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
    """Integer spectrum; Parseval is asserted at construction.

    `values` is int32 for k <= 30 (every entry is a sum of 2^k terms +-1,
    so |entry| <= 2^k fits) and int64 above; Parseval's sum of squares is
    accumulated in int64 either way."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: np.ndarray):
        self.k = k
        self.values = values
        assert int(np.einsum("i,i->", values, values, dtype=np.int64)) \
            == 1 << (2 * k), "Parseval: sum of squared Walsh values must be 2^(2k)"

    def is_bent(self) -> bool:
        """|values| == 2^(k/2) everywhere (k must be even)."""
        if self.k % 2 != 0:
            raise ValueError("bentness is defined for an even number of variables")
        half = 1 << (self.k // 2)
        return bool(np.all((self.values == half) | (self.values == -half)))

    def dual(self, masks: np.ndarray | None = None) -> "BooleanFunction":
        """Dual bent function read off the signs of this spectrum.

        With masks, entry b is the sign at masks[b]; the permutation is
        applied to the sign bits, not to the integer spectrum."""
        if not self.is_bent():
            raise ValueError("dual is only defined for bent functions")
        signs = (self.values < 0).view(np.uint8)
        return BooleanFunction(self.k, signs if masks is None else signs[masks])

    def histogram(self) -> dict[int, int]:
        vals, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def __repr__(self) -> str:
        return f"WalshSpectrum(k={self.k}, histogram={self.histogram()})"


class AnfPolynomial:
    """Coefficients over the monomial basis (Moebius transform of the table)."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: np.ndarray):
        self.k = k
        self.coeffs = coeffs

    def degree(self) -> int:
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return 0
        return int(_popcounts(nz).max())

    def __repr__(self) -> str:
        return f"AnfPolynomial(k={self.k}, degree={self.degree()})"


def walsh_transform(f: BooleanFunction, masks: np.ndarray | None = None) -> WalshSpectrum:
    """Spectrum of f; entry b correlates against parity(b & x), or against
    the re-indexed inner product masks[b] & x when masks is given.

    The butterfly runs in int32 for k <= 30, where |entry| <= 2^k is
    exact, and in int64 above."""
    w = f.table.astype(np.int32 if f.k <= 30 else np.int64)
    w *= -2
    w += 1              # (-1)^f(x) in place: one 2^k temporary, not three
    kernels.walsh_inplace(w)
    if masks is not None:
        w = w[masks]
    return WalshSpectrum(f.k, w)


def is_bent(f: BooleanFunction) -> bool:
    if f.k % 2 != 0:
        raise ValueError("bentness is defined for an even number of variables")
    return walsh_transform(f).is_bent()


def dual(f: BooleanFunction, masks: np.ndarray | None = None) -> BooleanFunction:
    """Dual bent function read off the Walsh-transform signs (see
    `WalshSpectrum.dual` for masks)."""
    if f.k % 2 != 0:
        raise ValueError("bentness is defined for an even number of variables")
    return walsh_transform(f).dual(masks)


def anf(f: BooleanFunction) -> AnfPolynomial:
    c = f.table.copy()
    kernels.mobius_inplace(c)
    return AnfPolynomial(f.k, c)


def from_anf(a: AnfPolynomial) -> BooleanFunction:
    t = a.coeffs.copy()
    kernels.mobius_inplace(t)
    return BooleanFunction(a.k, t)


def degree(f: BooleanFunction) -> int:
    return anf(f).degree()


def add_affine(f: BooleanFunction, mask: int, const: int = 0) -> BooleanFunction:
    """f(x) + parity(mask & x) + const."""
    bits = [(mask >> i) & 1 for i in range(f.k)]
    par = kernels.linear_map_table(bits, f.k, dtype=np.uint8)
    return BooleanFunction(f.k, f.table ^ par ^ (const & 1))


def compose_linear(f: BooleanFunction, images: list[int]) -> BooleanFunction:
    """f(L(x)) for the linear map sending basis bit i to images[i]."""
    if len(images) != f.k or _rank(list(images)) != f.k:
        raise ValueError("linear map must be an invertible k x k matrix")
    lmap = kernels.linear_map_table(images, f.k)
    return BooleanFunction(f.k, f.table[lmap])


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
    if len(lines) != 2 or lines[0][:2] != "k=" or not lines[0][2:].isdecimal():
        raise ValueError("expected a `k=<int>` header line (k >= 0) and one hex line")
    k = int(lines[0][2:])
    raw = np.frombuffer(bytes.fromhex(lines[1]), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    # exactly the 2^k bits, 0-padded to one byte; k is bounded before 2**k
    if k >= bits.size.bit_length() or bits.size != max(8, 2**k) or bits[2**k:].any():
        raise ValueError(f"k={k} needs exactly (2^k + 7) // 8 bytes of hex, "
                         "with the bits past 2^k zero")
    return BooleanFunction(k, bits[: 1 << k])


def save_truth_table(f: BooleanFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_truth_table(f))


def load_truth_table(path) -> BooleanFunction:
    with open(path) as fh:
        return loads_truth_table(fh.read())
