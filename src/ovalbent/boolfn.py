"""Boolean functions as truth tables over 2^k points.

Walsh-Hadamard transform, bentness, duals, algebraic normal form and the
EA-equivalence utilities.  The butterfly computes the transform against
the plain dot product on index bits; callers working over a field pass a
`masks` permutation (see gf.FieldParams.tr_mask_table) so that entry b of
the spectrum is the sum against trace(b*x) instead.
"""

from __future__ import annotations

import numpy as np

from . import _gf2, kernels


def _popcounts(idx: np.ndarray) -> np.ndarray:
    return np.bitwise_count(idx.astype(np.uint64)).astype(np.int64)


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
    """Integer spectrum; Parseval is asserted at construction."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: np.ndarray):
        self.k = k
        self.values = values
        assert int(np.dot(values, values)) == 1 << (2 * k), \
            "Parseval: sum of squared Walsh values must be 2^(2k)"

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
    the re-indexed inner product masks[b] & x when masks is given."""
    w = f.table.astype(np.int64)
    w *= -2
    w += 1              # (-1)^f(x) in place: one 2^k temporary, not three
    kernels.walsh_inplace(w)
    if masks is not None:
        w = w[masks]
    return WalshSpectrum(f.k, w)


def is_bent(f: BooleanFunction) -> bool:
    if f.k % 2 != 0:
        raise ValueError("bentness is defined for an even number of variables")
    return _flat_spectrum(walsh_transform(f).values, 1 << (f.k // 2))


def _flat_spectrum(values: np.ndarray, half: int) -> bool:
    """|values| == half everywhere, without a 2^k absolute-value copy."""
    return bool(np.all((values == half) | (values == -half)))


def dual(f: BooleanFunction, masks: np.ndarray | None = None) -> BooleanFunction:
    """Dual bent function read off the Walsh-transform signs.

    With masks, entry b is the sign of the spectrum at masks[b]; the
    permutation is applied to the sign bits, not to the int64 spectrum."""
    if f.k % 2 != 0:
        raise ValueError("bentness is defined for an even number of variables")
    w = walsh_transform(f)
    if not _flat_spectrum(w.values, 1 << (f.k // 2)):
        raise ValueError("dual is only defined for bent functions")
    signs = (w.values < 0).view(np.uint8)
    return BooleanFunction(f.k, signs if masks is None else signs[masks])


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
    if len(images) != f.k or _gf2.rank(list(images)) != f.k:
        raise ValueError("linear map must be an invertible k x k matrix")
    lmap = kernels.linear_map_table(images, f.k)
    return BooleanFunction(f.k, f.table[lmap])


def quadratic_rank(f: BooleanFunction) -> int:
    """GF(2) rank of the symplectic form of a function of degree <= 2.

    A complete EA-invariant for quadratic functions; a quadratic function
    on k bits is bent iff the rank is k.
    """
    if degree(f) > 2:
        raise ValueError("quadratic rank requires degree <= 2")
    t = f.table
    f0 = int(t[0])
    rows = []
    for i in range(f.k):
        ei = 1 << i
        row = 0
        for j in range(f.k):
            ej = 1 << j
            if int(t[ei ^ ej]) ^ int(t[ei]) ^ int(t[ej]) ^ f0:
                row |= 1 << j
        rows.append(row)
    return _gf2.rank(rows)


# ---------------------------------------------------------------------------
# truth-table files: header line `k=<int>`, then hex of the packed bits
# (bit i of the function at bit i%8 of byte i//8, little-endian in bytes)
# ---------------------------------------------------------------------------

def dumps_truth_table(f: BooleanFunction) -> str:
    packed = np.packbits(f.table, bitorder="little")
    return f"k={f.k}\n{packed.tobytes().hex()}\n"


def loads_truth_table(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("k="):
        raise ValueError("expected a `k=<int>` header line and one hex line")
    k = int(lines[0][2:])
    raw = np.frombuffer(bytes.fromhex(lines[1]), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    if bits.size < (1 << k):
        raise ValueError("hex payload shorter than 2^k bits")
    return BooleanFunction(k, bits[: 1 << k])


def save_truth_table(f: BooleanFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_truth_table(f))


def load_truth_table(path) -> BooleanFunction:
    with open(path) as fh:
        return loads_truth_table(fh.read())
