"""Bent functions linear on the rays of the Desarguesian spread of K.

Every such function is f(lam u) = tr(lam g(u)) for a map g from the unit
circle S into F.  This module builds the known families' g maps, the
truth tables, the associated line ovals, and the dual function along
three independent routes: Walsh signs, the circle product formula, and
(for the Leander family) the closed trace form.  The line oval comes
from the coset form of each line L(u, g(u)) (`geometry.line_point_rows`);
the product route works ray by ray on x = lam v instead, so the two stay
independent computations of the same zero set.

The truth table is one gather over K through the polar log table
(`FieldParams.polar_log_table`).  A command builds it once and hands it
to the Walsh route, and builds the line oval once: the product route
takes that `LineOval`, which exists only for a bent g.

Maps on the circle are index arithmetic: u^e over the circle is one
gather (`FieldParams.circle_pow`), T of a whole array is another
(`FieldParams.trace_rel_arr`), and quotients go through `div_arr`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import boolfn, geometry, kernels
from .gf import FieldParams, field_make

FAMILIES = ("quadratic", "binomial_3", "binomial_1_6", "leander_r")


@dataclass(frozen=True)
class UnitCircleMap:
    """g : S -> F, stored as F-indices aligned with the circle ordering."""
    m: int
    values: np.ndarray

    def __post_init__(self):
        assert self.values.shape == ((1 << self.m) + 1,)

    def __eq__(self, other):
        if not isinstance(other, UnitCircleMap):
            return NotImplemented
        return self.m == other.m and bool(np.array_equal(self.values, other.values))


def _is_int(v) -> bool:
    """A JSON integer: true and false are bools, which Python counts as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class NihoSpec:
    """A member of one of the four constructions.

    a_index is the coefficient a as a K-index (None picks the smallest a
    with a + a^q = 1).  alpha2_index generalizes the binomials to
    Tr(a x^d1 + alpha2 x^d2) under (a + a^q)^2 = alpha2^(q+1).
    """
    family: str
    m: int
    a_index: int | None = None
    alpha2_index: int | None = None
    r: int | None = None

    def resolve(self, params: FieldParams) -> "ResolvedSpec":
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; have {FAMILIES}")
        if params.m != self.m:
            raise ValueError("field parameters do not match the spec")
        for name in ("a_index", "alpha2_index"):
            v = getattr(self, name)
            if v is not None and not 0 <= v < params.K.size:
                raise ValueError(f"{name} {v} is not a K-index in "
                                 f"[0, {params.K.size})")
        a = self.a_index if self.a_index is not None else smallest_half_trace(params)
        ta = params.trace_rel(a)
        alpha2 = self.alpha2_index if self.alpha2_index is not None else 1
        r = self.r
        if self.family == "quadratic":
            if a == 0:
                raise ValueError("the quadratic family needs a != 0")
        elif self.family in ("binomial_3", "binomial_1_6"):
            if params.F.sqr(ta) != params.norm_rel(alpha2):
                raise ValueError("binomial condition (a+a^q)^2 = "
                                 "alpha2^(q+1) violated")
            if self.family == "binomial_1_6" and self.m % 2 != 0:
                raise ValueError("the 1/6 binomial needs m even")
        else:
            if r is None or not 1 < r < self.m or math.gcd(r, self.m) != 1:
                raise ValueError("leander_r needs 1 < r < m with gcd(r, m) = 1")
            if ta == 0:
                raise ValueError("leander_r needs a + a^q != 0")
        return ResolvedSpec(self.family, self.m, a, alpha2, r)

    def to_json(self) -> str:
        d = {"family": self.family, "m": self.m}
        if self.a_index is not None:
            d["a_index"] = self.a_index
        if self.alpha2_index is not None:
            d["alpha2_index"] = self.alpha2_index
        if self.r is not None:
            d["r"] = self.r
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "NihoSpec":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("a spec must be a JSON object")
        if not isinstance(d.get("family"), str):
            raise ValueError("a spec needs a string 'family'")
        if not _is_int(d.get("m")):
            raise ValueError("a spec needs an integer 'm'")
        for key in ("a_index", "alpha2_index", "r"):
            if d.get(key) is not None and not _is_int(d[key]):
                raise ValueError(f"spec field {key!r} must be an integer")
        return NihoSpec(d["family"], d["m"], d.get("a_index"),
                        d.get("alpha2_index"), d.get("r"))


@dataclass(frozen=True)
class ResolvedSpec:
    family: str
    m: int
    a: int
    alpha2: int
    r: int | None


@functools.lru_cache(maxsize=None)
def smallest_half_trace(params: FieldParams) -> int:
    """Smallest K-index a with a + a^q = 1 (deterministic normalization),
    from T over all of K at once; computed once per field."""
    half = params.trace_rel_arr(np.arange(params.K.size, dtype=np.int32)) == 1
    if not half.any():
        raise AssertionError("T is surjective onto F")
    return int(np.argmax(half))


def exponents(spec: NihoSpec, params: FieldParams) -> list[tuple[int, int]]:
    """(coefficient K-index, exponent) pairs of the defining trace polynomial."""
    rs = spec.resolve(params)
    q, n1 = params.q, params.K.order
    d1 = ((q - 1) * ((q + 2) // 2) + 1) % n1
    if rs.family == "quadratic":
        return [(rs.a, d1)]
    if rs.family == "binomial_3":
        return [(rs.a, d1), (rs.alpha2, ((q - 1) * 3 + 1) % n1)]
    if rs.family == "binomial_1_6":
        s = pow(6, -1, q + 1)
        return [(rs.a, d1), (rs.alpha2, ((q - 1) * s + 1) % n1)]
    # leander: Tr(a^2 x^(q+1) + (a+a^q) sum_i x^(d_i)), 2^r d_i = (q-1)i + 2^r
    terms = [(params.K.sqr(rs.a), q + 1)]
    ta = int(params.embed[params.trace_rel(rs.a)])
    inv2r = pow(1 << rs.r, -1, n1)
    for i in range(1, (1 << (rs.r - 1))):
        terms.append((ta, ((q - 1) * i + (1 << rs.r)) * inv2r % n1))
    return terms


def g_of_spec(spec: NihoSpec, params: FieldParams) -> UnitCircleMap:
    """The circle map with f(lam u) = tr(lam g(u)) for the family member."""
    rs = spec.resolve(params)
    q1 = params.q + 1
    ta = params.trace_rel(rs.a)

    def t_of_power(e: int, coef_k: int = 1) -> np.ndarray:
        """F-indices of T(coef * u^e) over the circle, in circle order."""
        return params.trace_rel_arr(params.K.mul_arr(params.circle_pow(e), coef_k))

    vals = np.full(q1, ta, dtype=np.int32)
    if rs.family in ("binomial_3", "binomial_1_6"):
        e2 = -5 if rs.family == "binomial_3" else 2 * pow(3, -1, q1)
        vals ^= t_of_power(e2, rs.alpha2)
    elif rs.family == "leander_r":
        # closed form ((u + u^q) + (u^w (u + u^q))^... ) with w = 2^(1-r):
        # g(u) = (T(u) + T(u^(w-1))) / T(u^w) for u != 1, g(1) = 1,
        # all exponents mod q+1; scaled by a + a^q (1 when normalized);
        # T(u^w) vanishes only at u = 1
        w = pow(1 << (rs.r - 1), -1, q1)
        num = t_of_power(1) ^ t_of_power(w - 1)
        vals[1:] = params.F.mul_arr(params.F.div_arr(num[1:], t_of_power(w)[1:]), ta)
    return UnitCircleMap(params.m, vals)


def bent_from_g(g: UnitCircleMap, params: FieldParams) -> boolfn.BooleanFunction:
    """Truth table of f(lam u) = tr(lam g(u)), f(0) = 0 (bentness not assumed).

    One gather over K: f(x) = tr_exp[log lam + log g(u)] with lam and u
    the polar parts of x.  tr_exp lists tr(gamma_F^e) twice, so the sum
    needs no reduction, and a zero g(u) indexes the zeros past them."""
    F = params.F
    tr_exp = np.zeros(3 * F.order, dtype=np.uint8)
    tr_exp[:2 * F.order] = np.tile(F.trace_table()[F.exp], 2)
    log_g = np.where(g.values != 0, F.log[g.values], 2 * F.order).astype(np.int16)
    out = tr_exp[params.polar_log_table() + log_g[params.unit_class_table()]]
    out[0] = 0
    return boolfn.BooleanFunction(params.n, out)


def lines_of_g(g: UnitCircleMap, params: FieldParams) -> list[geometry.AffineLineK]:
    return [geometry.AffineLineK(int(u), int(gv))
            for u, gv in zip(params.S, g.values)]


def line_oval_from_g(g: UnitCircleMap, params: FieldParams) -> geometry.LineOval:
    """The line oval {L(u, g(u))} with its covered set E(O) as a table.

    The one bentness guard for circle maps: by the line-oval law g is
    bent iff these lines cover every point 0 or 2 times, and a ValueError
    with a witness point is raised otherwise."""
    lines = lines_of_g(g, params)
    ok, witness, counts = geometry.verify_line_oval(lines, params)
    if not ok:
        raise ValueError(f"g is not bent: point {witness} lies on "
                         f"{int(counts[witness])} of the lines")
    e_table = (counts > 0).view(np.uint8)
    e_table.flags.writeable = False
    oval = geometry.LineOval(tuple(lines), e_table)
    assert oval.e_size() == params.q * (params.q + 1) // 2
    return oval


def dual_walsh(f: boolfn.BooleanFunction, params: FieldParams) -> boolfn.BooleanFunction:
    """Dual of the truth table f through its Walsh-transform signs (the
    defining route)."""
    return boolfn.dual(f, params.tr_mask_table())


def dual_product_formula(oval: geometry.LineOval,
                         params: FieldParams) -> boolfn.BooleanFunction:
    """Dual as prod_u (T(x u) + g(u))^(q-1) over the lines L(u, g(u)) of
    the line oval, the power taken as the zero indicator: the value at x
    is 0 iff some factor vanishes.  `line_oval_from_g` returns an oval
    only for a bent g, so the oval is this route's bentness guard; the
    formula reads its pairs (u, g(u)) and never the covered set."""
    us = np.array([ln.u for ln in oval.lines], dtype=np.int32)
    ge = params.embed[np.array([ln.mu for ln in oval.lines], dtype=np.int32)]
    out = np.zeros(params.K.size, dtype=np.uint8)
    kernels.univariate_product_dual(us, ge, params.conj_table(),
                                    params.K.log, params.K.exp,
                                    params.K.order, out)
    return boolfn.BooleanFunction(params.n, out)


def dual_budaghyan(spec: NihoSpec, params: FieldParams,
                   e_index: int | None = None) -> boolfn.BooleanFunction:
    """Closed dual form of the Leander family (normalized a + a^q = 1):

        Tr((e(1 + x + x^q) + e^(2^(n-r)) + x^q)(1 + x + x^q)^(1/(2^r - 1)))

    for any e with e + e^q = 1.  The base 1 + x + x^q lies in F; for even
    r the (2^r - 1)-th power map on K* is 3-to-1 and the root intended by
    the formula is either of the two roots OUTSIDE F (they give the same
    function; the root inside F makes the expression constant on the
    cosets x + F and cannot equal the dual).  For odd r the power map is
    a bijection whose unique root lies in F, so the expression as written
    does not determine the dual; the formula is therefore restricted to
    even r here.  Base 0 maps to 0.
    """
    rs = spec.resolve(params)
    if rs.family != "leander_r":
        raise ValueError("the closed dual form is for the leander_r family")
    if params.trace_rel(rs.a) != 1:
        raise ValueError("closed dual form needs the normalization a + a^q = 1")
    if rs.r % 2 != 0:
        raise ValueError("the closed dual form resolves the fractional power "
                         "only for even r; use the walsh or product route")
    e = smallest_half_trace(params) if e_index is None else e_index
    assert params.trace_rel(e) == 1

    K, F = params.K, params.F
    conj = params.conj_table()
    xs = np.arange(K.size, dtype=np.int32)
    t = 1 ^ xs ^ conj          # 1 + x + x^q, always in the embedded subfield
    root_f = F.pow_table(pow((1 << rs.r) - 1, -1, F.order))[
        1 ^ params.trace_rel_arr(xs)]
    # even r (hence m odd): multiply into the coset outside F by a
    # primitive cube root of unity, which sits on the unit circle
    omega = int(params.S[(params.q + 1) // 3])
    assert K.pow(omega, 3) == 1 and omega != 1
    root = K.mul_arr(params.embed[root_f], omega)
    arg = K.mul_arr(t, e) ^ K.pow(e, 1 << (params.n - rs.r)) ^ conj
    table = K.trace_table()[K.mul_arr(arg, root)]
    return boolfn.BooleanFunction(params.n, table)


def shift_by_linear(g: UnitCircleMap, c: int, params: FieldParams) -> UnitCircleMap:
    """g_c(u) = g(u) + T(c u); the bent function gains the term Tr(c x)
    and the line oval translates by c."""
    return UnitCircleMap(params.m,
                         g.values ^ params.trace_rel_arr(params.K.mul_arr(params.S, c)))


def save_g_table(g: UnitCircleMap, path) -> None:
    """(q+1)-row table `u_index, g_index` in circle order."""
    with open(path, "w") as fh:
        fh.write("u_index,g_index\n")
        for j, v in enumerate(g.values):
            fh.write(f"{j},{int(v)}\n")


def load_g_table(path, params: FieldParams) -> UnitCircleMap:
    vals = np.zeros(params.q + 1, dtype=np.int32)
    seen = np.zeros(params.q + 1, dtype=bool)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "u_index,g_index":
            raise ValueError("bad g-table header")
        for line in fh:
            j_s, v_s = line.strip().split(",")
            j, v = int(j_s), int(v_s)
            if not (0 <= j <= params.q and 0 <= v < params.q):
                raise ValueError(f"g-table row {j},{v} out of range: u_index "
                                 f"in [0, {params.q}], g_index in [0, {params.q})")
            if seen[j]:
                raise ValueError(f"u_index {j} appears twice")
            vals[j] = v
            seen[j] = True
    if not seen.all():
        raise ValueError("g-table must cover the whole circle")
    return UnitCircleMap(params.m, vals)
