"""Bent functions linear on the rays of the Desarguesian spread of K.

Every such function is f(lam u) = tr(lam g(u)) for a map g from the unit
circle S into F.  This module builds the known families' g maps, the
truth tables, the associated line ovals, and the dual function along
three independent routes: Walsh signs, the circle product formula, and
(for the Leander family) the closed trace form.

Powers of circle elements reduce to index arithmetic: S is listed as
gamma^(j(q-1)), so u^e is the entry at index j*e mod q+1, and fractional
exponents are inverses mod q+1.
"""

from __future__ import annotations

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
        return NihoSpec(d["family"], d["m"], d.get("a_index"),
                        d.get("alpha2_index"), d.get("r"))


@dataclass(frozen=True)
class ResolvedSpec:
    family: str
    m: int
    a: int
    alpha2: int
    r: int | None


def smallest_half_trace(params: FieldParams) -> int:
    """Smallest K-index a with a + a^q = 1 (deterministic normalization)."""
    for a in range(params.K.size):
        if params.trace_rel(a) == 1:
            return a
    raise AssertionError("T is surjective onto F")


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

    def t_of_power(j: int, e: int, coef_k: int = 1) -> int:
        """F-index of T(coef * u^e) at the circle point of index j."""
        y = params.K.mul(coef_k, int(params.S[(j * e) % q1]))
        return params.project[y ^ params.conjugate(y)]

    vals = np.zeros(q1, dtype=np.int64)
    if rs.family == "quadratic":
        vals[:] = ta
    elif rs.family in ("binomial_3", "binomial_1_6"):
        e2 = (-5) % q1 if rs.family == "binomial_3" else (2 * pow(3, -1, q1)) % q1
        for j in range(q1):
            vals[j] = ta ^ t_of_power(j, e2, rs.alpha2)
    else:
        # closed form ((u + u^q) + (u^w (u + u^q))^... ) with w = 2^(1-r):
        # g(u) = (T(u) + T(u^(w-1))) / T(u^w) for u != 1, g(1) = 1,
        # all exponents mod q+1; scaled by a + a^q (1 when normalized)
        w = pow(1 << (rs.r - 1), -1, q1)
        vals[0] = ta
        for j in range(1, q1):
            num = t_of_power(j, 1) ^ t_of_power(j, (w - 1) % q1)
            den = t_of_power(j, w)
            vals[j] = params.F.mul(ta, params.F.div(num, den))
    return UnitCircleMap(params.m, vals)


def bent_from_g(g: UnitCircleMap, params: FieldParams) -> boolfn.BooleanFunction:
    """Truth table of f(lam u) = tr(lam g(u)), f(0) = 0 (bentness not assumed)."""
    out = np.zeros(params.K.size, dtype=np.uint8)
    kernels.niho_table_fill(params.S, g.values, params.embed,
                            params.K.log, params.K.exp, params.K.order,
                            params.F.log, params.F.exp, params.F.order,
                            params.F.trace_table(), out)
    return boolfn.BooleanFunction(params.n, out)


def lines_of_g(g: UnitCircleMap, params: FieldParams) -> list[geometry.AffineLineK]:
    return [geometry.AffineLineK(int(u), int(gv))
            for u, gv in zip(params.S, g.values)]


def line_oval_from_g(g: UnitCircleMap, params: FieldParams) -> geometry.LineOval:
    """The line oval {L(u, g(u))}; errors with a witness when g is not bent."""
    lines = lines_of_g(g, params)
    ok, witness, counts = geometry.verify_line_oval(lines, params)
    if not ok:
        raise ValueError(f"g is not bent: point {witness} lies on "
                         f"{int(counts[witness])} of the lines")
    e_set = frozenset(np.nonzero(counts)[0].tolist())
    assert len(e_set) == params.q * (params.q + 1) // 2
    point_sets = tuple(geometry.line_points(ln, params) for ln in lines)
    assert all(len(ps) == params.q for ps in point_sets)
    return geometry.LineOval(tuple(lines), e_set, point_sets)


def dual_walsh(g: UnitCircleMap, params: FieldParams) -> boolfn.BooleanFunction:
    """Dual through the Walsh-transform signs (the defining route)."""
    return boolfn.dual(bent_from_g(g, params), params.tr_mask_table())


def dual_product_formula(g: UnitCircleMap, params: FieldParams) -> boolfn.BooleanFunction:
    """Dual as prod_u (T(x u) + g(u))^(q-1), the power taken as the
    zero indicator: the value at x is 0 iff some factor vanishes."""
    lines = lines_of_g(g, params)
    ok, witness, counts = geometry.verify_line_oval(lines, params)
    if not ok:
        raise ValueError(f"g is not bent: point {witness} lies on "
                         f"{int(counts[witness])} of the lines")
    ge = params.embed[g.values]
    out = np.zeros(params.K.size, dtype=np.uint8)
    kernels.univariate_product_dual(params.S, ge, params.conj_table(),
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
    proj = params.project_table()
    xs = np.arange(K.size, dtype=np.int64)
    t = 1 ^ xs ^ conj          # 1 + x + x^q, always in the embedded subfield
    root_f = F.pow_table(pow((1 << rs.r) - 1, -1, F.order))[proj[t]]
    # even r (hence m odd): multiply into the coset outside F by a
    # primitive cube root of unity, which sits on the unit circle
    omega = int(params.S[(params.q + 1) // 3])
    assert K.pow(omega, 3) == 1 and omega != 1
    root = K.mul_vec(params.embed[root_f], omega)
    arg = K.mul_vec(t, e) ^ K.pow(e, 1 << (params.n - rs.r)) ^ conj[xs]
    table = K.trace_table()[K.mul_arr(arg, root)]
    return boolfn.BooleanFunction(params.n, table)


def shift_by_linear(g: UnitCircleMap, c: int, params: FieldParams) -> UnitCircleMap:
    """g_c(u) = g(u) + T(c u); the bent function gains the term Tr(c x)
    and the line oval translates by c."""
    shift = np.array([params.trace_rel(params.K.mul(c, int(u)))
                      for u in params.S], dtype=np.int64)
    return UnitCircleMap(params.m, g.values ^ shift)


def save_g_table(g: UnitCircleMap, path) -> None:
    """(q+1)-row table `u_index, g_index` in circle order."""
    with open(path, "w") as fh:
        fh.write("u_index,g_index\n")
        for j, v in enumerate(g.values):
            fh.write(f"{j},{int(v)}\n")


def load_g_table(path, params: FieldParams) -> UnitCircleMap:
    vals = np.zeros(params.q + 1, dtype=np.int64)
    seen = np.zeros(params.q + 1, dtype=bool)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "u_index,g_index":
            raise ValueError("bad g-table header")
        for line in fh:
            j_s, v_s = line.strip().split(",")
            vals[int(j_s)] = int(v_s)
            seen[int(j_s)] = True
    if not seen.all():
        raise ValueError("g-table must cover the whole circle")
    return UnitCircleMap(params.m, vals)
