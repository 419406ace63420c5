"""Bent functions linear on the rays of the Desarguesian spread of K.

Every such function is f(lam u) = tr(lam g(u)) for a map g from the unit
circle S into F.  This module builds the known families' g maps, the
truth tables, the associated line ovals, and the dual function along
three independent routes: Walsh signs, the circle product formula, and
(for the Leander family) the closed trace form.  The line oval comes
from the coset form of each line L(u, g(u)) (`geometry.line_point_rows`);
the product route is an outer sum of logs over the pairs (u, g(u))
instead, so the two stay independent computations of the same zero set.

The truth table is one gather over K through the polar log table
(`FieldParams.polar_log_table`).  A command builds it once and hands it
to the Walsh route, and builds the line oval once: the product route
takes that `LineOval`, which exists only for a bent g; on any other g
the build raises `geometry.NotALineOval`, the verdict with its witness.

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
    """g : S -> F, stored as F-indices aligned with the circle ordering.
    The map takes ownership of `values`: kept, not copied, and read-only."""
    m: int
    values: np.ndarray

    def __post_init__(self):
        assert self.values.shape == ((1 << self.m) + 1,)
        self.values.flags.writeable = False

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
        # a field the family never reads would still be echoed in reports
        if self.alpha2_index is not None and \
                self.family not in ("binomial_3", "binomial_1_6"):
            raise ValueError(f"alpha2_index is only read by binomial_3 and "
                             f"binomial_1_6, not {self.family}")
        if self.r is not None and self.family != "leander_r":
            raise ValueError(f"r is only read by leander_r, not {self.family}")
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
        return NihoSpec(**geometry._json_document(text, "a spec", _SPEC_FIELDS))


# the keys of a spec document with their JSON types; a_index, alpha2_index
# and r may be null or absent
_SPEC_FIELDS = {"family": (str, "a spec needs a string 'family'"),
                "m": (int, "a spec needs an integer 'm'"),
                **dict.fromkeys(("a_index", "alpha2_index", "r"), (
                    (int, type(None)), "spec field {key!r} must be an integer"))}


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

    One clipped gather over K: f(x) = tr(exp2[log lam + log g(u)]) with
    lam and u the polar parts of x, the product rule of `gf` read through
    the trace: a zero g(u) has the sentinel log and lands on the zero
    tail."""
    F = params.F
    tr_exp2 = F.trace_table()[F.exp2]
    log_g = F.log[g.values].astype(np.int16)
    out = np.take(tr_exp2, params.polar_log_table() + log_g[params.unit_class_table()],
                  mode="clip")
    out[0] = 0
    return boolfn.BooleanFunction(params.n, out)


def lines_of_g(g: UnitCircleMap, params: FieldParams) -> list[geometry.AffineLineK]:
    return [geometry.AffineLineK(int(u), int(gv))
            for u, gv in zip(params.S, g.values)]


def line_oval_from_g(g: UnitCircleMap, params: FieldParams) -> geometry.LineOval:
    """The line oval {L(u, g(u))} with its covered set E(O) as a table.

    The one bentness guard for circle maps: by the line-oval law g is
    bent iff these lines cover every point 0 or 2 times, and otherwise
    `geometry.NotALineOval` names the smallest point covered another
    number of times and that number: the line-oval verdict of `niho`."""
    lines = lines_of_g(g, params)
    counts = geometry.line_cover_counts(lines, params)
    x = int(np.argmax((counts != 0) & (counts != 2)))
    if (n := int(counts[x])) not in (0, 2):
        raise geometry.NotALineOval(f"g is not bent: point {x} lies on {n} "
                                    f"of the lines", x, n)
    oval = geometry.LineOval(tuple(lines), (counts > 0).view(np.uint8))
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
    is 0 iff some factor vanishes.  The zeros are one outer sum of logs
    (`kernels.univariate_product_dual`): log x = R[u] + C[w] mod ord_K
    for x = lam v, uv = S[w], with R[u] = log g(u) - log u per line and
    C[w] = (q-1) w - log T(S[w]) per circle index w != 0, plus x = 0 and
    the ray through 1/u for each zero of g.  `line_oval_from_g` returns
    an oval only for a bent g, so the oval is this route's bentness
    guard; the formula still reads only its pairs (u, g(u)), never the
    covered set or the line rows of `geometry.line_point_rows`."""
    us = np.array([ln.u for ln in oval.lines], dtype=np.int32)
    ge = params.embed[np.array([ln.mu for ln in oval.lines], dtype=np.int32)]
    out = np.zeros(params.K.size, dtype=np.uint8)
    kernels.univariate_product_dual(us, ge, params.conj_table(),
                                    params.K.log, params.K.exp2,
                                    params.K.order, out)
    return boolfn.BooleanFunction(params.n, out)


def closed_dual_obstacle(rs: ResolvedSpec, params: FieldParams) -> str | None:
    """Why `dual_budaghyan` does not apply to the resolved spec, or None
    when it does: a Leander member with a + a^q = 1 and even r."""
    if rs.family != "leander_r":
        return "the closed dual form is for the leander_r family"
    if params.trace_rel(rs.a) != 1:
        return "closed dual form needs the normalization a + a^q = 1"
    if rs.r % 2 != 0:
        return ("the closed dual form resolves the fractional power only "
                "for even r; use the walsh or product route")
    return None


def dual_budaghyan(spec: NihoSpec, params: FieldParams) -> boolfn.BooleanFunction:
    """Closed dual form of the Leander family (normalized a + a^q = 1):

        Tr((e(1 + x + x^q) + e^(2^(n-r)) + x^q)(1 + x + x^q)^(1/(2^r - 1)))

    for any e with e + e^q = 1, on which it does not depend (below).  The
    base 1 + x + x^q lies in F; for even r the (2^r - 1)-th power map on
    K* is 3-to-1 and the root intended by the formula is either of the
    two roots OUTSIDE F (they give the same function; the root inside F
    makes the expression constant on the cosets x + F and cannot equal
    the dual).  For odd r the power map is a bijection whose unique root
    lies in F, so the expression as written does not determine the dual;
    the formula is therefore restricted to even r here.  Base 0 maps to 0.

    Evaluated as a trace form: the base and its root rho depend only on
    s = T(x), and Tr(x^q rho) = Tr(x rho^q), so the dual is
    A[s] + parity(M[s] & x) with A[s] = Tr((e(1 + s) + e^(2^(n-r))) rho(s))
    and M[s] the dot mask of rho(s)^q, two q-entry tables.  A vanishes:
    (1 + s) rho = rho^(2^r), so Tr(e(1 + s) rho) = Tr(e^(2^(n-r)) rho)
    (apply the Frobenius n - r times), which is why the form does not
    depend on e; A is computed and asserted zero.  The pass over K is
    one gather of the linear map x -> s, one of the masks, and a
    popcount.
    """
    rs = spec.resolve(params)
    obstacle = closed_dual_obstacle(rs, params)
    if obstacle is not None:
        raise ValueError(obstacle)
    K, F = params.K, params.F
    e = smallest_half_trace(params)

    # per s in F: the base 1 + s, and its root outside F, the root in F
    # times a primitive cube root of unity (even r, hence m odd), which
    # sits on the unit circle
    base = 1 ^ np.arange(params.q, dtype=np.int32)
    root_f = F.pow_table(pow((1 << rs.r) - 1, -1, F.order))[base]
    omega = int(params.S[(params.q + 1) // 3])
    assert K.pow(omega, 3) == 1 and omega != 1
    root = K.mul_arr(params.embed[root_f], omega)
    arg = K.mul_arr(params.embed[base], e) ^ K.pow(e, 1 << (params.n - rs.r))
    assert not K.trace_table()[K.mul_arr(arg, root)].any(), \
        "the terms in e cancel: A[s] = 0"
    masks = K.dot_mask_table()[params.conj_table()[root]]
    # T is GF(2)-linear: s over all of K is the table of a linear map
    s = kernels.linear_map_table(params.trace_rel_arr(1 << np.arange(params.n)),
                                 params.n)
    table = np.bitwise_count(masks[s] & np.arange(K.size, dtype=np.int32)) & 1
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
