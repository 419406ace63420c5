"""Ovals, line ovals and hyperovals in the plane coordinatized by K.

Points of AG(2,q) are elements of K = GF(2^2m); lines are the sets
L(u, mu) = {x : T(u x) + mu = 0} with u on the unit circle and mu in F.
The projective closure adds one point at infinity per parallel class,
tagged by the circle index of u.

Line incidence goes through `line_point_rows`.  T is F-linear with
kernel F, so T(y) = mu holds exactly on the coset mu w + F for any w
with T(w) = 1, and L(u, mu) = u^q (mu w + F).  The logs of the cosets
are one table per field (`FieldParams.coset_log_table`), so the q
points of each line are log u^q plus a table row, all lines read
through one clipped gather.

`verify_oval` is the brute-force collinearity oracle of the package:
everything faster has to agree with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import boolfn, kernels
from .gf import M_RANGE, FieldParams


class AffineLineK(NamedTuple):
    u: int   # unit-circle element of K, the normal direction of the line
    mu: int  # F-index; the line is {x : T(u x) = mu}


class NotALineOval(ValueError):
    """The verdict that a set of lines is no line oval, in either setting:
    `point` (an element of K, or (x, y) on V x V) lies on `count` of the
    lines, neither 0 nor 2."""

    def __init__(self, message: str, point=None, count: int | None = None):
        super().__init__(message)
        self.point, self.count = point, count


@dataclass(frozen=True)
class LineOval:
    """q+1 mutually non-parallel lines covering each point 0 or 2 times."""
    lines: tuple[AffineLineK, ...]
    e_table: np.ndarray  # uint8 over K: 1 on the covered set E(O); owned

    def __post_init__(self):
        self.e_table.flags.writeable = False

    def e_size(self) -> int:
        return int(self.e_table.sum())


@dataclass(frozen=True)
class Oval:
    """q+1 (oval) or q+2 (hyperoval) points, no three collinear."""
    points: frozenset[int]
    infinite: frozenset[int]  # circle indices of points at infinity
    nucleus: int | None = None


# ---------------------------------------------------------------------------
# incidence machinery
# ---------------------------------------------------------------------------

def line_point_rows(lines: Iterable[AffineLineK], params: FieldParams) -> np.ndarray:
    """(L, q) array whose row j holds the q points of the j-th line.

    L(u, mu) = u^q (mu w + F) with T(w) = 1, and row mu of
    `FieldParams.coset_log_table` holds the logs of mu w + F.  So row j
    is log u^q plus the table row of its mu, read through one clipped
    gather of the doubled antilog table (the product rule of `gf`): the
    point 0 of a line through 0 has the sentinel log and lands on the
    zero tail.
    """
    K = params.K
    us, mus = np.array(list(lines), dtype=np.int32).reshape(-1, 2).T
    log_uq = K.log[params.conj_table()[us]]
    return np.take(K.exp2, np.add(log_uq[:, None], params.coset_log_table()[mus],
                                  dtype=np.intp), mode="clip")


def line_points(line: AffineLineK, params: FieldParams) -> frozenset[int]:
    """The q points of L(u, mu), materialized."""
    return frozenset(line_point_rows([line], params)[0].tolist())


def line_cover_counts(lines: Iterable[AffineLineK], params: FieldParams) -> np.ndarray:
    """For every point of K, how many of the given lines pass through it."""
    return kernels.line_cover_counts(line_point_rows(lines, params), params.n)


def verify_no_three_concurrent(lines: Iterable[AffineLineK], params: FieldParams):
    """Projective line-oval check: no three lines share a point, where
    three mutually parallel lines share their point at infinity."""
    lines = list(lines)
    _check_members(params, "lines", lines)
    counts = line_cover_counts(lines, params)
    bad = np.nonzero(counts >= 3)[0]
    if bad.size:
        return False, ("affine", int(bad[0]))
    per_u: dict[int, int] = {}
    for ln in lines:
        per_u[ln.u] = per_u.get(ln.u, 0) + 1
        if per_u[ln.u] >= 3:
            return False, ("infinite", int(params.unit_class_table()[ln.u]))
    return True, None


def direction_tag(d: int, params: FieldParams) -> int:
    """Circle index of the point at infinity of lines with direction d:
    the unit class of conj(d), since L(u, .) has direction class conj(u)."""
    if d == 0:
        raise ValueError("zero direction")
    return int(params.unit_class_table()[params.conjugate(d)])


# ---------------------------------------------------------------------------
# collinearity oracle
# ---------------------------------------------------------------------------

def verify_oval(points: Iterable[int], params: FieldParams,
                infinite: Iterable[int] = ()):
    """Exhaustive check that no three of the given projective points are
    collinear.  Points at infinity are circle-index tags.

    Returns (ok, witness) where the witness lists the offending triple,
    affine points as ints and infinite ones as ("inf", tag).  The witness
    is the lexicographically smallest failure in (affine, infinite) order.
    """
    pts = sorted(points)
    inf = sorted(infinite)
    _check_members(params, "points", pts, inf)

    arr = np.array(pts, dtype=np.int32)
    i, j, k = kernels.collinear_scan(arr, params.conj_table(),
                                     params.K.log, params.K.exp2, params.K.order)
    if i >= 0:
        return False, (pts[i], pts[j], pts[k])
    # two affine + one infinite: collinear iff the tag is the direction class
    # of the pair (`direction_tag`); first hit in (tag, a, b) order
    if inf:
        a, b = np.triu_indices(len(pts), 1)
        tags = params.unit_class_table()[params.conj_table()[arr[a] ^ arr[b]]]
        hit = np.flatnonzero(np.isin(tags, inf))
        if hit.size:
            k = hit[np.argmin(tags[hit])]
            return False, (pts[a[k]], pts[b[k]], ("inf", int(tags[k])))
    # three infinite points always share the line at infinity
    if len(inf) >= 3:
        return False, (("inf", inf[0]), ("inf", inf[1]), ("inf", inf[2]))
    return True, None


def verify_nucleus_zero(points: Iterable[int], params: FieldParams):
    """Every line through 0 meets the point set exactly once, i.e. the
    polar units of the points exhaust the circle."""
    pts = list(points)
    if any(p == 0 for p in pts):
        return False, 0
    units = params.unit_class_table()[np.array(pts, dtype=np.int32)]
    _, first = np.unique(units, return_index=True)
    if first.size < len(pts):     # the first repeat and the point it repeats
        k = np.setdiff1d(np.arange(len(pts)), first)[0]
        return False, (pts[int(np.argmax(units == units[k]))], pts[k])
    return len(pts) == params.q + 1, None


# ---------------------------------------------------------------------------
# point/line duality (an oval <-> the lines T(p x) = 1)
# ---------------------------------------------------------------------------

def dual_points_to_lines(points: Iterable[int], params: FieldParams) -> list[AffineLineK]:
    """Lines {x : T(p x) = 1}, one per point; points must be nonzero.

    With p = lam * u this is L(u, 1/lam).  The point set is an oval iff
    the image passes `verify_no_three_concurrent`.
    """
    pts = np.array(list(points), dtype=np.int32)
    if np.any(pts == 0):
        raise ValueError("duality requires nonzero points")
    lam, j = params.polar(pts)
    mus = params.F.pow_table(-1)[lam]
    return [AffineLineK(u, mu)
            for u, mu in zip(params.S[j].tolist(), mus.tolist())]


def dual_lines_to_points(lines: Iterable[AffineLineK], params: FieldParams) -> list[int]:
    """Inverse of `dual_points_to_lines`: L(u, mu) -> u / mu, mu != 0."""
    us, mus = np.array(list(lines), dtype=np.int32).reshape(-1, 2).T
    if np.any(mus == 0):
        raise ValueError("a line through 0 has no dual point")
    return params.K.mul_arr(us, params.embed[params.F.pow_table(-1)[mus]]).tolist()


def _check_count(n: int, params: FieldParams, what: str) -> None:
    """An oval or a line oval has q+1 or q+2 members."""
    if n not in (params.q + 1, params.q + 2):
        raise ValueError(f"expected q+1 or q+2 {what}, got {n}")


def _check_members(params: FieldParams, what: str, *groups: list) -> None:
    """The members of an oval or a line oval are distinct within each
    group (the lines; the affine points and the infinite tags), and
    there are q+1 or q+2 of them in all (`_check_count`)."""
    if any(len(set(g)) != len(g) for g in groups):
        raise ValueError(f"{what} must be distinct")
    _check_count(sum(map(len, groups)), params, what)


def dual_oval_to_lines(oval: Oval, params: FieldParams) -> list[AffineLineK]:
    """The dual lines of q+1 or q+2 points: L(u, 1/lam) for lam * u, and
    L(S[j], 0) for the point at infinity j; inverse of `dual_lines_to_oval`."""
    _check_count(len(oval.points) + len(oval.infinite), params, "points")
    return dual_points_to_lines(sorted(oval.points), params) + [
        AffineLineK(int(params.S[j]), 0) for j in sorted(oval.infinite)]


def dual_lines_to_oval(lines: Iterable[AffineLineK], params: FieldParams) -> Oval:
    """The dual points of q+1 or q+2 distinct lines: u / mu for L(u, mu)
    with mu != 0, and for a line L(u, 0) through 0 the point at infinity
    with the circle index of u.  Inverse of `dual_oval_to_lines`."""
    lines = list(lines)
    _check_members(params, "lines", lines)
    points = dual_lines_to_points([ln for ln in lines if ln.mu], params)
    infinite = [int(params.unit_class_table()[ln.u]) for ln in lines if not ln.mu]
    return Oval(frozenset(points), frozenset(infinite))


# ---------------------------------------------------------------------------
# ovals from circle maps, rho-polynomials, catalogs
# ---------------------------------------------------------------------------

def oval_from_g(g, params: FieldParams) -> Oval:
    """Points u/g(u) (projective closure of the dual of the line oval).

    The lines L(u, g(u)) come from `niho.line_oval_from_g`, which raises
    when g is not bent; their dual points are the oval, and the zeros of
    g, whose lines pass through 0, contribute points at infinity.
    """
    from .niho import line_oval_from_g  # local import to keep layering acyclic
    oval = dual_lines_to_oval(line_oval_from_g(g, params).lines, params)
    return Oval(oval.points, oval.infinite, nucleus=0)


def rho_from_g(g, params: FieldParams) -> np.ndarray:
    """rho(u) = 1/g(u); requires g nowhere zero on the circle."""
    if np.any(g.values == 0):
        raise ValueError("rho-polynomial requires g nonzero on the circle")
    return params.F.pow_table(-1)[g.values]


def g_from_rho(rho: np.ndarray, params: FieldParams):
    from .niho import UnitCircleMap
    if np.any(rho == 0):
        raise ValueError("rho-polynomials are nowhere zero")
    return UnitCircleMap(params.m, params.F.pow_table(-1)[rho])


def rho_subiaco(params: FieldParams) -> np.ndarray:
    """rho(x) = x^5 / (x^10 + x^6 + x^5 + x^4 + 1) on the unit circle."""
    cp = params.circle_pow
    den = cp(10) ^ cp(6) ^ cp(5) ^ cp(4) ^ 1
    return params.project_table()[params.K.div_arr(cp(5), den)]


def rho_adelaide(params: FieldParams) -> np.ndarray:
    """rho(x) = x (x^(1/3) + 1)^3 / (x + 1)^3 on the circle, rho(1) = 1.

    In characteristic 2, (a + 1)^3 = a^3 + a^2 + a + 1, so numerator and
    denominator are sums of circle powers."""
    if params.m % 2 != 0:
        raise ValueError("the Adelaide catalog needs m even")
    cp, q1 = params.circle_pow, params.q + 1
    inv3 = pow(3, -1, q1)
    num = cp(2) ^ cp(5 * inv3) ^ cp(4 * inv3) ^ cp(1)
    den = cp(3) ^ cp(2) ^ cp(1) ^ 1
    out = np.ones(q1, dtype=np.int32)
    out[1:] = params.project_table()[params.K.div_arr(num[1:], den[1:])]
    return out


def fisher_schmidt_points(params: FieldParams) -> set[int]:
    """The point set {u + u^3 + u^-3 : u in S} (hyperoval with 0 added)."""
    cp = params.circle_pow
    return set((cp(1) ^ cp(3) ^ cp(-3)).tolist())


CATALOG_NAMES = ("conic_like_S", "subiaco", "adelaide", "fisher_schmidt")


def catalog_oval(name: str, params: FieldParams) -> Oval:
    """Named hyperovals as point sets (all contain the point 0)."""
    if name == "conic_like_S":
        pts = set(params.S.tolist())
    elif name in ("subiaco", "adelaide"):
        rho = rho_subiaco(params) if name == "subiaco" else rho_adelaide(params)
        pts = set(params.K.mul_arr(params.S, params.embed[rho]).tolist())
    elif name == "fisher_schmidt":
        pts = fisher_schmidt_points(params)
    else:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"have {CATALOG_NAMES}")
    if len(pts) != params.q + 1 or 0 in pts:
        raise AssertionError(f"catalog {name} did not produce q+1 nonzero points")
    return Oval(frozenset(pts | {0}), frozenset(), nucleus=None)


# ---------------------------------------------------------------------------
# the oval -> bent function map
# ---------------------------------------------------------------------------

def bent_from_oval(oval: Oval, params: FieldParams) -> boolfn.BooleanFunction:
    """f(x) = tr(x / v) on each ray vF, for an oval with nucleus 0.

    Evaluates both the pointwise rule and the explicit polynomial form
    and asserts they agree table-exactly; returns the table.
    """
    if oval.infinite:
        raise ValueError("all points must be affine")
    if oval.nucleus != 0:
        raise ValueError("the construction needs the nucleus at 0")
    pts = sorted(oval.points)
    ok, _ = verify_oval(pts, params)
    if not ok:
        raise ValueError("point set is not an oval")
    ok, wit = verify_nucleus_zero(pts, params)
    if not ok:
        raise ValueError(f"0 is not the nucleus: witness {wit}")

    # pointwise: on the ray of v = lam S[j], tr(x / v) = tr(x g(S[j])), g = 1/lam;
    # the point units are a permutation of the circle (nucleus 0)
    from .niho import UnitCircleMap, bent_from_g  # local import, as in oval_from_g
    lam, j = params.polar(pts)
    g = UnitCircleMap(params.m, params.F.pow_table(-1)[lam[np.argsort(j)]])
    f = bent_from_g(g, params)

    # explicit polynomial form: sum over v of
    #   [(x^(q^2-q) - v^(q^2-q))^(q^2-1) + 1] * sum_j (x/v)^(2^j)
    K = params.K
    pw = K.pow_table(params.q * params.q - params.q)
    frob = np.arange(K.size, dtype=np.int32)
    acc = frob.copy()
    sq = K.pow_table(2)
    for _ in range(params.m - 1):
        frob = sq[frob]
        acc = acc ^ frob
    xs_all = np.arange(K.size, dtype=np.int32)
    poly = np.zeros(K.size, dtype=np.int32)
    for v in pts:
        ratios = K.mul_arr(xs_all, K.inv(v))
        poly ^= np.where(pw == pw[v], acc[ratios], 0)
    assert np.all(poly <= 1), "polynomial form must produce bits"
    assert np.array_equal(poly.astype(np.uint8), f.table), \
        "polynomial form must match the pointwise table"
    return f


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def oval_to_json(oval: Oval, params: FieldParams) -> str:
    return json.dumps({
        "kind": "oval",
        "m": params.m,
        "points": sorted(oval.points),
        "infinite": sorted(oval.infinite),
        "nucleus": oval.nucleus,
    }, sort_keys=True)


def _is_json(v, types) -> bool:
    """v is a JSON value of `types`; true and false are not integers."""
    return isinstance(v, types) and not isinstance(v, bool)


def _check_range(values: Iterable[int], hi: int, what: str) -> None:
    """Reject any value that is not an integer in [0, hi)."""
    for v in values:
        if not _is_json(v, int) or not 0 <= v < hi:
            raise ValueError(f"{what} {v} out of range [0, {hi})")


def _check_distinct(values: Iterable, what: str) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{what} {v} appears twice")
        seen.add(v)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    _check_distinct((key for key, _ in pairs), "key")
    return dict(pairs)


def loads_json(text: str):
    """The JSON reader of every input document: `json.loads`, except that
    an object repeating a key is a ValueError (a dict would silently keep
    the last value)."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _json_document(text: str, name: str, fields: dict,
                   kind: str | None = None) -> dict:
    """The JSON object in `text`, called `name` in the errors, of the given
    kind when `kind` is set and with no key outside `fields`.  Each field
    maps to None (any value) or to (types, message): its value, None when
    absent, must be of `types`, or ValueError(message) is raised with
    {key} and {value} filled in."""
    d = loads_json(text)
    if not isinstance(d, dict) or (kind and d.get("kind") != kind):
        raise ValueError(f"not a JSON object of kind {kind!r}" if kind
                         else f"{name} must be a JSON object")
    extra = sorted(set(d) - set(fields))
    if extra:
        raise ValueError(f"unknown keys in {name}: {extra}")
    for key, rule in fields.items():
        if rule is not None and not _is_json(d.get(key), rule[0]):
            raise ValueError(rule[1].format(key=key, value=d.get(key)))
    return d


# the typed fields of the oval and line-oval documents
_M_FIELD = (int, "m must be an integer, not {value!r}")
_LIST_FIELD = (list, "{key!r} must be a list")


def oval_from_json(text: str) -> tuple[int, Oval]:
    """(m, oval); points must be distinct K-indices and infinite tags
    distinct circle indices."""
    d = _json_document(text, "the oval document",
                       {"kind": None, "m": _M_FIELD, "points": _LIST_FIELD,
                        "infinite": _LIST_FIELD, "nucleus": None}, "oval")
    m = d["m"]
    if m not in M_RANGE:
        raise ValueError(f"m {m} out of the supported range")
    nucleus = d.get("nucleus")
    _check_range(d["points"], 1 << (2 * m), "point")
    _check_range(d["infinite"], (1 << m) + 1, "infinite tag")
    _check_range([] if nucleus is None else [nucleus], 1 << (2 * m), "nucleus")
    _check_distinct(d["points"], "point")
    _check_distinct(d["infinite"], "infinite tag")
    return m, Oval(frozenset(d["points"]), frozenset(d["infinite"]), nucleus)


def line_oval_to_json(lines: Iterable[AffineLineK], params: FieldParams) -> str:
    return json.dumps({
        "kind": "line_oval",
        "m": params.m,
        "lines": sorted([int(params.unit_class_table()[ln.u]), ln.mu] for ln in lines),
    }, sort_keys=True)


def line_oval_from_json(text: str, params: FieldParams) -> list[AffineLineK]:
    """Distinct lines [circle index, mu] over the field of `params`."""
    d = _json_document(text, "the line_oval document",
                       {"kind": None, "m": _M_FIELD, "lines": _LIST_FIELD},
                       "line_oval")
    if d["m"] != params.m:
        raise ValueError("field size mismatch")
    lines = d["lines"]
    if not all(isinstance(ln, list) and len(ln) == 2 for ln in lines):
        raise ValueError("each line must be a pair [circle index, mu]")
    _check_range((j for j, _ in lines), params.q + 1, "line circle index")
    _check_range((mu for _, mu in lines), params.q, "line mu")
    _check_distinct((tuple(ln) for ln in lines), "line")
    return [AffineLineK(int(params.S[j]), mu) for j, mu in lines]
