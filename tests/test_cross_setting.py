"""The Niho functions are the spread-linear functions of the field carrier.

A Niho function f(lam u) = tr(lam g(u)) on K = GF(2^2m) is linear on the
rays F v of K, the members of the Desarguesian spread of K over F.  The
map phi(x, y) = x w + y (`oracles.desarguesian_maps_naive`) sends the
members {(x, x z)} and {(0, y)} of the spread of `spread.field_pqf(m)` onto
the rays F (w + z) and F, so h = f o phi is linear on every member, and
its (G, mu) can be read off its basis rows.  Derived here and pinned
below (Carlet and Mesnager, "On Dillon's class H of bent functions, Niho
bent functions and o-polynomials", JCTA 2011):

- h is the truth table of SpreadBentSpec(field_pqf(m), G, mu), bit for
  bit, for every g, bent or not; mu = h(0, 1) = f(1) is g(1), and for
  w + z = lam u (polar form), G(z) = lam g(u).
- h~ = f~ o psi.  The bivariate dual is taken against
  tr(a x) + tr(b y), the univariate one against Tr_K(c v), and with
  T(w) = 1 the two agree for c = psi(a, b) = a + b + w b and v = phi(x, y).
- E_biv[x, y] = E_uni(psi(y, x + mu)) for the [x, y] covered set of the
  bivariate line oval.  That line oval is built for the mu-normalized
  h0 = h + tr(mu y), whose dual is h0~(a, b) = h~(a, b + mu); the chi-swap
  routes read h0~(a, b) = 1 + E_biv[b, a] and f~ = 1 + E_uni.  The
  families have g(1) = 1, so there the shift is x + 1.
"""

import functools

import numpy as np
import pytest

from ovalbent import boolfn, gf, niho, spread, spreadbent
from oracles import (desarguesian_maps_naive, family_members,
                     field_pair_naive, polar_naive, spread_linear_naive)

CASES = [pytest.param(m, spec, id=f"{spec.family}-m{m}")
         for m in range(2, 7) for spec in family_members(m)]


@functools.lru_cache(maxsize=None)
def _setting(m):
    """(params, field carrier, phi, psi, w, embed) at m."""
    p = gf.field_make(m)
    _, embed, _, _ = field_pair_naive(p)
    return (p, spread.field_pqf(m), *desarguesian_maps_naive(p, embed), embed)


def _spread_linear(g, m):
    """f, the spec read off h = f o phi, and its truth table, after
    checking that the table is h and that (G, mu) come from g."""
    p, Q, phi, _, w, embed = _setting(m)
    f = niho.bent_from_g(g, p)
    h = f.table[phi]
    G, mu = spread_linear_naive(h, p.F)
    spec = spreadbent.SpreadBentSpec(Q, G, mu)
    hb = spreadbent.bent_bivariate(spec)
    assert hb.table.tobytes() == h.tobytes()
    assert mu == g.values[0]
    circle = {int(u): j for j, u in enumerate(p.S)}
    for z in range(p.q):
        lam, u = polar_naive(w ^ int(embed[z]), p)
        assert G[z] == p.F.mul(lam, int(g.values[circle[u]])), z
    return f, spec, hb


def _shifts(p, seed):
    """0, the smallest c with T(c) = 1 (so g(1) + T(c) = 0 for the
    families) and one seeded c."""
    half = next(c for c in range(p.K.size) if c ^ p.K.pow(c, p.q) == 1)
    return 0, half, int(np.random.default_rng(seed).integers(1, p.K.size))


@pytest.mark.parametrize("m,spec", CASES)
def test_niho_function_is_spread_linear_with_matching_dual_and_cover(m, spec):
    p, Q, _, psi, _, _ = _setting(m)
    g0 = niho.g_of_spec(spec, p)
    mus = []
    for c in _shifts(p, m):
        g = niho.shift_by_linear(g0, c, p) if c else g0
        f, spec_b, hb = _spread_linear(g, m)
        mus.append(spec_b.mu)
        assert boolfn.is_bent(f) and spreadbent.bent_criterion(spec_b)[0]
        f_dual = niho.dual_walsh(f, p)
        assert np.array_equal(spreadbent.dual_walsh(hb, Q).table,
                              f_dual.table[psi])
        e_uni = niho.line_oval_from_g(g, p).e_table
        e_biv = spreadbent.line_oval_bivariate(spec_b).e_table
        xs = np.arange(p.q)
        want = e_uni[psi[xs[None, :] + p.q * (xs[:, None] ^ spec_b.mu)]]
        assert np.array_equal(e_biv, want)
    assert mus[0] == 1 and mus[1] == 0


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_non_bent_circle_map_gives_a_g_that_fails_the_criterion(m):
    p = _setting(m)[0]
    g = niho.UnitCircleMap(m, np.random.default_rng(m).integers(
        0, p.q, size=p.q + 1).astype(np.int32))
    with pytest.raises(ValueError, match="not bent"):
        niho.line_oval_from_g(g, p)
    f, spec, _ = _spread_linear(g, m)
    assert not boolfn.is_bent(f)
    ok, witness = spreadbent.bent_criterion(spec)
    assert not ok and witness is not None
