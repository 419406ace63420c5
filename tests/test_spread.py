import tracemalloc

import numpy as np
import pytest

from ovalbent import spread
from ovalbent.gf import BinaryField
from oracles import (adjoint_naive, apply, carrier_form, diagonal_sqrt,
                     dumps_pqf_naive, f_matrix_rep, field_mul, kantor_mul,
                     left_adjoint_naive, luneburg_mul, pack, perpendicular_naive,
                     pqf_mul, rank, right_mult_rows, scalar_table,
                     spread_cover_naive, sqrt_diag_naive, symmetric_rep_naive,
                     unpack, validate_naive)


@pytest.fixture(scope="module")
def field8():
    return spread.field_pqf(3)


@pytest.fixture(scope="module")
def xy2():
    # the empty-cancel Kantor chain at q=8: x o y = x y^2
    return spread.kantor_chain(3, [1], [1], [0])


def test_field_flags(field8):
    rep = spread.validate_prequasifield(field8)
    assert rep.axioms_ok and rep.is_quasifield and rep.is_presemifield
    assert rep.is_commutative and rep.is_symplectic and rep.exhaustive


# Test rules in the block form of `Prequasifield.from_evaluator` (x is a
# column broadcast against every z), each with its scalar twin: m, shape,
# block rule, scalar rule.  `test_array_rules_match_scalar_twins` checks
# that the two give one table.
F3 = BinaryField(3)
NONLINEAR_PERM = [0, 3, 5, 1, 6, 2, 7, 4]  # nonlinear permutation fixing 0
RULES = {
    # a quasigroup on V* that is not right-distributive
    "perm(x) z": (3, "flat",
                  lambda xs, zs: F3.mul_arr(zs, np.array(NONLINEAR_PERM)[xs]),
                  lambda x, z: F3.mul(z, NONLINEAR_PERM[x])),
    "x^2 z": (3, "flat",
              lambda xs, zs: F3.mul_arr(zs, F3.mul_arr(xs, xs)),
              lambda x, z: F3.mul(z, F3.sqr(x))),
    # M_z = [[z1, z2], [0, z1]] on F x F: F-linear, not symmetric
    "upper triangular": (3, "pair",
                         lambda xs, zs: _upper_triangular(F3.mul_arr, xs, zs),
                         lambda x, z: _upper_triangular(F3.mul, x, z)),
}


def _upper_triangular(mul, x, z):
    x1, x2, z1, z2 = x & 7, x >> 3, z & 7, z >> 3
    return mul(z1, x1) | (mul(z2, x1) ^ mul(z1, x2)) << 3


def _rule_pqf(rule):
    m, shape, block, _ = RULES[rule]
    return spread.Prequasifield.from_evaluator(m, shape, block, kind="table",
                                               name=rule)


@pytest.mark.parametrize("name", sorted(RULES))
def test_array_rules_match_scalar_twins(name):
    m, shape, _, scalar = RULES[name]
    Q = _rule_pqf(name)
    assert np.array_equal(Q.table, scalar_table(scalar, Q.size))


def test_from_evaluator_blocks_cover_every_row(monkeypatch):
    """Blocks of one row, of several rows and a ragged last block all
    give the table of the scalar rule."""
    _, _, _, scalar = RULES["upper triangular"]
    want = scalar_table(scalar, 64)
    for entries in (1, 64 * 5, 1 << 16):
        monkeypatch.setattr(spread.kernels, "BLOCK_ENTRIES", entries)
        assert np.array_equal(_rule_pqf("upper triangular").table, want)


def test_broken_multiplication_reported():
    Q = _rule_pqf("perm(x) z")
    rep = spread.validate_prequasifield(Q)
    assert not rep.axioms_ok
    assert "right_distributive" in rep.failures
    x, y, z = rep.failures["right_distributive"]
    assert pqf_mul(Q, x ^ y, z) != pqf_mul(Q, x, z) ^ pqf_mul(Q, y, z)


def test_kantor_empty_cancellation_is_xy2(xy2):
    F = BinaryField(3)
    want = np.array([[F.mul(x, F.sqr(y)) for y in range(8)] for x in range(8)])
    assert np.array_equal(xy2.table, want)
    rep = spread.validate_prequasifield(xy2)
    assert rep.axioms_ok and rep.is_symplectic and not rep.is_commutative


def test_kantor_chain_q8_nonzero_zeta():
    for zeta in range(8):
        Q = spread.kantor_chain(3, [1], [1], [zeta])
        rep = spread.validate_prequasifield(Q)
        assert rep.axioms_ok and rep.is_symplectic, zeta
        ok, _ = spread.verify_spread(Q)
        assert ok


def test_kantor_chain_q32_random_admissible():
    rng = np.random.default_rng(23)
    for _ in range(3):
        zeta = int(rng.integers(32))
        Q = spread.kantor_chain(5, [1], [1], [zeta])
        rep = spread.validate_prequasifield(Q)
        assert rep.axioms_ok and rep.is_symplectic and rep.exhaustive


def test_kantor_chain_q64_nontrivial_lambda():
    F = BinaryField(6)
    f4 = [x for x in range(64) if F.pow(x, 4) == x]
    lam = [x for x in f4 if x not in (0, 1)][0]
    Q = spread.kantor_chain(6, [2], [lam], [7])
    rep = spread.validate_prequasifield(Q)
    assert rep.axioms_ok and rep.is_symplectic and not rep.is_presemifield


def test_kantor_chain_validation():
    with pytest.raises(ValueError):
        spread.kantor_chain(4, [1], [1], [0])      # [F:F_n] = 4 even
    with pytest.raises(ValueError):
        spread.kantor_chain(6, [4], [1], [0])      # 4 does not divide 6
    with pytest.raises(ValueError):
        spread.kantor_chain(3, [1], [3], [0])      # 3 not in GF(2)*
    with pytest.raises(ValueError):
        spread.kantor_chain(3, [1], [1], [])       # arity mismatch


def test_adjoint_field_cases(field8):
    F = field8.field
    # multiplication by c is self-adjoint: one map per c, column c
    mults = [[F.mul(c, 1 << i) for c in range(8)] for i in range(3)]
    assert np.array_equal(spread.adjoint(mults, field8), field8.table)
    # the Frobenius adjoint is x -> x^(2^(m-1)); the identity is self-adjoint
    adj = spread.adjoint([[F.sqr(1 << i), 1 << i] for i in range(3)], field8)
    assert adj[:, 0].tolist() == [F.pow(x, 1 << 2) for x in range(8)]
    assert adj[:, 1].tolist() == list(range(8))


def test_adjoint_matches_bruteforce():
    # per carrier, one call for every right multiplication and four random
    # maps; luneburg:3 is a pair carrier, x^2 z is not symplectic
    rng = np.random.default_rng(4)
    for name in ("field:3", "luneburg:3", "x^2 z"):
        Q = CARRIERS[name]()
        images = np.concatenate([Q.table[[1 << i for i in range(Q.dim)]],
                                 rng.integers(0, Q.size, size=(Q.dim, 4))],
                                axis=1)
        assert np.array_equal(spread.adjoint(images, Q),
                              adjoint_naive(images.T.tolist(), Q)), name


def test_adjoint_bilinear_identity(field8):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 8, size=(3, 2))
    adj = spread.adjoint(images, field8)
    bform = carrier_form(field8)
    for c in range(2):
        rows = [int(v) for v in images[:, c]]
        for x in range(8):
            for y in range(8):
                assert bform(int(adj[x, c]), y) == bform(x, apply(rows, y))


@pytest.mark.parametrize("name", ["field:3", "luneburg:3"])
def test_b_mask_table_is_the_form_and_invertible(name):
    Q = CARRIERS[name]()
    bm, bform = Q.b_mask_table(), carrier_form(Q)
    assert np.array_equal(bm[Q.b_mask_inverse()], np.arange(Q.size))
    for x in range(Q.size):
        assert [(int(bm[x]) & y).bit_count() & 1 for y in range(Q.size)] == \
            [bform(x, y) for y in range(Q.size)]


def test_field_is_self_transpose(field8):
    assert np.array_equal(spread.transpose_pqf(field8).table, field8.table)


def test_transpose_involution_and_perpendicularity(xy2):
    Qz = spread.kantor_chain(3, [1], [1], [5])
    for Q in (xy2, Qz):
        Qt = spread.transpose_pqf(Q)
        assert np.array_equal(spread.transpose_pqf(Qt).table, Q.table)
        assert spread.spreads_perpendicular(Q, Qt)


def test_symplectic_iff_self_transpose():
    Ql = spread.luneburg(3)
    Qs = _rule_pqf("x^2 z")
    for Q, want in [(spread.field_pqf(3), True), (Ql, True), (Qs, False)]:
        self_t = bool(np.array_equal(spread.transpose_pqf(Q).table, Q.table))
        assert spread.is_symplectic(Q) == self_t == want
        assert symmetric_rep_naive(Q, spread.orthonormal_basis(Q)) == want


@pytest.mark.parametrize("name", ["field:3", "field:4", "luneburg:3", "kantor:3",
                                  "kantor:5", "x^2 z"])
def test_is_symplectic_matches_scalar_matrices(name):
    Q = {"field:3": lambda: spread.field_pqf(3),
         "field:4": lambda: spread.field_pqf(4),
         "luneburg:3": lambda: spread.luneburg(3),
         "kantor:3": lambda: spread.kantor_chain(3, [1], [1], [5]),
         "kantor:5": lambda: spread.kantor_chain(5, [1], [1], [11]),
         "x^2 z": lambda: _rule_pqf("x^2 z")}[name]()
    want = symmetric_rep_naive(Q, spread.orthonormal_basis(Q))
    assert spread.is_symplectic(Q) == want
    assert want == (name != "x^2 z")


def test_dual_of_commutative_is_itself(field8):
    assert np.array_equal(spread.dual_pqf(field8).table, field8.table)


def test_knuth_orbit_field_collapses(field8):
    items, dtd_eq = spread.knuth_orbit(field8)
    assert len(items) == 1 and dtd_eq


def test_knuth_orbit_xy2(xy2):
    F = BinaryField(3)
    items, dtd_eq = spread.knuth_orbit(xy2)
    assert dtd_eq
    assert 1 < len(items) <= 6
    tables = [pq.table for _, pq in items]

    def in_orbit(t):
        return any(np.array_equal(t, u) for u in tables)

    # closure under d and t
    for _, pq in items:
        assert in_orbit(spread.dual_pqf(pq).table)
        assert in_orbit(spread.transpose_pqf(pq).table)
    # the orbit contains the dual x^2 y and the commutative sqrt(x)sqrt(y)
    dual = [[F.mul(F.sqr(x), y) for y in range(8)] for x in range(8)]
    comm = [[F.mul(F.sqrt(x), F.sqrt(y)) for y in range(8)] for x in range(8)]
    assert in_orbit(dual) and in_orbit(comm)


def test_knuth_orbit_requires_presemifield():
    F = BinaryField(6)
    lam = next(x for x in range(2, 64) if F.pow(x, 4) == x)  # GF(4) - GF(2)
    Qz = spread.kantor_chain(6, [2], [lam], [9])  # prequasifield only
    rep = spread.validate_prequasifield(Qz)
    assert not rep.is_presemifield
    with pytest.raises(ValueError):
        spread.knuth_orbit(Qz)


def test_commutative_symplectic_round_trip(xy2):
    F = BinaryField(3)
    C = spread.commutative_from_symplectic(xy2)
    rep = spread.validate_prequasifield(C)
    assert rep.is_commutative and rep.is_presemifield
    # explicit form: z * y = sqrt(z y)
    for z in range(8):
        for y in range(8):
            assert pqf_mul(C, z, y) == F.sqrt(F.mul(z, y))
    back = spread.symplectic_from_commutative(C)
    assert np.array_equal(back.table, xy2.table)
    assert spread.is_symplectic(back)
    with pytest.raises(ValueError):
        spread.commutative_from_symplectic(C)          # not symplectic
    with pytest.raises(ValueError):
        spread.symplectic_from_commutative(xy2)        # not commutative


LEFT_ADJOINT_CASES = {
    **{f"field:{m}": (lambda m=m: spread.field_pqf(m)) for m in (2, 3, 4, 5)},
    **{f"kantor:3:{z}": (lambda z=z: spread.kantor_chain(3, [1], [1], [z]))
       for z in range(8)},
    "kantor:5:11": lambda: spread.kantor_chain(5, [1], [1], [11]),
    "kantor:7:0": lambda: spread.kantor_chain(7, [1], [1], [0]),
}


@pytest.mark.parametrize("name", LEFT_ADJOINT_CASES)
def test_left_adjoint_matches_per_z_loop(name):
    # Q and its partner, the commutative one when Q is a symplectic
    # presemifield
    Q = LEFT_ADJOINT_CASES[name]()
    partner = spread._left_adjoint_pqf(Q, "partner")
    assert np.array_equal(partner.table, left_adjoint_naive(Q))
    assert np.array_equal(spread._left_adjoint_pqf(partner, "back").table,
                          left_adjoint_naive(partner))


def test_constructor_takes_the_table_without_a_copy():
    tracemalloc.start()
    try:
        spread.luneburg(5)                    # a 4 MB int32 table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_dumps_pqf_matches_entrywise_format():
    for Q in (spread.kantor_chain(5, [1], [1], [0]), spread.luneburg(3)):
        assert spread.dumps_pqf(Q) == dumps_pqf_naive(Q)


def test_field_fixed_by_both_constructions(field8):
    assert np.array_equal(
        spread.commutative_from_symplectic(field8).table, field8.table)
    assert np.array_equal(
        spread.symplectic_from_commutative(field8).table, field8.table)


def test_luneburg_construction():
    Ql = spread.luneburg(3)
    F = Ql.field
    rep = spread.validate_prequasifield(Ql)
    assert rep.axioms_ok and rep.is_symplectic
    # sigma(a) = a^4 and sigma^2 = squaring at m = 3
    for a in range(8):
        assert F.pow(F.pow(a, 4), 4) == F.sqr(a)
    # d(z) = (sqrt z1, sqrt z2)
    G = spread.sqrt_diag_g_table(Ql)
    for z in range(Ql.size):
        z1, z2 = unpack(Ql, z)
        assert G[z] == pack(Ql, F.sqrt(z1), F.sqrt(z2))
    with pytest.raises(ValueError):
        spread.luneburg(4)


def test_luneburg_spread_partition():
    Ql = spread.luneburg(3)
    ok, wit = spread.verify_spread(Ql)
    assert ok and wit is None


def test_spread_partition_flat():
    for Q in (spread.field_pqf(3), spread.kantor_chain(5, [1], [1], [11])):
        ok, _ = spread.verify_spread(Q)
        assert ok


def test_orthonormal_basis():
    for m in (2, 3, 4, 5, 6):
        F = BinaryField(m)
        basis = spread.orthonormal_basis_field(F)
        assert rank(basis) == m
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert F.trace(F.mul(bi, bj)) == (1 if i == j else 0)
    Ql = spread.luneburg(3)
    basis, bform = spread.orthonormal_basis(Ql), carrier_form(Ql)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert bform(bi, bj) == (1 if i == j else 0)


def test_diagonal_sqrt():
    F = BinaryField(3)
    assert diagonal_sqrt([[5]], F) == (F.sqrt(5),)
    assert diagonal_sqrt([[0, 0], [0, 0]], F) == (0, 0)
    with pytest.raises(ValueError):
        diagonal_sqrt([[0, 1], [2, 0]], F)
    # Desarguesian: M_z = [z], d = sqrt(z)
    Qf = spread.field_pqf(3)
    assert f_matrix_rep(Qf, 5) == [[5]]
    G = spread.sqrt_diag_g_table(Qf)
    assert all(G[z] == F.sqrt(z) for z in range(8))


def test_generic_sqrt_diag_gives_line_oval():
    # the orthonormal-basis diagonal works for any flat symplectic spread
    from ovalbent import spreadbent
    Q = spread.kantor_chain(3, [1], [1], [3])
    G = spread.sqrt_diag_g_table(Q)
    ok, wit = spreadbent.bent_criterion(spreadbent.SpreadBentSpec(Q, G))
    assert ok, wit


def test_pqf_file_format(tmp_path):
    Ql = spread.luneburg(3)
    text = spread.dumps_pqf(Ql)
    head = text.splitlines()[0]
    assert head == "q=64 shape=pair"
    path = tmp_path / "l.pqf"
    spread.save_pqf(Ql, path)
    back = spread.load_pqf(path)
    assert np.array_equal(back.table, Ql.table)
    assert back.m == 3 and back.shape == "pair"
    for bad in ("q=7 shape=flat\n", "", "q=2 shape=flat\n0 0\n0 2\n",
                "q=2 shape=flat\n0 0\n-1 1\n",
                "q=2 shape=flat\n0 0\n0 99999999999999999999\n"):
        with pytest.raises(ValueError):
            spread.loads_pqf(bad)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_field_table_matches_scalar_oracle(m):
    Q = spread.field_pqf(m)
    want = scalar_table(field_mul(BinaryField(m)), Q.size)
    assert np.array_equal(Q.table, want)


@pytest.mark.parametrize("m", [3, 5])
def test_luneburg_rows_match_scalar_oracle(m):
    Q = spread.luneburg(m)
    want = scalar_table(luneburg_mul(BinaryField(m)), Q.size)
    assert np.array_equal(Q.table, want)


def test_kantor_rows_match_scalar_oracle():
    F6 = BinaryField(6)
    lam = next(x for x in range(2, 64) if F6.pow(x, 4) == x)   # GF(4) - GF(2)
    chains = ([(3, [1], [1], [z]) for z in range(8)]
              + [(5, [1], [1], [z]) for z in range(32)]
              + [(6, [2], [lam], [z]) for z in (7, 9)])
    for m, degs, lams, zetas in chains:
        Q = spread.kantor_chain(m, degs, lams, zetas)
        want = scalar_table(kantor_mul(BinaryField(m), degs, lams, zetas), Q.size)
        assert np.array_equal(Q.table, want), (m, lams, zetas)


def test_cached_transpose_matches_bruteforce_adjoints(xy2):
    nonsymplectic = _rule_pqf("x^2 z")
    for Q in (spread.field_pqf(4), xy2, spread.kantor_chain(3, [1], [1], [5]),
              spread.kantor_chain(5, [1], [1], [11]),
              spread.commutative_from_symplectic(xy2), nonsymplectic):
        assert Q.size <= 32
        want = adjoint_naive([right_mult_rows(Q, z) for z in range(Q.size)], Q)
        assert np.array_equal(Q.transposed().table, want), Q
        assert np.array_equal(spread.transpose_pqf(Q).table, want), Q


def test_transpose_of_transpose_is_recomputed():
    Q = spread.kantor_chain(3, [1], [1], [5])
    Qt = spread.transpose_pqf(Q)
    Qtt = spread.transpose_pqf(Qt)
    assert Qtt is not Q and np.array_equal(Qtt.table, Q.table)
    assert Q.transposed() is Q.transposed()            # kept once computed
    assert Q.transposed() is not Qt                    # transpose_pqf is fresh
    assert Q.transposed().transposed() is not Q        # never seeded with Q
    assert np.array_equal(Q.transposed().transposed().table, Q.table)


# ---------------------------------------------------------------------------
# the library's whole-array checks against the all-triples and per-member
# oracles, on every carrier of at most 64 elements and on broken tables
# ---------------------------------------------------------------------------

def _kantor6(zeta):
    F6 = BinaryField(6)
    lam = next(x for x in range(2, 64) if F6.pow(x, 4) == x)   # GF(4) - GF(2)
    return spread.kantor_chain(6, [2], [lam], [zeta])


def _edited(Q, edit, name):
    """Q's table with one seeded edit, as a plain table prequasifield."""
    t = Q.table.copy()
    edit(t, np.random.default_rng(sum(map(ord, name))))
    return spread.Prequasifield(Q.m, Q.shape, t, kind="table", name=name)


def _swap_in_column(t, rng):
    z = int(rng.integers(1, len(t)))
    a, b = (int(v) for v in rng.choice(np.arange(1, len(t)), 2, replace=False))
    t[[a, b], z] = t[[b, a], z]


def _swap_in_upper_half(t, rng):
    """Rows n/2 + 1 and n/2 + 2 of one column swapped: only the last
    doubling step sees it, at two values of x."""
    z, h = int(rng.integers(1, len(t))), len(t) // 2
    t[[h + 1, h + 2], z] = t[[h + 2, h + 1], z]


def _repeat_in_column(t, rng):
    z, x = (int(v) for v in rng.integers(1, len(t) - 1, size=2))
    t[x, z] = t[x + 1, z]


def _nonzero_row0(t, rng):
    t[0, int(rng.integers(1, len(t)))] = int(rng.integers(1, len(t)))


def _nonzero_column0(t, rng):
    t[int(rng.integers(1, len(t))), 0] = int(rng.integers(1, len(t)))


def _pair_frobenius():
    """Lueneburg at m = 3 with x1 squared first: GF(2)- but not F-linear."""
    Q = spread.luneburg(3)
    xs = np.arange(Q.size)
    idx = Q.field.pow_table(2)[xs & 7] | (xs >> 3) << 3
    return spread.Prequasifield(3, "pair", Q.table[idx], kind="table")


def _pair_output_frobenius():
    """Lueneburg at m = 3 with y2 squared last: F-linear in y1 only."""
    Q = spread.luneburg(3)
    t = Q.table
    table = (t & 7) | Q.field.pow_table(2)[t >> 3] << 3
    return spread.Prequasifield(3, "pair", table, kind="table")


def _pair_asymmetric_then_nonlinear():
    """The upper triangular table with its last column taken from
    `_pair_frobenius`: the first bad z is asymmetric, a later one is
    not F-linear."""
    t = _rule_pqf("upper triangular").table.copy()
    t[:, -1] = _pair_frobenius().table[:, -1]
    return spread.Prequasifield(3, "pair", t, kind="table")


SMALL = {**{f"field:{m}": (lambda m=m: spread.field_pqf(m))
            for m in range(2, 7)},
         "luneburg:3": lambda: spread.luneburg(3),
         **{f"kantor:3:{z}": (lambda z=z: spread.kantor_chain(3, [1], [1], [z]))
            for z in range(8)},
         **{f"kantor:5:{z}": (lambda z=z: spread.kantor_chain(5, [1], [1], [z]))
            for z in (0, 5, 11, 31)},
         **{f"kantor:6:{z}": (lambda z=z: _kantor6(z)) for z in (7, 9)},
         "x^2 z": lambda: _rule_pqf("x^2 z"),
         "comm(kantor:3:0)": lambda: spread.commutative_from_symplectic(
             spread.kantor_chain(3, [1], [1], [0]))}

BROKEN = {
    "nonlinear rows": lambda: _rule_pqf("perm(x) z"),
    "swap in column": lambda: _edited(spread.kantor_chain(5, [1], [1], [11]),
                                      _swap_in_column, "swap in column"),
    "swap in upper half": lambda: _edited(spread.luneburg(3),
                                          _swap_in_upper_half,
                                          "swap in upper half"),
    "repeat in column": lambda: _edited(spread.luneburg(3), _repeat_in_column,
                                        "repeat in column"),
    "nonzero row 0": lambda: _edited(spread.field_pqf(4), _nonzero_row0,
                                     "nonzero row 0"),
    "nonzero column 0": lambda: _edited(spread.kantor_chain(3, [1], [1], [5]),
                                        _nonzero_column0, "nonzero column 0"),
    "dual of kantor:6:9": lambda: spread.dual_pqf(_kantor6(9)),
}
# pair tables without a symmetric F-matrix representation
NOT_F_SYMMETRIC = {"pair frobenius": _pair_frobenius,
                   "pair output frobenius": _pair_output_frobenius,
                   "pair upper triangular": lambda: _rule_pqf("upper triangular"),
                   "pair asymmetric, then nonlinear":
                       _pair_asymmetric_then_nonlinear}
CARRIERS = {**SMALL, **BROKEN, **NOT_F_SYMMETRIC,
            "luneburg:5": lambda: spread.luneburg(5),
            "kantor:7": lambda: spread.kantor_chain(7, [1], [1], [0]),
            "field:8": lambda: spread.field_pqf(8)}


@pytest.mark.parametrize("name", [*SMALL, *BROKEN, *NOT_F_SYMMETRIC])
def test_validation_matches_all_triples_oracle(name):
    Q = CARRIERS[name]()
    assert Q.size <= 64
    got = spread.validate_prequasifield(Q).as_dict()
    assert got.pop("exhaustive") is True
    assert got == validate_naive(Q)
    assert got["axioms_ok"] == (name in SMALL or name.endswith("frobenius"))
    if "right_distributive" in got["failures"]:
        x, y, z = got["failures"]["right_distributive"]
        assert pqf_mul(Q, x ^ y, z) != pqf_mul(Q, x, z) ^ pqf_mul(Q, y, z)


@pytest.mark.parametrize("name", [*SMALL, *BROKEN, *NOT_F_SYMMETRIC])
def test_spread_checks_match_member_loops(name):
    Q = CARRIERS[name]()
    assert spread.verify_spread(Q) == spread_cover_naive(Q)
    Qt = Q.transposed()
    cols = [0, 2, 1, *range(3, Q.size)]      # members 1 and 2 of Q^t swapped
    swapped = spread.Prequasifield(Q.m, Q.shape, Qt.table[:, cols])
    for other in (Qt, Q, swapped):
        assert spread.spreads_perpendicular(Q, other) == \
            perpendicular_naive(Q, other), other
    if name in SMALL:
        assert spread.spreads_perpendicular(Q, Qt)


def _sqrt_diag_outcome(fn, *args):
    try:
        return fn(*args).tolist()
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("name", [*SMALL, *NOT_F_SYMMETRIC,
                                  "luneburg:5", "kantor:7", "field:8"])
def test_sqrt_diag_matches_per_z_oracle(name):
    Q = CARRIERS[name]()
    want = _sqrt_diag_outcome(sqrt_diag_naive, Q, spread.orthonormal_basis(Q))
    assert _sqrt_diag_outcome(spread.sqrt_diag_g_table, Q) == want
    rejected = ("x^2 z", "comm(kantor:3:0)", *NOT_F_SYMMETRIC)
    assert isinstance(want, str) == (name in rejected), want


def test_carrier_dimension_cap():
    assert spread.MAX_CARRIER_DIM == 12
    for m, shape in ((13, "flat"), (7, "pair"), (0, "flat")):
        with pytest.raises(ValueError, match="carrier dimension"):
            spread.carrier_dim(m, shape)
    with pytest.raises(ValueError, match="carrier dimension"):
        spread.loads_pqf("q=8192 shape=flat\n")
    with pytest.raises(ValueError, match="carrier dimension"):
        spread.Prequasifield.from_evaluator(7, "pair", None, kind="table")
