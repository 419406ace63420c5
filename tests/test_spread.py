import numpy as np
import pytest

from ovalbent import _gf2, spread
from ovalbent.gf import BinaryField
from oracles import (brute_adjoint, kantor_mul, luneburg_mul, scalar_table,
                     trace_form)


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


def test_field_kernel_is_everything(field8):
    assert spread.kernel_of(field8) == list(range(8))


def test_broken_multiplication_reported():
    # a quasigroup on V* that is not right-distributive
    F = BinaryField(3)
    perm = [0, 3, 5, 1, 6, 2, 7, 4]  # nonlinear permutation fixing 0

    def mul_row(x, zs):
        return F.mul_vec(zs, perm[x])

    Q = spread.Prequasifield.from_evaluator(3, "flat", mul_row, kind="table")
    rep = spread.validate_prequasifield(Q)
    assert not rep.axioms_ok
    assert "right_distributive" in rep.failures
    x, y, z = rep.failures["right_distributive"]
    assert Q.mul(x ^ y, z) != Q.mul(x, z) ^ Q.mul(y, z)


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
    # multiplication by c is self-adjoint
    for c in range(8):
        rows = [F.mul(c, 1 << i) for i in range(3)]
        assert spread.adjoint(rows, field8) == rows
    # Frobenius adjoint is x -> x^(2^(m-1))
    frob = [F.sqr(1 << i) for i in range(3)]
    adj = spread.adjoint(frob, field8)
    want = [F.pow(1 << i, 1 << 2) for i in range(3)]
    assert adj == want
    # identity
    assert spread.adjoint([1, 2, 4], field8) == [1, 2, 4]


def test_adjoint_matches_bruteforce(field8):
    rng = np.random.default_rng(4)
    for _ in range(5):
        rows = [int(v) for v in rng.integers(0, 8, size=3)]
        got = spread.adjoint(rows, field8)
        want = brute_adjoint(rows, field8.b_form, 3)
        assert got == want


def test_adjoint_bilinear_identity(field8):
    rng = np.random.default_rng(8)
    rows = [int(v) for v in rng.integers(0, 8, size=3)]
    adj = spread.adjoint(rows, field8)
    for x in range(8):
        for y in range(8):
            assert field8.b_form(_gf2.apply(adj, x), y) == \
                field8.b_form(x, _gf2.apply(rows, y))


def test_field_is_self_transpose(field8):
    assert np.array_equal(spread.transpose_pqf(field8).table, field8.table)


def test_transpose_involution_and_perpendicularity(xy2):
    Qz = spread.kantor_chain(3, [1], [1], [5])
    for Q in (xy2, Qz):
        Qt = spread.transpose_pqf(Q)
        assert np.array_equal(spread.transpose_pqf(Qt).table, Q.table)
        assert spread.spreads_perpendicular(Q, Qt)


def test_symplectic_iff_self_transpose():
    F = BinaryField(3)
    Ql = spread.luneburg(3)
    Qs = spread.Prequasifield.from_evaluator(
        3, "flat", lambda x, zs: F.mul_vec(zs, F.sqr(x)), kind="table",
        name="x^2 z")
    for Q, want in [(spread.field_pqf(3), True), (Ql, True), (Qs, False)]:
        self_t = bool(np.array_equal(spread.transpose_pqf(Q).table, Q.table))
        assert spread.is_symplectic(Q) == self_t == want
        assert spread.symmetric_rep_check(Q) == want


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
    tables = {pq.table.tobytes() for _, pq in items}
    # closure under d and t
    for _, pq in items:
        assert spread.dual_pqf(pq).table.tobytes() in tables
        assert spread.transpose_pqf(pq).table.tobytes() in tables
    # the orbit contains the dual x^2 y and the commutative sqrt(x)sqrt(y)
    dual = np.array([[F.mul(F.sqr(x), y) for y in range(8)] for x in range(8)])
    comm = np.array([[F.mul(F.sqrt(x), F.sqrt(y)) for y in range(8)]
                     for x in range(8)])
    assert dual.tobytes() in tables and comm.tobytes() in tables


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
            assert C.mul(z, y) == F.sqrt(F.mul(z, y))
    back = spread.symplectic_from_commutative(C)
    assert np.array_equal(back.table, xy2.table)
    assert spread.is_symplectic(back)
    with pytest.raises(ValueError):
        spread.commutative_from_symplectic(C)          # not symplectic
    with pytest.raises(ValueError):
        spread.symplectic_from_commutative(xy2)        # not commutative


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
        z1, z2 = Ql.unpack(z)
        assert G[z] == Ql.pack(F.sqrt(z1), F.sqrt(z2))
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
        assert _gf2.rank(basis) == m
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert F.trace(F.mul(bi, bj)) == (1 if i == j else 0)
    Ql = spread.luneburg(3)
    basis = spread.orthonormal_basis(Ql)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert Ql.b_form(bi, bj) == (1 if i == j else 0)


def test_diagonal_sqrt():
    F = BinaryField(3)
    assert spread.diagonal_sqrt([[5]], F) == (F.sqrt(5),)
    assert spread.diagonal_sqrt([[0, 0], [0, 0]], F) == (0, 0)
    with pytest.raises(ValueError):
        spread.diagonal_sqrt([[0, 1], [2, 0]], F)
    # Desarguesian: M_z = [z], d = sqrt(z)
    Qf = spread.field_pqf(3)
    assert spread.f_matrix_rep(Qf, 5) == [[5]]
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
    with pytest.raises(ValueError):
        spread.loads_pqf("q=7 shape=flat\n")


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


def _oracle_transpose_table(Q):
    bform = trace_form(Q.field)
    table = np.zeros_like(Q.table)
    for z in range(Q.size):
        adj = brute_adjoint(Q.right_mult_rows(z), bform, Q.dim)
        for x in range(Q.size):
            table[x, z] = _gf2.apply(adj, x)
    return table


def test_cached_transpose_matches_bruteforce_adjoints(xy2):
    F = BinaryField(3)
    nonsymplectic = spread.Prequasifield.from_evaluator(
        3, "flat", lambda x, zs: F.mul_vec(zs, F.sqr(x)), kind="table")
    for Q in (spread.field_pqf(4), xy2, spread.kantor_chain(3, [1], [1], [5]),
              spread.kantor_chain(5, [1], [1], [11]),
              spread.commutative_from_symplectic(xy2), nonsymplectic):
        assert Q.size <= 32
        want = _oracle_transpose_table(Q)
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
