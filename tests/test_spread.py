import tracemalloc

import numpy as np
import pytest

from ovalbent import kernels, spread
from ovalbent.gf import BinaryField
from oracles import (adjoint_naive, apply, carrier_form, diagonal_sqrt,
                     dumps_pqf_naive, f_matrix_rep, field_mul, kantor_mul,
                     left_adjoint_naive, line_check_naive, luneburg_mul,
                     orthonormal_basis, orthonormal_basis_field, pack,
                     perpendicular_naive, pqf_mul, rank, right_mult_rows,
                     scalar_table, spread_cover_naive, sqrt_diag_naive,
                     symmetric_rep_naive, unpack, validate_naive)


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
        assert symmetric_rep_naive(Q, orthonormal_basis(Q)) == want


@pytest.mark.parametrize("name", ["field:3", "field:4", "luneburg:3", "kantor:3",
                                  "kantor:5", "x^2 z"])
def test_is_symplectic_matches_scalar_matrices(name):
    Q = {"field:3": lambda: spread.field_pqf(3),
         "field:4": lambda: spread.field_pqf(4),
         "luneburg:3": lambda: spread.luneburg(3),
         "kantor:3": lambda: spread.kantor_chain(3, [1], [1], [5]),
         "kantor:5": lambda: spread.kantor_chain(5, [1], [1], [11]),
         "x^2 z": lambda: _rule_pqf("x^2 z")}[name]()
    want = symmetric_rep_naive(Q, orthonormal_basis(Q))
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


@pytest.mark.parametrize("name, make, words", [
    ("kantor:5:1:1:11", lambda: spread.kantor_chain(5, [1], [1], [11]),
     ["", "d", "dt"]),
    ("kantor:3", lambda: spread.kantor_chain(3, [1], [1], [5]), ["", "d", "dt"]),
    ("field:4", lambda: spread.field_pqf(4), [""]),
    ("comm(kantor:5)", lambda: spread.commutative_from_symplectic(
        spread.kantor_chain(5, [1], [1], [11])), ["", "t", "td"]),
    ("kantor:5:3^d", lambda: spread.dual_pqf(spread.kantor_chain(5, [1], [1], [3])),
     ["", "d", "t"]),
])
def test_knuth_orbit_words_are_pinned(name, make, words):
    items, dtd_eq = spread.knuth_orbit(make())
    assert [w for w, _ in items] == words and dtd_eq
    tables = [pq.table for _, pq in items]
    for i, t in enumerate(tables):          # the items are distinct tables
        assert not any(np.array_equal(t, u) for u in tables[:i])


def test_knuth_orbit_holds_its_items_and_two_tables():
    """Each candidate is built fresh, compared with the items and dropped
    unless it is new, and no item keeps a transpose: the kantor:9 orbit
    (three 1 MiB tables) peaks at its two new items plus two tables."""
    Q = spread.kantor_chain(9, [1], [1], [0])
    (items, _), peak = _traced_peak(spread.knuth_orbit, Q)
    assert [w for w, _ in items] == ["", "d", "dt"]
    assert peak < (len(items) - 1 + 2) * Q.table.nbytes


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
    """Row z of the Knuth word dtd is L_z^*, and it is the partner: the
    commutative one of a symplectic presemifield, and back."""
    Q = LEFT_ADJOINT_CASES[name]()
    dtd = spread.dual_pqf(spread.transpose_pqf(spread.dual_pqf(Q)))
    assert np.array_equal(dtd.table, left_adjoint_naive(Q))
    partner = spread.commutative_from_symplectic(Q)
    assert np.array_equal(partner.table, dtd.table)
    back = spread.symplectic_from_commutative(partner)
    assert np.array_equal(back.table, left_adjoint_naive(partner))
    assert np.array_equal(back.table, Q.table)


def test_constructor_takes_the_table_without_a_copy():
    tracemalloc.start()
    try:
        spread.luneburg(5)                    # a 4 MB int32 table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_constructor_checks_the_range_before_the_int16_cast():
    """An int16 table is kept uncopied and read-only; a table of any
    other dtype is copied to int16 only once every entry lies in the
    carrier: 2^15 + 3 (which the cast would wrap to -32765), -1 and 8
    are refused in a table over the 8 elements of GF(8)."""
    Q = spread.field_pqf(3)
    t = Q.table.copy()
    assert t.dtype == np.int16
    assert spread.Prequasifield(3, "flat", t).table is t
    assert not t.flags.writeable
    wide = Q.table.astype(np.int32)
    kept = spread.Prequasifield(3, "flat", wide).table
    assert kept.dtype == np.int16 and np.array_equal(kept, Q.table)
    for bad in ((1 << 15) + 3, -1, 8):
        t = Q.table.astype(np.int32)
        t[2, 5] = bad
        with pytest.raises(ValueError, match=r"must lie in \[0, 8\)"):
            spread.Prequasifield(3, "flat", t)


def test_validation_holds_one_row_block_at_a_time():
    """Both line checks work on one row block at a time and the symplectic
    test reads the basis rows only, so validating the 4 MB field:10 table
    allocates nothing the size of the table, and no transpose."""
    Q = spread.field_pqf(10)
    tracemalloc.start()
    try:
        spread.validate_prequasifield(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


def test_dumps_pqf_matches_entrywise_format():
    for Q in (spread.kantor_chain(5, [1], [1], [0]), spread.luneburg(3)):
        assert spread.dumps_pqf(Q) == dumps_pqf_naive(Q)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Sink:
    """A text handle that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_table_file_text_is_written_and_read_a_row_at_a_time(tmp_path):
    """The field:10 table (4.6 MB of text) is written to a handle one row
    of Python ints at a time (about 93 KiB peak), and the field:9 file is
    parsed from its handle one line at a time into the 1 MiB int32 table
    (about 55 KiB beyond it; field:9, since tracing the parse of 2^20
    entries takes seconds): neither holds the text."""
    Q10, Q9 = spread.field_pqf(10), spread.field_pqf(9)
    sink = _Sink()
    _, write_peak = _traced_peak(spread.write_pqf, Q10, sink)
    assert write_peak < 256 << 10
    assert sink.chars == len(spread.dumps_pqf(Q10))
    path = tmp_path / "f9.pqf"
    spread.save_pqf(Q9, path)
    assert path.read_text() == spread.dumps_pqf(Q9)
    with open(path) as fh:
        back9, read_peak = _traced_peak(spread.read_pqf, fh)
    assert read_peak < Q9.table.nbytes + (256 << 10)
    assert np.array_equal(back9.table, Q9.table)


def test_loads_pqf_holds_no_wide_copy_of_the_text():
    """The field:9 text (0.95 MB, ASCII) is split into its lines and parsed
    into the 1 MiB int32 table: about 2 MiB peak, with no 4-byte-per-
    character copy of the text as a StringIO keeps."""
    Q9 = spread.field_pqf(9)
    back9, peak = _traced_peak(spread.loads_pqf, spread.dumps_pqf(Q9))
    assert peak <= 2.5 * (1 << 20)
    assert np.array_equal(back9.table, Q9.table)


def test_read_pqf_rejects_a_long_input_without_reading_on():
    """A line after the q-th row fails as it arrives: the reader never asks
    for the line after it."""
    text = spread.dumps_pqf(spread.field_pqf(3))

    def lines():
        yield from text.splitlines(keepends=True)
        yield "0 1 2 3 4 5 6 7\n"                        # a (q+2)-th line
        pytest.fail("read_pqf asked for a line past the (q+2)-th")

    with pytest.raises(ValueError, match="q rows of q integers"):
        spread.read_pqf(lines())


def test_read_pqf_rejects_a_short_file_from_a_handle(tmp_path):
    text = spread.dumps_pqf(spread.field_pqf(3))
    lines = text.splitlines(keepends=True)
    path = tmp_path / "short.pqf"
    # the last row missing, the last three missing, the last row cut short
    for short in ("".join(lines[:-1]), "".join(lines[:-3]), text[:-4]):
        path.write_text(short)
        with open(path) as fh, pytest.raises(ValueError,
                                             match="q rows of q integers"):
            spread.read_pqf(fh)


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


def test_sqrt_diag_of_a_relabelled_luneburg_carrier():
    """x o' z = phi^-1(phi x o phi z) for a B-isometry phi that is not
    F-linear: the table is symplectic but no F-matrix represents its
    right multiplications, and its o-polynomial is phi^-1 G phi."""
    Q, Qr = spread.luneburg(3), _relabelled_luneburg()
    phi = _relabel_phi(Q)
    assert np.array_equal(phi[phi], np.arange(Q.size))      # phi^-1 = phi
    rep = spread.validate_prequasifield(Qr)
    assert rep.axioms_ok and rep.is_symplectic
    with pytest.raises(ValueError, match="not F-linear"):
        f_matrix_rep(Qr, 1)
    G = spread.sqrt_diag_g_table(Q)
    assert np.array_equal(spread.sqrt_diag_g_table(Qr), phi[G[phi]])


def test_symplectic_reads_every_column_not_the_basis_ones():
    """`_basis_symmetric_field6`: the axioms hold and the Gram array is
    symmetric at every basis z, but not at every z, so the table is not
    symplectic and has no diagonal o-polynomial."""
    Q = _basis_symmetric_field6()
    gram = Q.gram()
    sym = (gram == gram.transpose(1, 0, 2)).all(axis=(0, 1))
    assert sym[1 << np.arange(Q.dim)].all() and not sym.all()
    rep = spread.validate_prequasifield(Q)
    assert rep.axioms_ok and not rep.is_symplectic
    assert not symmetric_rep_naive(Q, orthonormal_basis(Q))
    with pytest.raises(ValueError, match="needs a symplectic spread"):
        spread.sqrt_diag_g_table(Q)


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
        basis = orthonormal_basis_field(F)
        assert rank(basis) == m
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert F.trace(F.mul(bi, bj)) == (1 if i == j else 0)
    Ql = spread.luneburg(3)
    basis, bform = orthonormal_basis(Ql), carrier_form(Ql)
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
    # the Gram diagonal works for any symplectic spread
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
                "q=2 shape=flat\n0 0\n0 99999999999999999999\n",
                "q=2 shape=flat\n0 0\n0 9223372036854775808\n",
                "q=4 shape=flat\n0 0 0 0\n0 1 x 3\n0 2 3 1\n0 3 1 2\n",
                "q=4 shape=flat\n0 0 0 0\n0 1 4 3\n0 2 3 1\n0 3 1 2\n",
                "q=4 shape=flat\n0 0 0 0\n0 1 2 3 0\n0 2 3 1\n0 3 1 2\n",
                "q=4 shape=flat\n0 0 0 0\n0 1 2 3\n0 2 3 1\n"):
        with pytest.raises(ValueError):
            spread.loads_pqf(bad)


def test_pqf_reader_takes_plain_digits_only():
    """Table lines and the q= value hold ASCII digits and spaces only;
    whitespace at the ends of a line is stripped.  int() reads each
    rejected entry of the named layouts as a number; the five added
    after them (a letter, a point, an exponent, a hex prefix, a comma)
    int() rejects with its own message.  The digit rule meets all first."""
    table = spread.field_pqf(2).table
    text = spread.dumps_pqf(spread.field_pqf(2))
    row = "0 1 2 3"
    assert row in text
    layouts = {"leading zeros": (text.replace(row, "00 01 002 3"), True),
               "runs of spaces": (text.replace(row, "0  1 2   3 "), True),
               "ff line ends": (text.replace("\n", "\x0c\n"), True),
               "q= leading zero": (text.replace("q=4", "q=04"), True),
               "underscore": (text.replace(row, "0 1 2 0_3"), False),
               "plus sign": (text.replace(row, "0 +1 2 3"), False),
               "minus zero": (text.replace(row, "-0 1 2 3"), False),
               "arabic-indic digit": (text.replace(row, "0 1 2 \u0663"), False),
               "fullwidth digit": (text.replace(row, "0 1 2 \uff13"), False),
               "tab": (text.replace(row, "0 1 2\t3"), False),
               "unit separator": (text.replace(row, "0 1\x1f2 3"), False),
               "q= plus sign": (text.replace("q=4", "q=+4"), False),
               "q= underscore": (text.replace("q=4", "q=0_4"), False),
               "q= arabic-indic digit": (text.replace("q=4", "q=\u0664"), False)}
    for word in ("3x", "1.5", "1e3", "0x1f", "1,2"):
        layouts[f"entry {word}"] = (text.replace(row, f"0 1 2 {word}"), False)
        layouts[f"q= {word}"] = (text.replace("q=4", f"q={word}"), False)
    for name, (layout, accepted) in layouts.items():
        if accepted:
            assert np.array_equal(spread.loads_pqf(layout).table, table), name
        else:
            with pytest.raises(ValueError, match="plain decimal digits"):
                spread.loads_pqf(layout)
    # q= values of 19 or more digits, past int64 here, would saturate in
    # the parse: rejected by their digit count, with the carrier range
    for q in ("9223372036854775808", "18446744073709551616"):
        with pytest.raises(ValueError, match=r"past every carrier size: "
                                             r"carriers have GF\(2\) dimension 1\.\.12"):
            spread.loads_pqf(text.replace("q=4", f"q={q}"))
    with pytest.raises(ValueError, match=r"^carrier dimension 13 is outside 1\.\.12$"):
        spread.loads_pqf(text.replace("q=4", "q=8192"))
    assert np.array_equal(spread.loads_pqf(
        text.replace("q=4", "q=" + "0" * 20 + "4")).table, table)


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


def _later_step_in_smaller_column(t, rng):
    """Column z has rows n/2 + 1 and n/2 + 2 swapped, which only the last
    doubling step sees; column z + 1 has rows 3 and 5 swapped, which the
    step y = 2 already sees.  The witness is in column z all the same.
    z is a multiple of 3, so the two columns share a block of three too."""
    n = len(t)
    z, h = 3 * int(rng.integers(1, (n - 2) // 3 + 1)), n // 2
    t[[h + 1, h + 2], z] = t[[h + 2, h + 1], z]
    t[[3, 5], z + 1] = t[[5, 3], z + 1]


def _swap_in_last_column(t, rng):
    a, b = (int(v) for v in rng.choice(np.arange(1, len(t)), 2, replace=False))
    t[[a, b], -1] = t[[b, a], -1]


def _repeat_in_column(t, rng):
    z, x = (int(v) for v in rng.integers(1, len(t) - 1, size=2))
    t[x, z] = t[x + 1, z]


def _singular_column(t, rng):
    """Column z cut to x o z with bit 0 cleared: R_z stays linear, but
    the x with x o z = 1 is in its kernel."""
    t[:, int(rng.integers(1, len(t)))] &= -2


def _singular_row(t, rng):
    """Row x cut the same way: a linear left section with a kernel, whose
    edit leaves some columns nonlinear and not bijective."""
    t[int(rng.integers(1, len(t))), :] &= -2


def _nonlinear_permutation_column(t, rng):
    """Column z with the values 3 and 5 swapped (a permutation, but not
    linear), then a later column cut by `_singular_column`: the sort of
    column z passes, and the witnesses are z and the later column."""
    z = int(rng.integers(1, len(t) - 1))
    col = t[:, z].copy()
    t[col == 3, z], t[col == 5, z] = 5, 3
    t[:, int(rng.integers(z + 1, len(t)))] &= -2


def _nonzero_row0(t, rng):
    t[0, int(rng.integers(1, len(t)))] = int(rng.integers(1, len(t)))


def _nonzero_column0(t, rng):
    t[int(rng.integers(1, len(t))), 0] = int(rng.integers(1, len(t)))


def _x_phi_z():
    """x o z = x phi(z) over GF(8), phi swapping 3 and 5: every axiom holds
    and the basis block is symmetric, but Q is neither left distributive
    nor commutative (1 o 3 = 5, 3 o 1 = 3).  Column 1 is the identity map,
    row 1 is phi, so there is no identity element."""
    t = spread.field_pqf(3).table[:, [0, 1, 2, 5, 4, 3, 6, 7]]
    return spread.Prequasifield(3, "flat", t, kind="table", name="x phi(z)")


def _pair_frobenius():
    """Lueneburg at m = 3 with x1 squared first: GF(2)- but not F-linear."""
    Q = spread.luneburg(3)
    xs = np.arange(Q.size)
    idx = Q.field.pow_table(2)[xs & 7] | (xs >> 3) << 3
    return spread.Prequasifield(3, "pair", Q.table[idx], kind="table")


def _relabel_phi(Q):
    """phi(x) = x + B(x, v) v with v = b + (b << m), b the first
    orthonormal vector of F: the B-isometry of Q's pair carrier that swaps
    the first orthonormal vector of each coordinate (an involution)."""
    b = orthonormal_basis_field(Q.field)[0]
    v, bform = b | b << Q.m, carrier_form(Q)
    return np.array([x ^ bform(x, v) * v for x in range(Q.size)], dtype=np.int32)


def _relabelled_luneburg():
    """luneburg:3 relabelled by `_relabel_phi`, x o' z = phi^-1(phi x o phi z):
    symplectic, since phi is an isometry, but not F-linear."""
    Q = spread.luneburg(3)
    phi = _relabel_phi(Q)
    return spread.Prequasifield(3, "pair", phi[Q.table[phi][:, phi]],
                                kind="table", name="relabelled luneburg:3")


def _basis_symmetric_field6():
    """x o z = A(pi(z) A^-1(x)) over GF(64), A(x) = 2 x^8 + x (GF(8)-linear
    and invertible) and pi a relabelling that sends the basis labels 2^i to
    six elements of GF(8)*.  R_z = A M_pi(z) A^-1 is self-adjoint iff A^T A
    commutes with M_pi(z), as it does for pi(z) in GF(8): every basis
    column is self-adjoint, yet the spread is not symplectic."""
    F = BinaryField(6)
    xs = np.arange(64)
    A = F.mul_arr(np.full(64, 2), F.pow_table(8)) ^ xs
    sub = [a for a in range(1, 64) if F.pow(a, 8) == a][:6]
    basis = [1 << i for i in range(6)]
    pi = np.zeros(64, dtype=np.int64)
    pi[basis + [z for z in range(1, 64) if z not in basis]] = \
        sub + [a for a in range(1, 64) if a not in sub]
    t = A[F.mul_arr(np.argsort(A)[:, None], pi[None, :])]
    return spread.Prequasifield(6, "flat", t, kind="table",
                                name="basis-symmetric field:6")


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
         "relabelled luneburg:3": _relabelled_luneburg,
         **{f"kantor:3:{z}": (lambda z=z: spread.kantor_chain(3, [1], [1], [z]))
            for z in range(8)},
         **{f"kantor:5:{z}": (lambda z=z: spread.kantor_chain(5, [1], [1], [z]))
            for z in (0, 5, 11, 31)},
         **{f"kantor:6:{z}": (lambda z=z: _kantor6(z)) for z in (7, 9)},
         "x^2 z": lambda: _rule_pqf("x^2 z"),
         "basis-symmetric field:6": _basis_symmetric_field6,
         "comm(kantor:3:0)": lambda: spread.commutative_from_symplectic(
             spread.kantor_chain(3, [1], [1], [0])),
         "x phi(z)": lambda: _x_phi_z()}

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
    "later step in smaller column": lambda: _edited(
        spread.field_pqf(5), _later_step_in_smaller_column,
        "later step in smaller column"),
    "swap in last column": lambda: _edited(
        spread.kantor_chain(5, [1], [1], [5]), _swap_in_last_column,
        "swap in last column"),
    "singular column": lambda: _edited(
        spread.kantor_chain(5, [1], [1], [11]), _singular_column,
        "singular column"),
    "singular row": lambda: _edited(spread.field_pqf(5), _singular_row,
                                    "singular row"),
    "nonlinear permutation column": lambda: _edited(
        spread.luneburg(3), _nonlinear_permutation_column,
        "nonlinear permutation column"),
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
    if got["axioms_ok"]:                  # the domain of is_symplectic
        assert spread.is_symplectic(Q) == got["is_symplectic"]
    if "right_distributive" in got["failures"]:
        x, y, z = got["failures"]["right_distributive"]
        assert pqf_mul(Q, x ^ y, z) != pqf_mul(Q, x, z) ^ pqf_mul(Q, y, z)


@pytest.mark.parametrize("name", ["x^2 z", "kantor:3:0"])
def test_is_symplectic_matches_all_triples_oracle_on_knuth_orbits(name):
    """Each orbit holds symplectic and non-symplectic items, and the Gram
    decision agrees with B(x o z, y) = B(x, y o z) over all triples on
    every one."""
    items, _ = spread.knuth_orbit(CARRIERS[name]())
    flags = [spread.is_symplectic(Q) for _, Q in items]
    assert flags == [validate_naive(Q)["is_symplectic"] for _, Q in items]
    assert True in flags and False in flags


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", [*BROKEN, "luneburg:3", "kantor:5:11",
                                  "x phi(z)"])
def test_validation_in_small_row_blocks(name, rows, monkeypatch):
    """The line checks walk down blocks of one or three rows, so a block
    of rows p may straddle a doubling step h or hold p without p - h, and
    the lines not shown linear are sorted one or three at a time: the
    same report and witnesses."""
    Q = CARRIERS[name]()
    want = validate_naive(Q)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * Q.size)
    got = spread.validate_prequasifield(Q).as_dict()
    assert got.pop("exhaustive") is True
    assert got == want


def _left_edited(case: str) -> spread.Prequasifield:
    """field:4 with rows edited around the top doubling step h = 8 of the
    left axis (read in blocks of four rows):
    - "top passing": row 5 swaps entries 3, 5 and 11, 13, so it passes
      the top step, fails the step h = 4 and stays a permutation, among
      linear rows;
    - "one top passing row": rows 4, 6 and 7 swap entries 9 and 10, so
      they fail the top step and stay permutations; row 5 takes r[3] =
      r[5] and r[11] = r[13], so it passes the top step and is neither
      linear nor a permutation, with no zero beyond entry 0 and its basis
      values unchanged: only its sort can show it;
    - "all fail, one singular": rows 8 .. 11 swap entries 9 and 10, and
      row 10 also takes a zero at entry 3."""
    Q = spread.field_pqf(4)
    t = Q.table.copy()
    if case == "top passing":
        t[5, [3, 5, 11, 13]] = t[5, [5, 3, 13, 11]]
    elif case == "one top passing row":
        for x in (4, 6, 7):
            t[x, [9, 10]] = t[x, [10, 9]]
        t[5, [3, 11]] = t[5, [5, 13]]
    else:
        for x in range(8, 12):
            t[x, [9, 10]] = t[x, [10, 9]]
        t[10, 3] = 0
    return spread.Prequasifield(Q.m, Q.shape, t, kind="table", name=case)


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("case, want", [("top passing", (5, None)),
                                        ("one top passing row", (4, 5)),
                                        ("all fail, one singular", (8, 10))])
def test_left_axis_checks_the_top_step_first(case, want, rows, monkeypatch):
    """The left axis checks the top doubling step of a row block first and
    skips the block's other steps only once every row in it has failed:
    a nonlinear row that passes the top step is still found, alone or
    beside rows that fail it, and a block that fails it whole still finds
    its singular row by the sort.  The same lines as the scalar loops,
    and the same report and witnesses as the all-triples oracle."""
    Q = _left_edited(case)
    expected = validate_naive(Q)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows * Q.size)
    assert spread._line_check(Q.table, 1) == line_check_naive(Q.table, 1) == want
    got = spread.validate_prequasifield(Q).as_dict()
    assert got.pop("exhaustive") is True
    assert got == expected


def test_linear_lines_are_decided_by_their_kernel():
    """The singular edits keep their lines linear, so their witnesses come
    from the zeros beyond entry 0; the permuted column is not linear, is
    sorted and passes, so the later singular column is the witness."""
    col, row, perm = (spread.validate_prequasifield(CARRIERS[name]()).failures
                      for name in ("singular column", "singular row",
                                   "nonlinear permutation column"))
    assert "right_distributive" not in col
    edited = (CARRIERS["singular row"]().table
              != spread.field_pqf(5).table).any(axis=1)
    assert row["left_section_not_bijective"] == tuple(np.flatnonzero(edited))
    z = perm["right_distributive"][2]
    assert perm["right_mult_not_bijective"][0] > z


def test_linear_column_beyond_the_carrier_is_not_bijective():
    """A table handed to the constructor may hold values beyond the
    carrier.  Over GF(8), x -> 5x ^ 8 (x & 1) is linear with a trivial
    kernel, so it has no zero beyond x = 0, but it leaves the carrier."""
    t = spread.field_pqf(3).table.copy()
    t[:, 5] ^= (np.arange(8) & 1) << 3
    Q = spread.Prequasifield(3, "flat", t, kind="table", name="beyond")
    got = spread.validate_prequasifield(Q).as_dict()
    assert got.pop("exhaustive") is True
    assert got == validate_naive(Q)
    assert got["failures"]["right_mult_not_bijective"] == [5]
    assert "right_distributive" not in got["failures"]


def test_commutative_needs_left_distributivity():
    """The x phi(z) table (`_x_phi_z`): symmetric on the basis block, but
    neither left distributive nor commutative; its identity column is not
    matched by an identity row."""
    Q = _x_phi_z()
    t = Q.table
    basis = 1 << np.arange(Q.dim)
    assert np.array_equal(t[basis][:, basis], t[basis][:, basis].T)
    assert np.array_equal(t[:, 1], np.arange(8))
    assert not np.array_equal(t[1], np.arange(8))
    got = spread.validate_prequasifield(Q).as_dict()
    assert got.pop("exhaustive") is True
    assert got == validate_naive(Q)
    assert got["axioms_ok"] and not got["is_presemifield"]
    assert not got["is_commutative"] and not got["is_quasifield"]


@pytest.mark.parametrize("name", [*BROKEN, "luneburg:3", "kantor:5:11"])
def test_spread_cover_in_small_row_blocks(name, monkeypatch):
    """Blocks of a few rows each: the cover counts of every block and the
    smallest witness over all of them."""
    Q = CARRIERS[name]()
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 3 * Q.size)
    assert spread.verify_spread(Q) == spread_cover_naive(Q)


def test_spread_cover_witness_from_a_later_block(monkeypatch):
    """Row 1 misses y = 15 and row 15 misses y = 1: the smallest packed
    point x + 16*y not covered once is (15, 1), in the last block."""
    Q = spread.field_pqf(4)
    t = Q.table.copy()
    for x, y in ((1, 15), (15, 1)):
        t[x, list(t[x]).index(y)] = y + 1 if y < 15 else 14
    broken = spread.Prequasifield(Q.m, Q.shape, t, kind="table", name="two rows")
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 3 * Q.size)
    assert spread.verify_spread(broken) == spread_cover_naive(broken) \
        == (False, 15 + 16 * 1)


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
    want = _sqrt_diag_outcome(sqrt_diag_naive, Q, orthonormal_basis(Q))
    assert _sqrt_diag_outcome(spread.sqrt_diag_g_table, Q) == want
    rejected = ("x^2 z", "comm(kantor:3:0)", "basis-symmetric field:6",
                *NOT_F_SYMMETRIC)
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
