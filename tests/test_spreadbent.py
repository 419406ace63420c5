import functools
import re
import tracemalloc

import numpy as np
import pytest

from ovalbent import boolfn, geometry, kernels, spread, spreadbent
from ovalbent.gf import BinaryField
from oracles import (adjoint_naive, b_form_masks, bent_criterion_naive,
                     bivariate_fill_naive, bivariate_product_dual_naive,
                     carrier_form, gl2_action_naive, line_oval_cover_naive,
                     orthonormal_basis, right_mult_rows, spread_cover_naive,
                     symmetric_rep_naive, walsh_by_rows)
from test_spread import NOT_F_SYMMETRIC, SMALL


@pytest.fixture(scope="module")
def field_spec():
    Q = spread.field_pqf(3)
    return spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))


@pytest.fixture(scope="module")
def kantor_ct_spec():
    # Corollary instance: Q with commutative transpose, G(z) = z * z
    Qk = spread.kantor_chain(3, [1], [1], [0])            # x y^2, symplectic
    C = spread.commutative_from_symplectic(Qk)
    Q = spread.transpose_pqf(C)                           # Q^t = C commutative
    return spreadbent.SpreadBentSpec(Q, spreadbent.g_square_star(Q))


@pytest.fixture(scope="module")
def luneburg_spec():
    Q = spread.luneburg(3)
    return spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))


def test_field_sqrt_gives_tr_xy(field_spec):
    f = spreadbent.bent_bivariate(field_spec)
    F = field_spec.Q.field
    want = np.array([F.trace(F.mul(x, y)) for y in range(8) for x in range(8)],
                    dtype=np.uint8)
    assert np.array_equal(f.table, want)
    # and the dual equals the function itself
    assert spreadbent.dual_walsh(f, field_spec.Q) == f


def _walsh_product_chi_swap(spec):
    """The three dual routes of the mu-normalized spec."""
    Q = spec.Q
    oval = spreadbent.line_oval_bivariate(spec)
    f = spreadbent.bent_bivariate(spreadbent.normalize_mu(spec))
    return (spreadbent.dual_walsh(f, Q), spreadbent.dual_product(oval, Q),
            spreadbent.dual_chi_swap(oval))


def test_field_dual_routes_and_oval(field_spec):
    dw, dp, dc = _walsh_product_chi_swap(field_spec)
    assert dw == dp and dw == dc
    oval = spreadbent.line_oval_bivariate(field_spec)
    assert oval.e_size() == 36  # 2^(2m-1) + 2^(m-1)


def test_vertical_line_pairing(field_spec):
    # each point (0, a) lies on the vertical line plus exactly one other
    Q = field_spec.Q
    st = spreadbent.star_table(Q)
    counts = np.zeros(Q.size, dtype=int)
    for z in range(Q.size):
        counts[field_spec.G[z] ^ st[0, z]] += 1
    assert np.all(counts == 1)


@pytest.mark.parametrize("name", [*SMALL, *NOT_F_SYMMETRIC])
def test_star_table_is_q_itself_exactly_when_symplectic(name):
    """Q^t = Q iff every R_z is self-adjoint: a symplectic carrier reads
    its own table, and any other one (the basis-symmetric field:6 among
    them, symmetric at the basis z only) gets the brute-force transpose."""
    Q = {**SMALL, **NOT_F_SYMMETRIC}[name]()
    st = spreadbent.star_table(Q)
    if symmetric_rep_naive(Q, orthonormal_basis(Q)):
        assert st is Q.table
    else:
        assert st is not Q.table
        want = adjoint_naive([right_mult_rows(Q, z) for z in range(Q.size)], Q)
        assert np.array_equal(st, want)


def _counting(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("mu", [0, 3])
def test_analyze_computes_each_result_once(luneburg_spec, monkeypatch, mu):
    """One truth table, one Walsh spectrum and one criterion run per
    analyze, bent (mu = 0) or not (mu = 3 breaks G's bijectivity); one
    line-oval cover when the criterion holds and none when it fails."""
    spec = spreadbent.SpreadBentSpec(luneburg_spec.Q, luneburg_spec.G, mu)
    counts: dict = {}
    _counting(monkeypatch, boolfn, "walsh_transform", counts)
    for name in ("bent_bivariate", "bent_criterion", "line_oval_bivariate",
                 "_materialize_line_oval"):
        _counting(monkeypatch, spreadbent, name, counts)
    out, _, _ = spreadbent.analyze(spec)
    assert out["bent"] is (mu == 0) and out["verdicts_agree"]
    covers = {"line_oval_bivariate": 1, "_materialize_line_oval": 1}
    assert counts == {"walsh_transform": 1, "bent_bivariate": 1,
                      "bent_criterion": 1, **(covers if mu == 0 else {})}


def test_analyze_keeps_truth_table_and_walsh_dual(luneburg_spec):
    Q = luneburg_spec.Q
    _, f, dual = spreadbent.analyze(luneburg_spec)
    assert f == spreadbent.bent_bivariate(luneburg_spec)
    assert dual == spreadbent.dual_product(
        spreadbent.line_oval_bivariate(luneburg_spec), Q)
    _, f, dual = spreadbent.analyze(spreadbent.SpreadBentSpec(Q, luneburg_spec.G, 3))
    assert dual is None
    assert f == spreadbent.bent_bivariate(spreadbent.normalize_mu(
        spreadbent.SpreadBentSpec(Q, luneburg_spec.G, 3)))


def test_analyze_catches_only_the_line_oval_verdict(luneburg_spec, monkeypatch):
    """After the criterion has passed, a `NotALineOval` from the line-oval
    build is a failed verdict (exit 1), but any other ValueError, such as
    a numpy shape fault, is a fault and propagates: it was once reported
    as `lineoval_ok: false`."""
    def raising(exc, *fields):
        def build(*args):
            raise exc("operands could not be broadcast together", *fields)
        return build

    monkeypatch.setattr(spreadbent, "_materialize_line_oval", raising(ValueError))
    with pytest.raises(ValueError, match="broadcast"):
        spreadbent.analyze(luneburg_spec)
    monkeypatch.setattr(spreadbent, "_materialize_line_oval",
                        raising(spreadbent.NotALineOval))
    out, _, _ = spreadbent.analyze(luneburg_spec)
    assert out["criterion"] and not out["lineoval_ok"] and not out["verdicts_agree"]
    # with a witness, the report names its point
    monkeypatch.setattr(spreadbent, "_materialize_line_oval",
                        raising(spreadbent.NotALineOval, (5, 3), 1))
    out, _, _ = spreadbent.analyze(luneburg_spec)
    assert not out["verdicts_agree"] and out["lineoval_witness"] == (5, 3)
    monkeypatch.undo()
    assert "lineoval_witness" not in spreadbent.analyze(luneburg_spec)[0]


def test_criterion_witness_matches_per_b_oracle(monkeypatch):
    """Block-wise criterion against the per-b loop, with blocks of one
    row (b = 0 alone, so witnesses come from later blocks), of three rows
    and of the whole table."""
    rng = np.random.default_rng(4)
    for Q in (spread.field_pqf(4), spread.kantor_chain(5, [1], [1], [3]),
              spread.luneburg(3)):
        st = spreadbent.star_table(Q)
        gs = [spread.sqrt_diag_g_table(Q), np.arange(Q.size),
              rng.permutation(Q.size), rng.integers(0, Q.size, size=Q.size)]
        for entries in (Q.size, 3 * Q.size, kernels.BLOCK_ENTRIES):
            monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
            for G in gs:
                spec = spreadbent.SpreadBentSpec(Q, np.asarray(G, dtype=np.int64))
                assert spreadbent.bent_criterion(spec) == \
                    bent_criterion_naive(spec.G, st), (Q, entries)


def _cover_gs(Q):
    """Bent G where a sqrt-diag table exists, else the transpose square,
    then a seeded permutation and a seeded G that takes one value twice."""
    rng = np.random.default_rng(Q.size)
    try:
        bent = spread.sqrt_diag_g_table(Q)
    except ValueError:
        bent = spreadbent.g_square_star(Q)
    twice = rng.permutation(Q.size)
    twice[-1] = twice[0]
    return [bent, rng.permutation(Q.size), twice]


def _assert_cover_matches(make, Q, c, offsets):
    """The line oval from make() against the per-line oracle: the covered
    set and c, or the witness point and its count."""
    counts, witness = line_oval_cover_naive(Q, c, offsets)
    if witness is None:
        oval = make()
        assert oval.c == c and np.array_equal(oval.offsets, offsets)
        assert oval.e_table.dtype == np.uint8
        assert np.array_equal(oval.e_table.T.ravel(), (counts > 0).astype(np.uint8))
    else:
        x, y, n = witness
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"not a line oval: point ({x}, {y}) lies on {n} lines"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_line_oval_cover_matches_per_line_oracle(name, monkeypatch):
    """Covered set, verdict and witness against the per-line loop, for
    c = 0 and for a shifted oval (c = v != 0), with blocks of one row
    (witnesses from later blocks), of three rows and of the whole table."""
    Q = SMALL[name]()
    st = spreadbent.star_table(Q)
    rng = np.random.default_rng(7)
    for entries in (Q.size, 3 * Q.size, Q.size * Q.size):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", entries)
        for G in _cover_gs(Q):
            spec = spreadbent.SpreadBentSpec(Q, np.asarray(G, dtype=np.int64))
            _assert_cover_matches(lambda: spreadbent.line_oval_bivariate(spec),
                                  Q, 0, spec.G)
            u, v = int(rng.integers(Q.size)), int(rng.integers(1, Q.size))
            _assert_cover_matches(
                lambda: spreadbent.action_linear_shift(spec, u, v)[1],
                Q, v, spec.G ^ u ^ st[v])


@pytest.mark.parametrize("name", ["field:4", "luneburg:3"])
def test_not_a_line_oval_carries_the_oracle_witness(name):
    """`NotALineOval` is the verdict of both settings, and its point and
    count are the per-line oracle's witness, on the non-bent G of
    `_cover_gs`."""
    assert spreadbent.NotALineOval is geometry.NotALineOval
    Q = SMALL[name]()
    for G in _cover_gs(Q)[1:]:
        spec = spreadbent.SpreadBentSpec(Q, np.asarray(G, dtype=np.int64))
        x, y, n = line_oval_cover_naive(Q, 0, spec.G)[1]
        with pytest.raises(geometry.NotALineOval) as err:
            spreadbent.line_oval_bivariate(spec)
        assert (err.value.point, err.value.count) == ((x, y), n)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_walsh_dual_matches_mask_oracle(name):
    """The axis-gathered Walsh dual against the row-by-row spectrum read
    through the packed masks of B(a, x) + B(b, y) from `carrier_form`: on
    a seeded Maiorana-McFarland function x . pi(y) + h(y), bent with an
    irregular dual on every carrier, and on the spread-linear functions of
    each G of `_cover_gs` with a seeded mu, whose mu row is B(mu, y).  A
    function the oracle finds not bent has no dual, in `dual_walsh` and
    in `analyze`."""
    Q = SMALL[name]()
    bform, masks = carrier_form(Q), b_form_masks(Q)
    n = Q.size
    rng = np.random.default_rng(n + 1)
    pi, h = rng.permutation(n), rng.integers(0, 2, size=n)
    mm = (np.bitwise_count(np.arange(n) & pi[:, None]) & 1) ^ h[:, None]  # [y, x]
    fs = [boolfn.BooleanFunction(2 * Q.dim, mm.ravel())]
    for G in _cover_gs(Q):
        mu = int(rng.integers(1, n))
        spec = spreadbent.SpreadBentSpec(Q, np.asarray(G, dtype=np.int64), mu)
        f_mu = spreadbent.bent_bivariate(spec)
        assert f_mu.table[0::n].tolist() == [bform(mu, y) for y in range(n)]
        _, f, dual = spreadbent.analyze(spec)
        fs += [f_mu, f]
        w = walsh_by_rows(f.table)
        assert (dual is None) == bool(np.any(np.abs(w) != 1 << Q.dim))
        if dual is not None:
            assert np.array_equal(dual.table, (w < 0).astype(np.uint8)[masks])
    for g in fs:
        w = walsh_by_rows(g.table)
        if np.all(np.abs(w) == 1 << Q.dim):
            want = (w < 0).astype(np.uint8)[masks]
            assert np.array_equal(spreadbent.dual_walsh(g, Q).table, want)
        else:
            with pytest.raises(ValueError):
                spreadbent.dual_walsh(g, Q)


# carriers whose size * entry passes 2^15 (sizes 256, 512 and 1024): an
# index formed from their int16 entries outside intp would wrap
WRAP_CARRIERS = {"field:8": lambda: spread.field_pqf(8),
                 "kantor:9": lambda: spread.kantor_chain(9, [1], [1], [0]),
                 "luneburg:5": lambda: spread.luneburg(5)}


@functools.cache
def _wrap_case(name):
    """(Q, G, a non-bent G, a table that is no spread, references): G is
    the bent sqrt G as int16, like the table, and the non-bent G swaps
    two of its values.  The references are the scalar oracles'."""
    Q = WRAP_CARRIERS[name]()
    G = spread.sqrt_diag_g_table(Q).astype(np.int16)
    bad_G = G.copy()
    bad_G[[1, 2]] = bad_G[[2, 1]]
    t = Q.table.copy()
    t[3, 5] = t[3, 6]
    bad_Q = spread.Prequasifield(Q.m, Q.shape, t)
    st = spreadbent.star_table(Q)
    refs = {"fill": bivariate_fill_naive(Q, G),
            "dual": bivariate_product_dual_naive(st, G),
            "criterion": bent_criterion_naive(G, st),
            "cover": line_oval_cover_naive(Q, 0, G)[0],
            "bad criterion": bent_criterion_naive(bad_G, st),
            "bad cover": line_oval_cover_naive(Q, 0, bad_G)[1],
            "spread": spread_cover_naive(Q),
            "bad spread": spread_cover_naive(bad_Q)}
    return Q, G, bad_G, bad_Q, refs


@pytest.mark.parametrize("rows_per_block", [1, 5, None])
@pytest.mark.parametrize("name", list(WRAP_CARRIERS))
def test_int16_tables_past_the_int16_products(name, rows_per_block, monkeypatch):
    """The fill, the product dual, the criterion, the line-oval cover and
    the spread cover of int16 tables and G against the scalar oracles, at
    carriers where size * entry passes 2^15: in blocks of one row, of five
    rows (a ragged last block) and of the default size, with their
    witnesses on a non-bent G and on a table that is no spread."""
    Q, G, bad_G, bad_Q, refs = _wrap_case(name)
    assert Q.table.dtype == G.dtype == np.int16
    if rows_per_block:
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", rows_per_block * Q.size)
    spec = spreadbent.SpreadBentSpec(Q, G)
    assert np.array_equal(spreadbent.bent_bivariate(spec).table, refs["fill"])
    assert spreadbent.bent_criterion(spec) == refs["criterion"] == (True, None)
    oval = spreadbent.line_oval_bivariate(spec)
    counts = refs["cover"].reshape(Q.size, Q.size)          # [y, x]
    assert np.array_equal(oval.e_table, (counts != 0).T)
    assert np.array_equal(spreadbent.dual_product(oval, Q).table, refs["dual"])
    bad = spreadbent.SpreadBentSpec(Q, bad_G)
    assert spreadbent.bent_criterion(bad) == refs["bad criterion"]
    assert refs["bad criterion"][0] is False
    x, y, c = refs["bad cover"]
    with pytest.raises(spreadbent.NotALineOval,
                       match=re.escape(f"point ({x}, {y}) lies on {c} lines")):
        spreadbent.line_oval_bivariate(bad)
    assert spread.verify_spread(Q) == refs["spread"] == (True, None)
    assert spread.verify_spread(bad_Q) == refs["bad spread"]
    assert refs["bad spread"][0] is False


def test_line_oval_cover_counts_in_row_blocks():
    """At luneburg:5 (2^20 points) the cover holds its uint8 covered set
    and the count arrays of one block, no count array over the plane."""
    Q = spread.luneburg(5)
    spec = spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))
    spreadbent.star_table(Q)                     # the kept Gram array
    tracemalloc.start()
    try:
        oval = spreadbent.line_oval_bivariate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert oval.e_size() == Q.size * Q.size // 2 + Q.size // 2


@pytest.mark.parametrize("name", ["field:3", "x^2 z", "luneburg:3"])
def test_covered_set_is_the_xy_count_table(name):
    """E is the read-only uint8 (size, size) table [x, y] (the per-line
    oracle packs x + size*y, its transpose read flat), and the chi-swap
    dual is its complement read flat, equal to the Walsh dual: at c = 0
    and on shifted ovals (c = v, u != v), on the field, on x^2 z (not
    symplectic, so its star table is the kept transpose) and on
    luneburg:3.  At least one E per carrier is not symmetric under
    (x, y) -> (y, x), so a transposed E fails."""
    Q = SMALL[name]()
    spec = spreadbent.SpreadBentSpec(Q, np.asarray(_cover_gs(Q)[0], dtype=np.int64))
    st = spreadbent.star_table(Q)
    cases = [(0, spec.G, spreadbent.line_oval_bivariate(spec),
              spreadbent.bent_bivariate(spec))]
    rng = np.random.default_rng(3)
    for _ in range(3):
        u, v = rng.choice(Q.size, size=2, replace=False).tolist()
        f_uv, oval_uv = spreadbent.action_linear_shift(spec, u, v)
        cases.append((v, spec.G ^ u ^ st[v], oval_uv, f_uv))
    for c, offsets, oval, f in cases:
        e = oval.e_table
        assert e.shape == (Q.size, Q.size) and e.dtype == np.uint8
        assert not e.flags.writeable
        counts, witness = line_oval_cover_naive(Q, c, offsets)
        assert witness is None
        assert np.array_equal(e.T.ravel(), (counts > 0).astype(np.uint8))
        dual = spreadbent.dual_chi_swap(oval)
        assert np.array_equal(dual.table, 1 ^ e.ravel())
        assert dual == spreadbent.dual_walsh(f, Q)
    assert any(not np.array_equal(o.e_table, o.e_table.T) for _, _, o, _ in cases)


def test_chi_swap_dual_allocates_one_table():
    """At luneburg:5 (2^20 points) the chi-swap dual allocates only its
    1 MiB complement of E: no transposed copy."""
    Q = spread.luneburg(5)
    oval = spreadbent.line_oval_bivariate(
        spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q)))
    tracemalloc.start()
    try:
        dual = spreadbent.dual_chi_swap(oval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (1 << 20), peak
    assert dual.table.shape == (Q.size * Q.size,)


def test_analyze_frees_the_spectrum_before_the_b_form_dual():
    """At luneburg:5 (2^20 points) the peak of `analyze` is the Walsh
    stage: f, its 4 MiB int32 spectrum and the transform's block buffers.
    With the spectrum still bound while the B-form dual gathered its two
    1 MiB tables, the peak was 8 MiB."""
    Q = spread.luneburg(5)
    spec = spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))
    spreadbent.analyze(spec)                 # the carrier's kept tables
    tracemalloc.start()
    try:
        out, _, dual = spreadbent.analyze(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["bent"] and out["dual_routes_agree"]
    assert peak <= 7 * (1 << 20), peak
    assert dual.table.shape == (Q.size * Q.size,)


def test_g_identity_not_bent():
    Q = spread.field_pqf(3)
    bad = spreadbent.SpreadBentSpec(Q, np.arange(8, dtype=np.int64))
    ok, wit = spreadbent.bent_criterion(bad)
    assert not ok and wit[0] == "not_two_to_one"
    assert not boolfn.is_bent(spreadbent.bent_bivariate(bad))
    with pytest.raises(ValueError):
        spreadbent.line_oval_bivariate(bad)


def test_line_oval_is_the_bentness_guard():
    Q = spread.field_pqf(3)
    for G in (np.arange(8), np.zeros(8)):
        bad = spreadbent.SpreadBentSpec(Q, G.astype(np.int64))
        with pytest.raises(ValueError, match=r"not a line oval: point "
                                             r"\(\d+, \d+\) lies on \d+ lines"):
            spreadbent.line_oval_bivariate(bad)


def test_product_route_reads_the_vertical_line_x_0(field_spec):
    _, oval_uv = spreadbent.action_linear_shift(field_spec, 3, 5)
    with pytest.raises(ValueError, match="x = 0"):
        spreadbent.dual_product(oval_uv, field_spec.Q)


def test_g_not_permutation_not_bent():
    Q = spread.field_pqf(3)
    bad = spreadbent.SpreadBentSpec(Q, np.zeros(8, dtype=np.int64))
    ok, wit = spreadbent.bent_criterion(bad)
    assert not ok and wit == ("G_not_bijective",)
    assert not boolfn.is_bent(spreadbent.bent_bivariate(bad))


def test_field_square_g_is_bent():
    Q = spread.field_pqf(3)
    F = Q.field
    g2 = np.array([F.sqr(z) for z in range(8)], dtype=np.int64)
    spec = spreadbent.SpreadBentSpec(Q, g2)
    ok, _ = spreadbent.bent_criterion(spec)
    assert ok and boolfn.is_bent(spreadbent.bent_bivariate(spec))


def test_kantor_commutative_transpose(kantor_ct_spec):
    Q = kantor_ct_spec.Q
    Qt = spread.transpose_pqf(Q)
    assert spread.validate_prequasifield(Qt).is_commutative
    # H_b(z) = (z + b) * z has kernel {0, b}: the 2-to-1 argument
    st = spreadbent.star_table(Q)
    for b in range(1, Q.size):
        h = kantor_ct_spec.G ^ st[b, :]
        counts = np.bincount(h, minlength=Q.size)
        assert set(counts[counts > 0].tolist()) == {2}
    an, _, _ = spreadbent.analyze(kantor_ct_spec)
    assert an["bent"] and an["criterion"] and an["dual_routes_agree"]
    assert an["e_size"] == 36


def test_three_verdicts_agree_on_negatives():
    Q = spread.field_pqf(3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        G = rng.permutation(8).astype(np.int64)
        spec = spreadbent.SpreadBentSpec(Q, G)
        bent = boolfn.is_bent(spreadbent.bent_bivariate(spec))
        crit, _ = spreadbent.bent_criterion(spec)
        assert bent == crit
        if not bent:
            with pytest.raises(ValueError):
                spreadbent.line_oval_bivariate(spec)


def test_luneburg_analysis(luneburg_spec):
    an, _, _ = spreadbent.analyze(luneburg_spec)
    assert an["bent"] and an["criterion"] and an["dual_routes_agree"]
    assert an["e_size"] == 2**11 + 2**5 == 2080
    assert an["degree"] == 2 and an["quadratic_rank"] == 12


def test_luneburg_covered_set_is_quadric(luneburg_spec):
    # E(O) equals the zero set of q(x, y) = tr(x1 y1 + x2 y2)
    Q = luneburg_spec.Q
    oval = spreadbent.line_oval_bivariate(luneburg_spec)
    bform = carrier_form(Q)
    want = np.array([1 ^ bform(x, y) for y in range(Q.size) for x in range(Q.size)],
                    dtype=np.uint8)
    assert np.array_equal(oval.e_table.T.ravel(), want)


def test_luneburg_ea_equivalent_to_desarguesian(luneburg_spec):
    # same complete quadratic invariants as tr(xy) on 12 bits
    f = spreadbent.bent_bivariate(luneburg_spec)
    F6 = BinaryField(6)
    g = boolfn.BooleanFunction(
        12, [F6.trace(F6.mul(x, y)) for y in range(64) for x in range(64)])
    assert boolfn.degree(f) == boolfn.degree(g) == 2
    assert boolfn.quadratic_rank(f) == boolfn.quadratic_rank(g) == 12


def test_mu_normalization(luneburg_spec):
    Q = luneburg_spec.Q
    st = spreadbent.star_table(Q)
    mu = 13
    spec_mu = spreadbent.SpreadBentSpec(Q, luneburg_spec.G ^ st[mu, :], mu=mu)
    f_mu = spreadbent.bent_bivariate(spec_mu)
    assert boolfn.is_bent(f_mu)
    bform = carrier_form(Q)
    mu_row = [bform(mu, y) for y in range(Q.size)]
    assert f_mu.table[0 :: Q.size].tolist() == mu_row
    norm = spreadbent.normalize_mu(spec_mu)
    assert norm.mu == 0 and np.array_equal(norm.G, luneburg_spec.G)
    # f_norm = f_mu + tr(mu y)
    tr_mu_y = np.repeat(mu_row, Q.size)
    assert np.array_equal(spreadbent.bent_bivariate(norm).table,
                          f_mu.table ^ tr_mu_y)
    # dual routes on the mu != 0 spec still agree
    dw, dp, _ = _walsh_product_chi_swap(spec_mu)
    assert dw == dp


def test_shift_action(luneburg_spec):
    Q = luneburg_spec.Q
    oval0 = spreadbent.line_oval_bivariate(luneburg_spec)
    rng = np.random.default_rng(5)
    size = Q.size
    xs = np.arange(size)
    for _ in range(5):
        u, v = int(rng.integers(size)), int(rng.integers(size))
        f_uv, oval_uv = spreadbent.action_linear_shift(luneburg_spec, u, v)
        assert boolfn.is_bent(f_uv)
        assert spreadbent.dual_walsh(f_uv, Q) == spreadbent.dual_chi_swap(oval_uv)
        shifted = np.zeros_like(oval0.e_table)             # E + (v, u)
        shifted[np.ix_(xs ^ v, xs ^ u)] = oval0.e_table
        assert np.array_equal(oval_uv.e_table, shifted)
    f00, oval00 = spreadbent.action_linear_shift(luneburg_spec, 0, 0)
    assert f00 == spreadbent.bent_bivariate(luneburg_spec)
    assert np.array_equal(oval00.e_table, oval0.e_table)


def test_correspondence_round_trip(field_spec, luneburg_spec, kantor_ct_spec):
    # Theorem-style one-to-one correspondence: spec -> line oval -> spec
    for spec in (field_spec, luneburg_spec, kantor_ct_spec):
        oval = spreadbent.line_oval_bivariate(spec)
        back = spreadbent.spec_from_line_oval(oval, spec.Q)
        assert np.array_equal(back.G, spec.G) and back.mu == 0
        # a translated oval (c != 0) maps to the shifted function
        _, oval_uv = spreadbent.action_linear_shift(spec, 3, 5)
        assert oval_uv.c == 5
        back2 = spreadbent.spec_from_line_oval(oval_uv, spec.Q)
        oval2 = spreadbent.line_oval_bivariate(back2)
        # translating by (c, 0) cancels the v-star term: only G + u remains
        assert np.array_equal(back2.G, spec.G ^ 3)
        assert oval2.c == 0
        assert boolfn.is_bent(spreadbent.bent_bivariate(back2))


def test_bent_degree_bound(field_spec, luneburg_spec, kantor_ct_spec):
    for spec in (field_spec, luneburg_spec, kantor_ct_spec):
        f = spreadbent.bent_bivariate(spec)
        assert boolfn.degree(f) <= spec.Q.dim


def test_rho_action_and_g0_normalization(field_spec):
    spec_c = spreadbent.action_rho(field_spec, 0)
    assert np.array_equal(spec_c.G, field_spec.G)
    for c in (1, 5):
        spec_c = spreadbent.action_rho(field_spec, c)
        an, _, _ = spreadbent.analyze(spec_c)
        assert an["bent"] and an["dual_routes_agree"]
    g0 = spreadbent.normalize_g0(field_spec)
    assert g0.G[0] == 0
    assert spreadbent.analyze(g0)[0]["bent"]


def _asymmetric_e_spec(spec, u):
    """spec with G + u: its line oval is translated by (0, u), so for the
    u used here its E is not symmetric under (x, y) -> (y, x), and a
    transposed E fails the dual identities."""
    shifted = spreadbent.SpreadBentSpec(spec.Q, spec.G ^ u)
    e = spreadbent.line_oval_bivariate(shifted).e_table
    assert not np.array_equal(e, e.T)
    return shifted


def test_aut_action_frobenius(field_spec):
    Q = field_spec.Q
    F = Q.field
    phi = np.array([F.sqr(x) for x in range(8)], dtype=np.int64)
    assert spreadbent.is_automorphism(Q, phi)
    for spec in (field_spec, _asymmetric_e_spec(field_spec, 5)):
        f_phi, e_phi = spreadbent.action_aut(spec, phi)
        assert boolfn.is_bent(f_phi)
        assert e_phi.shape == (8, 8)
        d = spreadbent.dual_walsh(f_phi, Q)
        assert np.array_equal(d.table, 1 ^ e_phi.ravel())
    # identity map is a fixed point
    ident = np.arange(8, dtype=np.int64)
    f_id, e_id = spreadbent.action_aut(field_spec, ident)
    assert f_id == spreadbent.bent_bivariate(field_spec)
    with pytest.raises(ValueError):
        spreadbent.action_aut(field_spec, np.array([0, 1, 2, 3, 4, 5, 7, 6]))


def test_gl2_action(field_spec):
    Q = field_spec.Q
    F = Q.field
    rng = np.random.default_rng(11)
    done = 0
    specs = (field_spec, _asymmetric_e_spec(field_spec, 3))
    while done < 12:
        M = tuple(int(v) for v in rng.integers(0, 8, size=4))
        if F.mul(M[0], M[3]) ^ F.mul(M[1], M[2]) == 0:
            continue
        frob = int(rng.integers(3))
        for spec in specs:
            f_psi, e_psi = spreadbent.action_gl2(spec, M, frob=frob)
            assert boolfn.is_bent(f_psi)
            assert e_psi.shape == (8, 8)
            d = spreadbent.dual_walsh(f_psi, Q)
            assert np.array_equal(d.table, 1 ^ e_psi.ravel()), (M, frob)
        done += 1
    # identity fixes everything
    f_id, e_id = spreadbent.action_gl2(field_spec, (1, 0, 0, 1))
    assert f_id == spreadbent.bent_bivariate(field_spec)
    with pytest.raises(ValueError):
        spreadbent.action_gl2(field_spec, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        spreadbent.action_gl2(
            spreadbent.SpreadBentSpec(spread.luneburg(3),
                                      spread.sqrt_diag_g_table(spread.luneburg(3))),
            (1, 0, 0, 1))


@pytest.mark.parametrize("m", range(2, 6))
def test_gl2_action_matches_scalar_plane_map(m):
    Q = spread.field_pqf(m)
    F = Q.field
    rng = np.random.default_rng(m)
    mats = [(1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 0, 3)]
    while len(mats) < 6:
        M = tuple(int(v) for v in rng.integers(0, Q.size, size=4))
        if F.mul(M[0], M[3]) != F.mul(M[1], M[2]):
            mats.append(M)
    base = spreadbent.SpreadBentSpec(Q, spread.sqrt_diag_g_table(Q))
    for spec in (base, _asymmetric_e_spec(base, 1)):
        f = spreadbent.bent_bivariate(spec).table
        e = spreadbent.line_oval_bivariate(spec).e_table.T.ravel()   # x + size*y
        for M in mats:
            for frob in (0, 1, m - 1, 2 * m + 1):
                f_psi, e_psi = spreadbent.action_gl2(spec, M, frob=frob)
                want_f, want_e = gl2_action_naive(F, f, e, M, frob)
                assert np.array_equal(f_psi.table, want_f), (M, frob)
                assert np.array_equal(e_psi.T.ravel(), want_e), (M, frob)
