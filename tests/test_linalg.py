import itertools
import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from qtilt.linalg import (
    TRANSFORMS,
    LinAlgError,
    Mat,
    block_diag,
    det_valuation,
    free_complement,
    hstack,
    inverse_unit,
    is_unit_matrix,
    kernel_saturated,
    rank,
    relative_invariants,
    saturation_with_invariants,
    smith_normal_form,
    solve_in_span,
    vstack,
)
from qtilt.ring import embed, generic_field, integer_local, lp, parse_ring, qbinom, qint


def imat(ring, rows):
    return Mat.from_rows(ring, [[ring.from_int(x) for x in r] for r in rows],
                         cols=len(rows[0]) if rows else 0)


def qmat(ring, rows):
    return Mat.from_rows(ring, [[embed(p, ring) for p in r] for r in rows],
                         cols=len(rows[0]) if rows else 0)


# ---------------------------------------------------------------------------
# smith normal form


def test_snf_diagonal_example(int5):
    m = Mat.from_rows(int5, [[int5.uniformizer(), int5.zero()],
                             [int5.zero(), int5.one()]])
    snf = smith_normal_form(m)
    assert snf.exponents == (0, 1)


def test_snf_zero_matrix(int5):
    assert smith_normal_form(Mat.zero(int5, 2, 3)).exponents == ()


def test_snf_residue_rank_one_example(cyc3):
    m = qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)]])
    snf = smith_normal_form(m)
    assert snf.exponents == (0, 1)


def test_snf_reassembly_and_unimodularity(cyc3, int3):
    cases = [
        qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)]]),
        qmat(cyc3, [[qint(3), qint(6)], [qint(2), qint(4)]]),
        imat(int3, [[6, 3, 1], [18, 9, 3], [24, 12, 4]]),
        imat(int3, [[0, 9], [3, 0], [1, 1]]),
    ]
    for m in cases:
        snf = smith_normal_form(m)
        d = snf.diagonal(m.rows, m.cols)
        assert snf.U @ m @ snf.V == d
        assert snf.Uinv @ d @ snf.Vinv == m
        assert is_unit_matrix(snf.U) and is_unit_matrix(snf.V)
        assert snf.U @ snf.Uinv == Mat.identity(m.ring, m.rows)
        assert snf.V @ snf.Vinv == Mat.identity(m.ring, m.cols)
        assert list(snf.exponents) == sorted(snf.exponents)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.lists(st.integers(-30, 30), min_size=2, max_size=4),
             min_size=2, max_size=4).filter(lambda rs: len({len(r) for r in rs}) == 1),
)
def test_snf_exponents_match_integer_oracle(p, rows):
    ring = integer_local(p)
    m = imat(ring, rows)
    snf = smith_normal_form(m)
    sm = sympy.Matrix(rows)
    diag = sympy_snf(sm)
    oracle = []
    for i in range(min(diag.rows, diag.cols)):
        d = int(diag[i, i])
        if d:
            oracle.append(sympy.multiplicity(p, d) if d % p == 0 else 0)
    assert sorted(snf.exponents) == sorted(oracle)
    d = snf.diagonal(m.rows, m.cols)
    assert snf.U @ m @ snf.V == d
    assert snf.Uinv @ d @ snf.Vinv == m


def test_snf_determinism(cyc3):
    m = qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)]])
    a, b = smith_normal_form(m), smith_normal_form(m)
    assert a == b


# ---------------------------------------------------------------------------
# kernels


def test_kernel_of_identity_and_zero(cyc3):
    assert kernel_saturated(Mat.identity(cyc3, 3)).cols == 0
    k = kernel_saturated(Mat.zero(cyc3, 2, 3))
    assert k.cols == 3 and is_unit_matrix(k)


def test_kernel_of_worked_raising_matrix(gf):
    # The displayed 2x2 raising matrix of the rank-1 two-step extension has a
    # rank-1 kernel spanned by ([lam]/[2], -1) up to a unit.
    lam = 6
    l_ = embed(qint(lam), gf)
    l1 = embed(qint(lam - 1), gf)
    l2 = embed(qint(lam - 2), gf)
    two = embed(qint(2), gf)
    m = Mat.from_rows(gf, [[l1, l_ * l1.divide(two)], [l_ + l2, l_ * l1]])
    k = kernel_saturated(m)
    assert k.cols == 1
    expected = Mat.from_rows(gf, [[l_.divide(two)], [gf.from_int(-1)]])
    # proportionality over the field
    assert k[0, 0] * expected[1, 0] == k[1, 0] * expected[0, 0]
    assert (m @ k).is_zero()


def test_kernel_annihilation_and_rank(cyc3):
    m = qmat(cyc3, [[qint(2), qint(4), qint(6)], [qint(1), qint(2), qint(3)]])
    k = kernel_saturated(m)
    assert (m @ k).is_zero()
    assert rank(m) + k.cols == m.cols
    # kernel basis extends to a basis of the ambient module (saturation)
    assert is_unit_matrix(hstack([k, free_complement(k)]))


# ---------------------------------------------------------------------------
# saturation


def test_saturation_uniformizer_identity(int5):
    g = Mat.identity(int5, 3).scale(int5.uniformizer())
    s, exps = saturation_with_invariants(g)
    assert s == Mat.identity(int5, 3)
    assert exps == (1, 1, 1)


def test_saturation_unit_determinant(cyc3):
    g = qmat(cyc3, [[qint(1), qint(2)], [lp({}), qint(1)]])
    s, exps = saturation_with_invariants(g)
    assert exps == ()
    # same span: each generator solves in the other
    for j in range(2):
        assert solve_in_span(s, g.col(j)) is not None
        assert solve_in_span(g, s.col(j)) is not None


def test_saturation_of_torsion_image(cyc3):
    # rank-1 span [lam]*A inside A with val([lam]) = 1 saturates to the full
    # ambient with a single invariant 1.
    g = Mat.from_rows(cyc3, [[embed(qint(3), cyc3)]])
    s, exps = saturation_with_invariants(g)
    assert exps == (1,)
    assert s.rows == 1 and s.cols == 1 and s[0, 0].is_unit()


def test_saturation_span_inclusions(cyc3):
    g = qmat(cyc3, [[qint(3), qint(6)], [qint(2), qint(3)]])
    s, exps = saturation_with_invariants(g)
    pi_max = cyc3.uniformizer() ** (max(exps) if exps else 0)
    for j in range(g.cols):
        assert solve_in_span(s, g.col(j)) is not None
    for j in range(s.cols):
        assert solve_in_span(g, s.col(j).scale(pi_max)) is not None
    # purity: the saturation basis is a direct summand
    free_complement(s)


# ---------------------------------------------------------------------------
# solving and complements


def test_solve_identity(int3):
    b = imat(int3, [[4], [7]])
    assert solve_in_span(Mat.identity(int3, 2), b) == b


def test_solve_valuation_obstruction(int3):
    g = imat(int3, [[3]])
    assert solve_in_span(g, imat(int3, [[1]])) is None
    assert solve_in_span(g, imat(int3, [[6]])) == imat(int3, [[2]])


def test_solve_first_column(cyc3):
    g = qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)]])
    x = solve_in_span(g, g.col(0))
    assert x == imat(cyc3, [[1], [0]])


def test_free_complement_cases(int5):
    assert free_complement(Mat.from_cols(int5, [], rows=3)) == Mat.identity(int5, 3)
    e12 = Mat.from_cols(int5, [[int5.one(), int5.zero(), int5.zero()],
                               [int5.zero(), int5.one(), int5.zero()]])
    c = free_complement(e12)
    assert c == Mat.from_cols(int5, [[int5.zero(), int5.zero(), int5.one()]])
    with pytest.raises(LinAlgError):
        free_complement(imat(int5, [[5], [0]]))


def test_free_complement_unit_determinant_oracle(cyc3):
    g = qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)], [qint(1), qint(1)]])
    s, _ = saturation_with_invariants(g)
    c = free_complement(s)
    assert c.cols == 3 - s.cols
    assert det_valuation(hstack([s, c])) == 0


def test_relative_invariants(cyc3):
    sup = Mat.identity(cyc3, 2)
    sub = qmat(cyc3, [[qint(3), qint(0)], [qint(0), qint(1)]])
    assert relative_invariants(sub, sup) == (1,)
    assert relative_invariants(sup, sup) == ()
    with pytest.raises(LinAlgError):
        relative_invariants(sup.take_cols([0]), sup)


def test_inverse_unit(cyc3):
    m = qmat(cyc3, [[qint(1), qint(2)], [qint(0), qint(1)]])
    assert m @ inverse_unit(m) == Mat.identity(cyc3, 2)
    with pytest.raises(LinAlgError):
        inverse_unit(Mat.from_rows(cyc3, [[embed(qint(3), cyc3)]]))


def test_matrix_shape_errors(int3):
    with pytest.raises(LinAlgError):
        imat(int3, [[1, 2]]) @ imat(int3, [[1, 2]])
    with pytest.raises(LinAlgError):
        vstack([imat(int3, [[1, 2]]), imat(int3, [[1]])])


def test_block_diag_places_blocks_with_empty_sides(int3):
    a, b = imat(int3, [[1, 2], [3, 4]]), imat(int3, [[5]])
    no_rows, no_cols = Mat.zero(int3, 0, 2), Mat.zero(int3, 1, 0)
    got = block_diag(int3, [a, no_rows, no_cols, b])
    assert got == imat(int3, [[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 0, 0, 0],
                              [0, 0, 0, 0, 5]])
    assert block_diag(int3, []) == Mat.zero(int3, 0, 0)
    assert block_diag(int3, [no_rows, no_cols]) == Mat.zero(int3, 1, 2)


def test_foreign_ring_entries_raise(int3, int5, cyc3):
    # from_rows checks every entry; the combinators check each input's ring
    with pytest.raises(LinAlgError, match="different ring"):
        Mat.from_rows(int3, [[int3.one(), int5.one()]])
    with pytest.raises(LinAlgError, match="different ring"):
        Mat.from_cols(cyc3, [[cyc3.one()], [int3.one()]])
    a, b = imat(int3, [[1, 2]]), imat(int5, [[3]])
    with pytest.raises(LinAlgError, match="mixed rings"):
        hstack([a, b])
    with pytest.raises(LinAlgError, match="mixed rings"):
        vstack([a.T, b])
    with pytest.raises(LinAlgError, match="mixed rings"):
        a.T @ b
    with pytest.raises(LinAlgError, match="mixed rings"):
        b + imat(int3, [[3]])
    for blocks in ([b], [a, b]):
        with pytest.raises(LinAlgError, match="mixed rings"):
            block_diag(int3, blocks)
    # same-ring results are built without a per-entry check and stay exact
    c = hstack([a, imat(int3, [[4]])])
    assert c == imat(int3, [[1, 2, 4]]) and c.T.T == c
    assert vstack([c, c]) @ c.T == imat(int3, [[21], [21]])
    assert a.take_cols([1]) == a.col(1) == imat(int3, [[2]])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=3),
             min_size=2, max_size=3).filter(lambda rs: len({len(r) for r in rs}) == 1),
    st.lists(st.integers(-4, 4), min_size=2, max_size=3),
)
def test_solve_in_span_reproduces_rhs(rows, coeffs):
    ring = integer_local(3)
    g = imat(ring, rows)
    # b is a ring combination of the columns, so it must be solvable exactly
    cs = (coeffs + [0] * g.cols)[: g.cols]
    b = g @ Mat.from_cols(ring, [[ring.from_int(c) for c in cs]])
    x = solve_in_span(g, b)
    assert x is not None
    assert g @ x == b


def _per_column_solve(g, b):
    cols = [solve_in_span(g, b.col(j)) for j in range(b.cols)]
    if any(x is None for x in cols):
        return None
    return hstack(cols) if cols else Mat.zero(g.ring, g.cols, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.data(),
)
def test_block_solve_matches_per_column_solves(m, n, data):
    ring = integer_local(3)
    ints = st.integers(-9, 9)
    g = imat(ring, data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                      min_size=m, max_size=m)))
    cols = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            # a ring combination of the columns of g: always solvable
            c = imat(ring, [[x] for x in data.draw(st.lists(ints, min_size=n, max_size=n))])
            cols.append(g @ c)
        else:
            cols.append(imat(ring, [[x] for x in data.draw(st.lists(ints, min_size=m,
                                                                     max_size=m))]))
    b = hstack(cols) if cols else Mat.zero(ring, m, 0)
    x = solve_in_span(g, b)
    assert x == _per_column_solve(g, b)
    if x is not None:
        assert g @ x == b


def test_block_solve_cyc_cases(cyc3):
    g = qmat(cyc3, [[qint(1), qint(2)], [qint(2), qint(1)], [qint(1), qint(1)]])
    inside = g @ qmat(cyc3, [[qint(1), qint(0), qint(3)], [qint(2), qint(1), qint(1)]])
    outside = qmat(cyc3, [[qint(1)], [qint(0)], [qint(0)]])
    for b in (inside, hstack([inside, outside]), hstack([outside, inside]),
              Mat.zero(cyc3, 3, 0)):
        x = solve_in_span(g, b)
        assert x == _per_column_solve(g, b)
        if x is not None:
            assert g @ x == b
    assert solve_in_span(g, outside) is None
    with pytest.raises(LinAlgError):
        solve_in_span(g, Mat.zero(cyc3, 2, 1))


# ---------------------------------------------------------------------------
# tracked transforms

_TRACK_RINGS = {"int:3": integer_local(3), "cyc:3": parse_ring("cyc:3"),
                "generic": generic_field()}
# Entries with 0, units and multiples of the uniformizer over both DVRs
# ([3] is divisible by sigma_3, and by 3 once v -> 1).
_TRACK_POOL = [lp({}), lp({0: 1}), lp({0: -1}), qint(2), qint(3), qint(3) * qint(3),
               qint(4), qint(6), lp({1: 1}), lp({0: 3}), lp({0: 2, 2: -1})]
_SUBSETS = [tuple(t for t, keep in zip(TRANSFORMS, bits) if keep)
            for bits in itertools.product((False, True), repeat=4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_TRACK_RINGS)), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_tracked_snf_matches_full(desc, m, n, data):
    ring = _TRACK_RINGS[desc]
    pool = st.sampled_from(range(len(_TRACK_POOL)))
    rows = [[_TRACK_POOL[data.draw(pool)] for _ in range(n)] for _ in range(m)]
    if m > 2 and data.draw(st.booleans()):
        # rank deficiency: the last row is the sum of the first two
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, m - 1))] = [lp({})] * n
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = lp({})
    M = qmat(ring, rows)
    full = smith_normal_form(M)
    assert full.ring == ring
    for track in _SUBSETS:
        snf = smith_normal_form(M, track=track)
        assert snf.exponents == full.exponents, track
        for name in TRANSFORMS:
            got = getattr(snf, name)
            assert got == (getattr(full, name) if name in track else None), (track, name)


def test_track_rejects_unknown_names(int3):
    with pytest.raises(LinAlgError):
        smith_normal_form(Mat.identity(int3, 2), track=("U", "W"))
