from dataclasses import replace

import pytest

from qtilt.forms import (
    FormError,
    build_smax_with_form,
    check_form,
    complete_nondegenerate,
    extend_form_minimal,
)
from qtilt.linalg import Mat, det_valuation, is_unit_matrix
from qtilt.ring import embed, qint
from qtilt.rootsys import weights_below
from qtilt.serialize import SerializeError, dump_form, load_form
from qtilt.xcat import (
    Obstructed,
    XObject,
    build_smax,
    build_smin,
    character,
    extend_hom_down,
    maximal_extend,
    maximality_certificate,
    minimal_extend,
    verify_hom,
)
from qtilt.xcat import _seed


def test_check_form_rank_one_seed(a1, gf):
    M = _seed(a1, gf, (3,))
    b = {(3,): Mat.identity(gf, 1)}
    rep = check_form(M, b)
    assert rep.ok
    assert all(e.status == "pass" for e in rep.entries if e.check == "form-nondegenerate")


def test_extend_form_minimal_first_step_gram(a1, gf):
    # top weight 2, one step down: the forced Gram entry is the quantum
    # integer [2] (pair the lowered generator against itself).
    M = minimal_extend(_seed(a1, gf, (2,)), (0,))
    b = extend_form_minimal(M, {(2,): Mat.identity(gf, 1)}, (0,))
    assert b[(0,)] == Mat.from_rows(gf, [[embed(qint(2), gf)]])


def test_extend_form_minimal_zero_space(a1, gf):
    M = minimal_extend(_seed(a1, gf, (0,)), (-2,))
    b = extend_form_minimal(M, {(0,): Mat.identity(gf, 1)}, (-2,))
    assert b[(-2,)].rows == 0


def test_extend_form_minimal_refuses_unextended_object(a1, gf):
    # Without the extension step there is no space at mu to put a Gram
    # matrix on; a silent 0x0 answer would look like a rank-0 weight.
    with pytest.raises(FormError, match="not extended"):
        extend_form_minimal(_seed(a1, gf, (2,)), {(2,): Mat.identity(gf, 1)}, (0,))


def test_extend_form_minimal_field_nondegenerate(a1, a2, gf):
    for rs, lam in ((a1, (4,)), (a2, (1, 1))):
        M = _seed(rs, gf, lam)
        b = {lam: Mat.identity(gf, 1)}
        for mu in weights_below(rs, lam)[1:]:
            M = minimal_extend(M, mu)
            b = extend_form_minimal(M, b, mu)
        rep = check_form(M, b)
        assert rep.ok


def test_extend_form_minimal_uniqueness(a2, cyc3):
    lam = (1, 1)
    M = _seed(a2, cyc3, lam)
    b = {lam: Mat.identity(cyc3, 1)}
    for mu in weights_below(a2, lam)[1:]:
        M = minimal_extend(M, mu)
        b = extend_form_minimal(M, b, mu)
        again = extend_form_minimal(M, {k: v for k, v in b.items() if k != mu}, mu)
        assert again[mu] == b[mu]


def test_complete_nondegenerate_trivial_branch(a1, cyc3):
    M = _seed(a1, cyc3, (2,))
    b = {(2,): Mat.identity(cyc3, 1)}
    M2, b2 = complete_nondegenerate(M, b, (0,))
    assert M2.rank((0,)) == 1
    assert b2[(0,)] == Mat.from_rows(cyc3, [[embed(qint(2), cyc3)]])


def test_complete_nondegenerate_hyperbolic_branch(a1, cyc3):
    # top weight 3 over the third cyclotomic localization: the forced Gram
    # at weight 1 is ([3]) with positive valuation, so a rank-1 hyperbolic
    # partner is adjoined and the rank-2 Gram has unit determinant.
    M = _seed(a1, cyc3, (3,))
    b = {(3,): Mat.identity(cyc3, 1)}
    M2, b2 = complete_nondegenerate(M, b, (1,))
    assert M2.rank((1,)) == 2
    g = b2[(1,)]
    assert g == g.T
    assert det_valuation(g) == 0
    rep = check_form(M2, b2)
    assert rep.ok


def test_build_smax_with_form_field_matches_smin(a1, a2, gf):
    for rs, lam in ((a1, (3,)), (a2, (1, 1))):
        M, b = build_smax_with_form(rs, gf, lam)
        assert character(M) == character(build_smin(rs, gf, lam))
        assert check_form(M, b).ok


def test_build_smax_with_form_sl2(a1, cyc3):
    M, b = build_smax_with_form(a1, cyc3, (3,))
    assert character(M) == {(3,): 1, (1,): 2, (-1,): 2, (-3,): 1}
    rep = check_form(M, b)
    assert rep.ok
    for mu, g in b.items():
        if g.rows:
            assert det_valuation(g) == 0


def test_form_implies_maximal(a1, a2, cyc3):
    for rs, lam in ((a1, (4,)), (a2, (1, 1))):
        M, b = build_smax_with_form(rs, cyc3, lam)
        assert check_form(M, b).ok
        assert maximality_certificate(M).ok


def test_raising_image_splits_under_nondegenerate_form(a1, cyc3):
    # with a non-degenerate contravariant form and split lowering image, the
    # raising image is saturated (the split lemma); certified per weight by
    # the maximality certificate above, spot-checked here on a fresh build
    M, b = build_smax_with_form(a1, cyc3, (4,))
    assert maximality_certificate(M).ok


def test_cross_construction_isomorphism(a1, a2, cyc3):
    for rs, lam in ((a1, (3,)), (a2, (1, 1))):
        T = build_smax(rs, cyc3, lam)
        F, b = build_smax_with_form(rs, cyc3, lam)
        assert character(T) == character(F)
        res = extend_hom_down(T, F, Mat.identity(cyc3, 1))
        assert not isinstance(res, Obstructed)
        assert verify_hom(T, F, res).ok
        assert all(is_unit_matrix(res[w]) for w in res)


def test_check_form_detects_perturbation(a1, cyc3):
    M, b = build_smax_with_form(a1, cyc3, (3,))
    bad = dict(b)
    g = bad[(1,)]
    rows = g.to_lists()
    rows[0][0] = rows[0][0] + cyc3.uniformizer()
    bad[(1,)] = Mat.from_rows(cyc3, rows, cols=g.cols)
    rep = check_form(M, bad)
    assert not rep.ok
    kinds = {e.check for e in rep.failures()}
    assert kinds & {"form-contravariant", "form-symmetric"}


def test_check_form_detects_asymmetry(a1, cyc3):
    M, b = build_smax_with_form(a1, cyc3, (3,))
    bad = dict(b)
    g = bad[(1,)].to_lists()
    g[0][1] = g[0][1] + cyc3.one()
    bad[(1,)] = Mat.from_rows(cyc3, g, cols=2)
    rep = check_form(M, bad)
    assert any(e.check == "form-symmetric" and e.status == "fail" for e in rep.entries)


def test_check_form_checks_an_f_whose_e_is_absent(a1, cyc3):
    # Contravariance pairs E with F, so an F stored without its E must fail.
    M, b = build_smax_with_form(a1, cyc3, (3,))
    assert len(M.eops) == 6
    for key in sorted(M.eops):
        eops = dict(M.eops)
        del eops[key]
        rep = check_form(replace(M, eops=eops), b)
        assert [(e.check, e.weight, e.witness) for e in rep.failures()] == \
            [("form-contravariant", key[0], f"alpha={key[1]} n={key[2]}")], key


def test_check_form_reports_a_gram_of_the_wrong_shape(a1, cyc3):
    # A 2x2 Gram on the rank-1 top used to be reported as form-shape and
    # then raise LinAlgError in the contravariance loop.
    M = build_smax(a1, cyc3, (2,))
    rep = check_form(M, {(2,): Mat.identity(cyc3, 2)})
    assert not rep.ok
    assert [(e.check, e.weight) for e in rep.failures()] == [
        ("form-shape", (2,)), ("form-nondegenerate", (-2,)), ("form-nondegenerate", (0,))]


@pytest.mark.parametrize("extend", ["minimal", "complete"])
def test_a_gram_of_the_wrong_shape_is_refused_by_name(a1, cyc3, extend):
    # A 2x2 Gram on the rank-1 top used to raise LinAlgError "shape
    # mismatch" from the matrix product.
    M = _seed(a1, cyc3, (1,))
    b = {(1,): Mat.identity(cyc3, 2)}
    with pytest.raises(FormError, match=r"form at \(1,\): Gram is 2x2, space has rank 1"):
        if extend == "minimal":
            extend_form_minimal(minimal_extend(M, (-1,)), b, (-1,))
        else:
            complete_nondegenerate(M, b, (-1,))


def test_extend_form_minimal_refuses_a_saturated_space(a1, cyc3):
    # maximal_extend adjoins a generator that F does not reach, so no Gram
    # is forced on it.
    M = maximal_extend(_seed(a1, cyc3, (3,)), (1,))
    assert M.rank((1,)) == 2
    with pytest.raises(FormError, match="lowering operator is not surjective"):
        extend_form_minimal(M, {(3,): Mat.identity(cyc3, 1)}, (1,))


def test_complete_nondegenerate_refuses_a_degenerate_form_over_a_field(a1, gf):
    M = _seed(a1, gf, (1,))
    with pytest.raises(FormError, match="degenerate extension over a field"):
        complete_nondegenerate(M, {(1,): Mat.zero(gf, 1, 1)}, (-1,))


@pytest.mark.parametrize("top_gram", ["s", "0"])
def test_complete_nondegenerate_refuses_a_form_degenerate_above(a1, cyc3, top_gram):
    M = _seed(a1, cyc3, (1,))
    g = Mat.from_rows(cyc3, [[cyc3.uniformizer() if top_gram == "s" else cyc3.zero()]])
    with pytest.raises(FormError, match="form degenerate on the upper-neighbour sum"):
        complete_nondegenerate(M, {(1,): g}, (-1,))


def test_load_form_refuses_a_form_over_another_ring(a1, cyc3):
    M, _ = build_smax_with_form(a1, cyc3, (3,))
    other, b = build_smax_with_form(a1, cyc3.fraction_field(), (3,))
    with pytest.raises(SerializeError, match="form ring does not match"):
        load_form(dump_form(other, b), M)
