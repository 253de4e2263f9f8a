"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
every comparison is exact, and the stated runtime budgets are asserted.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from qtilt.forms import build_smax_with_form, check_form
from qtilt.linalg import Mat, is_unit_matrix, det_valuation, saturation_with_invariants
from qtilt.ring import (
    cyclotomic_local,
    embed,
    generic_field,
    integer_local,
    qbinom,
    qint,
)
from qtilt.rootsys import root_system, weights_below, weyl_character
from qtilt.xcat import (
    Obstructed,
    _seed,
    build_smax,
    build_smin,
    character,
    check_axioms,
    delta_space,
    extend_hom_down,
    hat_matrices,
    maximal_extend,
    maximality_certificate,
    minimal_extend,
    minimality_certificate,
    verify_hom,
    verify_relations,
    weyl_multiplicities,
)


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if budget is not None and dt >= budget:
            raise AssertionError(f"criterion {num} exceeded {budget}s budget: {dt:.2f}s")
    except BaseException:
        print(f"ACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({desc}): PASS [{dt:.2f}s]")


CRIT3_CASES = (
    [("A1", (lam,)) for lam in range(9)]
    + [("A2", w) for w in [(1, 0), (1, 1), (2, 1)]]
    + [("B2", w) for w in [(1, 0), (0, 1), (1, 1)]]
    + [("G2", (1, 0))]
)


def _rings():
    return [generic_field(), cyclotomic_local(3), cyclotomic_local(5), integer_local(3)]


_STASH: dict = {}


def _smin_corpus():
    if "smin" not in _STASH:
        out = {}
        for label, lam in CRIT3_CASES:
            rs = root_system(label)
            for ring in _rings():
                out[(label, lam, ring.descriptor())] = build_smin(rs, ring, lam)
        _STASH["smin"] = out
    return _STASH["smin"]


def _smax_field_corpus():
    if "smax_field" not in _STASH:
        gf = generic_field()
        _STASH["smax_field"] = {
            (label, lam): build_smax(root_system(label), gf, lam)
            for label, lam in CRIT3_CASES
        }
    return _STASH["smax_field"]


def _smax_local_corpus():
    if "smax_local" not in _STASH:
        c3 = cyclotomic_local(3)
        out = {}
        for label, lam in CRIT3_CASES:
            out[(label, lam)] = build_smax(root_system(label), c3, lam)
        _STASH["smax_local"] = out
    return _STASH["smax_local"]


# ---------------------------------------------------------------------------


def test_criterion_1_rank_one_worked_example():
    with criterion(1, "rank-1 two-step raising matrix", budget=1.0):
        gf = generic_field()
        a1 = root_system("A1")
        for lam in (5, 6, 7):
            M = minimal_extend(_seed(a1, gf, (lam,)), (lam - 2,))
            ehat, fhat, index = hat_matrices(M, (lam - 4,))
            assert fhat == Mat.identity(gf, 2)
            (b1,) = [b for b in index if b.n == 1]
            (b2,) = [b for b in index if b.n == 2]

            def q(p):
                return embed(p, gf)

            # the displayed 2x2 matrix, entry by entry
            assert ehat[b1.offset, b2.offset] == q(qint(lam - 1))
            assert ehat[b2.offset, b2.offset] == q(qbinom(lam, 2))
            assert ehat[b1.offset, b1.offset] == q(qint(lam) + qint(lam - 2))
            assert ehat[b2.offset, b1.offset] == q(qint(lam) * qint(lam - 1))
            # the column-proportionality identity ([lam]/[2]) ([lam]+[lam-2]) = [lam][lam-1]
            lhs = q(qint(lam)).divide(q(qint(2))) * q(qint(lam) + qint(lam - 2))
            assert lhs == q(qint(lam) * qint(lam - 1))


def test_criterion_2_rank_two_worked_example():
    with criterion(2, "A2 raising matrix, torsion invariant, rank 3", budget=1.0):
        gf = generic_field()
        a2 = root_system("A2")
        for lam in [(1, 1), (3, 2), (2, 5)]:
            M = _seed(a2, gf, lam)
            M = minimal_extend(M, a2.add_root(lam, 0, -1))
            M = minimal_extend(M, a2.add_root(lam, 1, -1))
            mu = a2.add_root(a2.add_root(lam, 0, -1), 1, -1)
            ehat, _, index = hat_matrices(M, mu)
            (ba,) = [b for b in index if b.alpha == 0]
            (bb,) = [b for b in index if b.alpha == 1]

            def q(n):
                return embed(qint(n), gf)

            la, lb = lam
            assert ehat[ba.offset, bb.offset] == q(la)
            assert ehat[bb.offset, bb.offset] == q(lb - a2.cartan[1][0])
            assert ehat[ba.offset, ba.offset] == q(la - a2.cartan[0][1])
            assert ehat[bb.offset, ba.offset] == q(lb)

        c3 = cyclotomic_local(3)
        rho = (1, 1)
        M = _seed(a2, c3, rho)
        M = minimal_extend(M, (-1, 2))
        M = minimal_extend(M, (2, -1))
        Mt = minimal_extend(M, (0, 0))
        _, e0, _ = delta_space(Mt, (0, 0))
        _, exps = saturation_with_invariants(e0)
        assert exps == (1,)
        T = build_smax(a2, c3, rho)
        assert T.rank((0, 0)) == 3


def test_criterion_3_weyl_characters():
    with criterion(3, "minimal builds match the Freudenthal oracle", budget=30.0):
        corpus = _smin_corpus()
        for (label, lam, rdesc), M in corpus.items():
            assert character(M) == weyl_character(root_system(label), lam), (
                label, lam, rdesc)


def test_criterion_4_sl2_tilting_regression():
    with criterion(4, "rank-1 tilting multiplicities vs two-step oracle", budget=5.0):
        v = sympy.Symbol("v")
        sigma3 = sympy.Poly(v**2 + v + 1, v)

        def qi(n):
            # symbolic [n] as a polynomial times a unit power of v
            return sympy.Poly(sum(v ** (2 * i) for i in range(n)), v) if n > 0 else None

        def val3(n):
            # multiplicity of the third cyclotomic polynomial in [n]
            if n == 0:
                raise ValueError
            p, k = qi(n), 0
            while True:
                q, r = divmod(p, sigma3)
                if r != 0:
                    return k
                p, k = q, k + 1

        def oracle_mults(lam):
            out = {(lam,): 1}
            if lam - 2 >= 0 and val3(lam) > 0:
                out[(lam - 2,)] = 1
            if lam - 4 >= 0 and val3(lam) == 0:
                # minimal two-step column: ([lam-1], [lam]+[lam-2]); the
                # second entry is [2][lam-1], so the torsion degree is val([lam-1])
                if min(val3(lam - 1), val3(2) + val3(lam - 1)) > 0:
                    out[(lam - 4,)] = 1
            return out

        c3 = cyclotomic_local(3)
        a1 = root_system("A1")
        expected = {0: {(0,): 1}, 1: {(1,): 1}, 2: {(2,): 1},
                    3: {(3,): 1, (1,): 1}, 4: {(4,): 1, (0,): 1}}
        for lam in range(5):
            T = build_smax(a1, c3, (lam,))
            wm = weyl_multiplicities(T)
            assert wm == oracle_mults(lam), lam
            assert wm == expected[lam], lam


def test_criterion_5_field_semisimplicity():
    with criterion(5, "minimal and maximal builds agree over the field"):
        corpus = _smin_corpus()
        smax = _smax_field_corpus()
        gf_desc = generic_field().descriptor()
        for label, lam in CRIT3_CASES:
            assert character(smax[(label, lam)]) == character(
                corpus[(label, lam, gf_desc)]), (label, lam)


def test_criterion_6_axiom_and_relation_suite():
    with criterion(6, "axiom and operator-relation suite on all built objects"):
        gf = generic_field()
        a1 = root_system("A1")
        a2 = root_system("A2")
        objs = list(_smin_corpus().values())
        objs += list(_smax_field_corpus().values())
        objs += list(_smax_local_corpus().values())
        # the partial two-step objects from criteria 1 and 2
        for lam in (5, 6, 7):
            objs.append(minimal_extend(_seed(a1, gf, (lam,)), (lam - 2,)))
        for lam in [(1, 1), (3, 2), (2, 5)]:
            M = _seed(a2, gf, lam)
            M = minimal_extend(M, a2.add_root(lam, 0, -1))
            M = minimal_extend(M, a2.add_root(lam, 1, -1))
            objs.append(M)
        for M in objs:
            rep = check_axioms(M)
            assert rep.ok, rep.failures()
            rep = verify_relations(M)
            assert rep.ok, rep.failures()


def test_criterion_7_minimality_maximality_certificates():
    with criterion(7, "minimality and maximality certificates"):
        for M in _smin_corpus().values():
            assert minimality_certificate(M).ok
        for M in list(_smax_field_corpus().values()) + list(_smax_local_corpus().values()):
            assert maximality_certificate(M).ok


def _forms_corpus():
    if "forms" not in _STASH:
        c3 = cyclotomic_local(3)
        gf = generic_field()
        cases = [(l, w) for l, w in CRIT3_CASES if l in ("A1", "A2")]
        _STASH["forms"] = {
            (label, lam, ring.descriptor()): build_smax_with_form(
                root_system(label), ring, lam)
            for label, lam in cases
            for ring in (gf, c3)
        }
    return _STASH["forms"]


def test_criterion_8_form_suite():
    with criterion(8, "contravariant form suite", budget=30.0):
        gf = generic_field()
        for (label, lam, rdesc), (F, b) in _forms_corpus().items():
            rs = root_system(label)
            ring = F.ring
            rep = check_form(F, b)
            assert rep.ok, (label, lam, rdesc, rep.failures())
            for mu, g in b.items():
                if g.rows:
                    assert det_valuation(g) == 0, (label, lam, mu)
            T = (build_smax(rs, gf, lam) if ring.is_field
                 else _smax_local_corpus()[(label, lam)])
            assert character(F) == character(T), (label, lam)
            res = extend_hom_down(T, F, Mat.identity(ring, 1))
            assert not isinstance(res, Obstructed), (label, lam)
            assert verify_hom(T, F, res).ok
            assert all(is_unit_matrix(res[w]) for w in res), (label, lam)


def test_criterion_9_tilting_self_duality_proxy():
    with criterion(9, "self-duality, dominant multiplicities, character equation"):
        c3 = cyclotomic_local(3)
        for (label, lam), T in {**_smax_local_corpus(),
                                **{k: v for k, v in _smax_field_corpus().items()}}.items():
            rs = root_system(label)
            wm = weyl_multiplicities(T)
            assert wm.get(lam) == 1, (label, lam)
            for mu in wm:
                assert rs.is_dominant(mu), (label, lam, mu)
            combo = {}
            for nu, m in wm.items():
                for mu, c in weyl_character(rs, nu).items():
                    combo[mu] = combo.get(mu, 0) + m * c
            assert combo == character(T), (label, lam)
        # self-duality certificate: the isomorphic form-carrying build admits
        # a non-degenerate symmetric contravariant form
        for (label, lam, rdesc), (F, b) in _forms_corpus().items():
            rep = check_form(F, b)
            assert rep.ok
            assert all(e.status == "pass" for e in rep.entries
                       if e.check == "form-nondegenerate")


def test_criterion_10_integer_lattice_oracle():
    with criterion(10, "per-step torsion invariants vs integer SNF oracle", budget=60.0):
        a1 = root_system("A1")

        def oracle_invariants(e_mat, p):
            if e_mat.rows == 0 or e_mat.cols == 0:
                return ()
            scale = 1
            vals = []
            for row in e_mat.entries:
                for x in row:
                    if x.is_zero():
                        vals.append(Fraction(0))
                    else:
                        vals.append(Fraction(x.num[0], x.den[0]) * p**x.k)
            for fr in vals:
                scale = sympy.ilcm(scale, fr.denominator)
            ints = [int(fr * scale) for fr in vals]
            m = sympy.Matrix(e_mat.rows, e_mat.cols, ints)
            d = sympy_snf(m)
            out = []
            for i in range(min(d.rows, d.cols)):
                x = int(d[i, i])
                if x:
                    out.append(int(sympy.multiplicity(p, x)) if x % p == 0 else 0)
            return tuple(sorted(e for e in out if e > 0))

        for p in (2, 3, 5):
            ring = integer_local(p)
            for lam in range(13):
                M = _seed(a1, ring, (lam,))
                for mu in weights_below(a1, (lam,))[1:]:
                    Mt = minimal_extend(M, mu)
                    _, e_mu, _ = delta_space(Mt, mu)
                    _, engine = saturation_with_invariants(e_mu)
                    assert tuple(sorted(engine)) == oracle_invariants(e_mu, p), (
                        p, lam, mu)
                    M = maximal_extend(M, mu)
                assert maximality_certificate(M).ok
